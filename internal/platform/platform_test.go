package platform

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no procs", Config{}},
		{"zero speed", Config{Speeds: []float64{1, 0}}},
		{"negative speed", Config{Speeds: []float64{-1}}},
		{"negative latency", Config{Speeds: []float64{1}, Latency: -1}},
		{"negative rate", Config{Speeds: []float64{1}, TimePerUnit: -1}},
		{"bad matrix rows", Config{Speeds: []float64{1, 1}, StartupMatrix: [][]float64{{0, 1}}}},
		{"bad matrix cols", Config{Speeds: []float64{1, 1}, InvRateMatrix: [][]float64{{0}, {0}}}},
		{"negative matrix entry", Config{Speeds: []float64{1, 1}, StartupMatrix: [][]float64{{0, -1}, {1, 0}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Fatal("New succeeded, want error")
			}
		})
	}
}

func TestHomogeneous(t *testing.T) {
	s := Homogeneous(4, 0.5, 2)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.IsHomogeneous() {
		t.Fatal("not homogeneous")
	}
	if got := s.CommCost(0, 0, 10); got != 0 {
		t.Fatalf("local comm = %g, want 0", got)
	}
	if got := s.CommCost(0, 1, 10); got != 0.5+20 {
		t.Fatalf("CommCost = %g, want 20.5", got)
	}
	if got := s.MeanCommCost(10); math.Abs(got-20.5) > 1e-12 {
		t.Fatalf("MeanCommCost = %g, want 20.5", got)
	}
	if s.Proc(2).Name != "P2" {
		t.Fatalf("name = %q", s.Proc(2).Name)
	}
}

func TestSingleProcessorComm(t *testing.T) {
	s := Homogeneous(1, 1, 1)
	if got := s.MeanCommCost(100); got != 0 {
		t.Fatalf("MeanCommCost single proc = %g, want 0", got)
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	s := MustNew(Config{Speeds: []float64{1, 2, 4}})
	if s.IsHomogeneous() {
		t.Fatal("should be heterogeneous")
	}
	if got := s.Speed(2); got != 4 {
		t.Fatalf("Speed(2) = %g", got)
	}
	procs := s.Procs()
	procs[0].Speed = 99
	if s.Speed(0) == 99 {
		t.Fatal("Procs leaked internal storage")
	}
}

func TestMatrixOverride(t *testing.T) {
	s := MustNew(Config{
		Speeds:        []float64{1, 1},
		Latency:       9, // overridden below
		StartupMatrix: [][]float64{{5, 1}, {2, 5}},
		InvRateMatrix: [][]float64{{5, 3}, {4, 5}},
	})
	// Diagonal forced to zero regardless of override values.
	if got := s.CommCost(0, 0, 7); got != 0 {
		t.Fatalf("diagonal comm = %g", got)
	}
	if got := s.CommCost(0, 1, 2); got != 1+2*3 {
		t.Fatalf("CommCost(0,1) = %g, want 7", got)
	}
	if got := s.CommCost(1, 0, 2); got != 2+2*4 {
		t.Fatalf("CommCost(1,0) = %g, want 10", got)
	}
}

// TestUniformLinks checks the uniform link form: a system given scalar
// links, or matrices whose off-diagonal entries all agree, stores one
// shared row per matrix, yet answers every link query with the values
// of a full matrix — the mean summed pair by pair, bit for bit.
func TestUniformLinks(t *testing.T) {
	const p, lat, inv = 5, 0.7, 0.3
	speeds := []float64{1, 1, 1, 1, 1}
	full := func(v float64) [][]float64 {
		m := make([][]float64, p)
		for i := range m {
			m[i] = make([]float64, p)
			for j := range m[i] {
				if i != j {
					m[i][j] = v
				}
			}
		}
		return m
	}
	for _, s := range []*System{
		MustNew(Config{Speeds: speeds, Latency: lat, TimePerUnit: inv}),
		MustNew(Config{Speeds: speeds, StartupMatrix: full(lat), InvRateMatrix: full(inv)}),
	} {
		if &s.startup[0][0] != &s.startup[p-1][0] || &s.invRate[0][0] != &s.invRate[p-1][0] {
			t.Fatal("uniform links stored as full matrices")
		}
		if l, r, ok := s.UniformLinks(); !ok || l != lat || r != inv {
			t.Fatalf("UniformLinks = %v, %v, %v", l, r, ok)
		}
		for _, data := range []float64{0, 1, 3, 17.25} {
			var sum float64
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					want := 0.0
					if i != j {
						want = lat + data*inv
						sum += want
					}
					if got := s.CommCost(i, j, data); got != want {
						t.Fatalf("CommCost(%d,%d,%v) = %v, want %v", i, j, data, got, want)
					}
					if i == j && (s.Startup(i, j) != 0 || s.InvRate(i, j) != 0) {
						t.Fatalf("diagonal link %d not zero", i)
					}
				}
			}
			if got, want := s.MeanCommCost(data), sum/float64(p*(p-1)); got != want {
				t.Fatalf("MeanCommCost(%v) = %v, want %v", data, got, want)
			}
		}
	}
	het := full(inv)
	het[3][1] = 2 * inv
	if _, _, ok := MustNew(Config{Speeds: speeds, Latency: lat, InvRateMatrix: het}).UniformLinks(); ok {
		t.Fatal("UniformLinks reports per-pair links as uniform")
	}
	if _, err := New(Config{Speeds: speeds, Latency: math.MaxFloat64, TimePerUnit: math.MaxFloat64}); err == nil {
		t.Fatal("uniform links whose unit cost overflows were accepted")
	}
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := Generate(GenConfig{Procs: 8, SpeedHeterogeneity: 1.0, Latency: 1, TimePerUnit: 1}, rng)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d", s.Len())
	}
	for p := 0; p < s.Len(); p++ {
		sp := s.Speed(p)
		if sp < 0.5-1e-12 || sp > 1.5+1e-12 {
			t.Fatalf("speed %g outside [0.5,1.5]", sp)
		}
	}
	// Deterministic under the same seed.
	s2, _ := Generate(GenConfig{Procs: 8, SpeedHeterogeneity: 1.0, Latency: 1, TimePerUnit: 1}, rand.New(rand.NewSource(3)))
	for p := 0; p < s.Len(); p++ {
		if s.Speed(p) != s2.Speed(p) {
			t.Fatal("Generate not deterministic for fixed seed")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(GenConfig{Procs: 0}, rng); err == nil {
		t.Fatal("want error for 0 procs")
	}
	if _, err := Generate(GenConfig{Procs: 2, SpeedHeterogeneity: 2.5}, rng); err == nil {
		t.Fatal("want error for heterogeneity >= 2")
	}
}

func TestString(t *testing.T) {
	if got := Homogeneous(2, 0, 1).String(); got != "system(2 homogeneous processors)" {
		t.Fatalf("String = %q", got)
	}
	if got := MustNew(Config{Speeds: []float64{1, 3}}).String(); got != "system(2 heterogeneous processors)" {
		t.Fatalf("String = %q", got)
	}
}
