package platform

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMean is MeanCommCost's plain double loop: every ordered distinct
// pair's cost added in row-major order, then divided by the pair count.
func naiveMean(s *System, data float64) float64 {
	p := s.Len()
	if p < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				sum += s.startup[i][j] + data*s.invRate[i][j]
			}
		}
	}
	return sum / float64(p*(p-1))
}

// sameFloat reports whether a and b have the same bits, any two NaNs
// counting as equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestMeanCommCostUniformExact pins the binade-run sum of uniform links to
// the plain pair-by-pair loop, bit for bit: P from 1 to 64, 100, 256 and
// 512, with costs whose increments tie at some binade (a mantissa ending
// in a lone 1 bit, three quarters of an ulp), sit next to a power of two,
// are subnormal, zero, or overflow to +Inf, plus random ones.
func TestMeanCommCostUniformExact(t *testing.T) {
	costs := []float64{0, 1, 0.1, 1.0 / 3, 3, 7, 1e-3, 17.25, 1e300, math.MaxFloat64, math.Inf(1),
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022, 0x1.8p-1022,
		0x1p-1022 - math.SmallestNonzeroFloat64}
	for _, c := range []float64{1, 0x1p-20, 0x1p40, 3, 1e-9} {
		for _, k := range []int{1, 3, 5, 1 << 20} {
			ulp := math.Nextafter(c, math.Inf(1)) - c
			costs = append(costs, c+float64(k)*ulp, math.Nextafter(c, 0), c+0.75*ulp*float64(k))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		costs = append(costs, math.Float64frombits(rng.Uint64()>>1), rng.Float64()*100,
			math.Float64frombits(0x3ff0000000000000|uint64(rng.Intn(64))))
	}
	var procs []int
	for p := 1; p <= 64; p++ {
		procs = append(procs, p)
	}
	procs = append(procs, 100, 256, 512)
	for _, p := range procs {
		s := Homogeneous(p, 0, 1)
		for _, c := range costs {
			if got, want := s.MeanCommCost(c), naiveMean(s, c); !sameFloat(got, want) {
				t.Fatalf("P=%d cost %v (%#x): MeanCommCost %v, pair loop %v", p, c, math.Float64bits(c), got, want)
			}
		}
	}
	// A latency and a rate: each pair adds startup + data·invRate.
	s := Homogeneous(37, 0.1, 0.7)
	for _, data := range []float64{0, 1, 2.5, 1e308, math.MaxFloat64} {
		if got, want := s.MeanCommCost(data), naiveMean(s, data); !sameFloat(got, want) {
			t.Fatalf("latency 0.1, rate 0.7, data %v: MeanCommCost %v, pair loop %v", data, got, want)
		}
	}
}

// FuzzMeanCommCost compares MeanCommCost with the plain pair loop, bit
// for bit, on uniform systems of 1 to 512 processors with any valid
// latency and rate and any data volume, including negative, infinite and
// NaN ones.
func FuzzMeanCommCost(f *testing.F) {
	f.Add(uint16(2), 0.0, 1.0, 1.0)
	f.Add(uint16(511), 0.0, 1.0, 1+0x1p-52)
	f.Add(uint16(99), 0.5, 0.25, 0x1.0000000000001p-1030)
	f.Add(uint16(31), 1e-3, 3.0, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, pb uint16, lat, inv, data float64) {
		p := 1 + int(pb)%512
		speeds := make([]float64, p)
		for i := range speeds {
			speeds[i] = 1
		}
		s, err := New(Config{Speeds: speeds, Latency: lat, TimePerUnit: inv})
		if err != nil {
			return
		}
		if got, want := s.MeanCommCost(data), naiveMean(s, data); !sameFloat(got, want) {
			t.Fatalf("P=%d latency %v rate %v data %v: MeanCommCost %v, pair loop %v", p, lat, inv, data, got, want)
		}
	})
}
