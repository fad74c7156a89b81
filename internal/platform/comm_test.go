package platform

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dagsched/internal/sched/timeline"
)

// allGaps returns every resource's idle gaps, the state's whole
// reservation picture.
func allGaps(st *CommState) [][]timeline.Gap {
	out := make([][]timeline.Gap, len(st.res))
	for i, gi := range st.res {
		out[i] = gi.Gaps()
	}
	return out
}

// busState returns the reservation state of one bus shared by two
// processors: every transfer occupies that one resource, so
// TransferStart answers its earliest fit.
func busState(t *testing.T) *CommState {
	t.Helper()
	m, err := NewSharedLink(Homogeneous(2, 0, 1), SharedLinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m.NewState()
}

func TestLinkStateEarliestFit(t *testing.T) {
	st := busState(t)
	st.Reserve(0, 1, 2, 2) // busy [2,4)
	st.Reserve(0, 1, 6, 3) // busy [6,9)
	cases := []struct {
		t, dur, want float64
	}{
		{0, 1, 0},   // fits before the first reservation
		{0, 2, 0},   // exact fit before the first reservation
		{0, 3, 9},   // too long for any gap: after the last reservation
		{3, 1, 4},   // inside a busy interval: bumped to its end
		{4, 2, 4},   // gap [4,6) exact fit
		{5, 2, 9},   // gap too small from 5
		{10, 5, 10}, // after everything
	}
	for _, c := range cases {
		if got := st.TransferStart(0, 1, c.t, c.dur); got != c.want {
			t.Errorf("TransferStart(%g,%g) = %g, want %g", c.t, c.dur, got, c.want)
		}
	}
}

func TestLinkStateReserveOrderAndOverlapPanic(t *testing.T) {
	st := busState(t)
	st.Reserve(0, 1, 5, 2)
	st.Reserve(0, 1, 0, 2)
	st.Reserve(0, 1, 9, 1)
	// Reserved out of order, the bus is busy [0,2), [5,7) and [9,10). The
	// index keeps every gap, the empty one before [0,2) included.
	if got, want := st.res[0].Gaps(), []timeline.Gap{{Start: 0, End: 0}, {Start: 2, End: 5}, {Start: 7, End: 9}, {Start: 10, End: math.Inf(1)}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bus gaps %v, want %v", got, want)
	}
	for _, c := range []struct{ t, dur, want float64 }{
		{0, 3, 2}, {0, 4, 10}, {7, 2, 7}, {7, 3, 10},
	} {
		if got := st.TransferStart(0, 1, c.t, c.dur); got != c.want {
			t.Errorf("TransferStart(%g,%g) = %g, want %g", c.t, c.dur, got, c.want)
		}
	}
	defer func() {
		if r := recover(); r != "platform: overlapping link reservation" {
			t.Fatalf("overlapping reserve: recovered %v", r)
		}
	}()
	st.Reserve(0, 1, 6, 2)
}

func TestOnePortTransferStartAlternation(t *testing.T) {
	st := OnePort(Homogeneous(3, 0, 1)).NewState()
	// Sender 0 busy [0,5) on its send port, receiver 1 busy [5,8) on its
	// receive port.
	st.Reserve(0, 2, 0, 5)
	st.Reserve(2, 1, 5, 3)
	// A 2-unit transfer ready at 0 must wait for 8 (send free at 5, but
	// recv blocks [5,8)).
	if got := st.TransferStart(0, 1, 0, 2); got != 8 {
		t.Fatalf("TransferStart = %g, want 8", got)
	}
}

func TestLinkStateMarkUndoClone(t *testing.T) {
	st := OnePort(Homogeneous(3, 0, 1)).NewState()
	st.Reserve(0, 1, 0, 4)
	m := st.Mark()
	st.Reserve(0, 2, 4, 3)
	st.Reserve(1, 2, 7, 2)

	cl := st.Clone()
	if cl.Mark() != 0 {
		t.Fatalf("clone journal baseline = %d, want 0", cl.Mark())
	}
	cl.Reserve(2, 0, 0, 1)
	cl.Undo(0)
	if got, want := allGaps(cl), allGaps(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("clone Undo(0) left gaps %v, want the clone point's %v", got, want)
	}

	st.Undo(m)
	// Only [0,4) stays, on the send port of 0 and the recv port of 1.
	idle := []timeline.Gap{{Start: 0, End: math.Inf(1)}}
	held := []timeline.Gap{{Start: 0, End: 0}, {Start: 4, End: math.Inf(1)}}
	want := [][]timeline.Gap{held, idle, idle, idle, held, idle}
	if got := allGaps(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Undo, gaps %v, want %v", got, want)
	}
	// The freed span is reusable.
	if got := st.TransferStart(0, 2, 4, 3); got != 4 {
		t.Fatalf("TransferStart after undo = %g, want 4", got)
	}
}

func TestZeroDurationReserveIsIgnored(t *testing.T) {
	st := OnePort(Homogeneous(2, 0, 1)).NewState()
	st.Reserve(0, 1, 3, 0)
	if st.Mark() != 0 {
		t.Fatal("zero-duration reserve journaled")
	}
}

func TestContentionFreeModel(t *testing.T) {
	sys := Homogeneous(4, 0.5, 2)
	m := ContentionFree(sys)
	if m.Kind() != KindContentionFree {
		t.Fatalf("kind = %q", m.Kind())
	}
	if m.NewState() != nil {
		t.Fatal("contention-free model has a state")
	}
	if m.Cost(0, 1, 10) != sys.CommCost(0, 1, 10) || m.MeanCost(10) != sys.MeanCommCost(10) {
		t.Fatal("costs diverge from the system matrices")
	}
}

func TestOnePortCostsMatchSystem(t *testing.T) {
	sys := MustNew(Config{
		Speeds:        []float64{1, 1},
		StartupMatrix: [][]float64{{0, 1}, {2, 0}},
		InvRateMatrix: [][]float64{{0, 3}, {4, 0}},
	})
	m := OnePort(sys)
	if m.Kind() != KindOnePort {
		t.Fatalf("kind = %q", m.Kind())
	}
	for p := 0; p < 2; p++ {
		for q := 0; q < 2; q++ {
			if m.Cost(p, q, 5) != sys.CommCost(p, q, 5) {
				t.Fatalf("Cost(%d,%d) diverges", p, q)
			}
		}
	}
	if m.MeanCost(5) != sys.MeanCommCost(5) {
		t.Fatal("MeanCost diverges")
	}
}

func TestSharedLinkCostAndRouting(t *testing.T) {
	sys := Homogeneous(4, 1, 2)
	// Procs 0,1 on bus 0 (bandwidth 2), procs 2,3 on bus 1 (bandwidth 0.5).
	m, err := NewSharedLink(sys, SharedLinkConfig{
		ProcLink:  []int{0, 0, 1, 1},
		Bandwidth: []float64{2, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != KindSharedLink {
		t.Fatalf("kind = %q", m.Kind())
	}
	if got := m.Cost(0, 0, 10); got != 0 {
		t.Fatalf("local cost = %g", got)
	}
	// Same bus: startup 1 + 10·2/2.
	if got := m.Cost(0, 1, 10); got != 11 {
		t.Fatalf("same-bus cost = %g, want 11", got)
	}
	// Cross-bus: bottleneck bandwidth 0.5 → startup 1 + 10·2/0.5.
	if got := m.Cost(0, 2, 10); got != 41 {
		t.Fatalf("cross-bus cost = %g, want 41", got)
	}

	st := m.NewState()
	// A same-bus transfer occupies one resource once (no double booking).
	st.Reserve(0, 1, 0, 5)
	if got, want := st.res[0].Gaps(), []timeline.Gap{{Start: 0, End: 0}, {Start: 5, End: math.Inf(1)}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bus 0 gaps %v, want %v", got, want)
	}
	if st.Mark() != 1 {
		t.Fatalf("same-bus reserve journaled %d entries, want 1", st.Mark())
	}
	// Transfers between the buses serialize on both.
	st.Reserve(2, 0, 5, 4)
	if got := st.TransferStart(1, 3, 0, 2); got != 9 {
		t.Fatalf("cross-bus TransferStart = %g, want 9", got)
	}
	// Bus 1 is free before 5: a bus-1-local transfer fits at 0.
	if got := st.TransferStart(2, 3, 0, 2); got != 0 {
		t.Fatalf("bus-1 TransferStart = %g, want 0", got)
	}
}

func TestSharedLinkDefaultsToSingleBus(t *testing.T) {
	sys := Homogeneous(3, 0, 1)
	m, err := NewSharedLink(sys, SharedLinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cost(0, 1, 7) != sys.CommCost(0, 1, 7) {
		t.Fatal("unit-bandwidth bus cost diverges from the matrices")
	}
	st := m.NewState()
	st.Reserve(0, 1, 0, 3)
	// Everything shares the one bus.
	if got := st.TransferStart(1, 2, 0, 2); got != 3 {
		t.Fatalf("TransferStart = %g, want 3", got)
	}
}

func TestSharedLinkValidation(t *testing.T) {
	sys := Homogeneous(2, 0, 1)
	if _, err := NewSharedLink(sys, SharedLinkConfig{ProcLink: []int{0}}); err == nil {
		t.Fatal("short proc-link map accepted")
	}
	if _, err := NewSharedLink(sys, SharedLinkConfig{ProcLink: []int{0, -1}}); err == nil {
		t.Fatal("negative link accepted")
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewSharedLink(sys, SharedLinkConfig{Bandwidth: []float64{bad}}); err == nil {
			t.Fatalf("bandwidth %g accepted", bad)
		}
	}
}

func TestModelByKind(t *testing.T) {
	sys := Homogeneous(2, 0, 1)
	for _, kind := range append(ModelKinds(), "") {
		m, err := ModelByKind(kind, sys)
		if err != nil {
			t.Fatalf("%q: %v", kind, err)
		}
		want := kind
		if want == "" {
			want = KindContentionFree
		}
		if m.Kind() != want {
			t.Fatalf("ModelByKind(%q).Kind() = %q", kind, m.Kind())
		}
	}
	if _, err := ModelByKind("token-ring", sys); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// Adding link-spread knobs must not disturb the draw sequence of configs
// that leave them zero: pre-existing seeds reproduce their old systems.
func TestGenerateSpreadZeroBitIdentical(t *testing.T) {
	cfg := GenConfig{Procs: 6, SpeedHeterogeneity: 1.0, Latency: 0.5, TimePerUnit: 2}
	s1, err := Generate(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	r2 := rand.New(rand.NewSource(42))
	speeds := make([]float64, 6)
	for i := range speeds {
		speeds[i] = 1 + 1.0*(r2.Float64()-0.5)
	}
	for p := 0; p < 6; p++ {
		if s1.Speed(p) != speeds[p] {
			t.Fatal("speed draw order changed")
		}
		for q := 0; q < 6; q++ {
			if p != q && (s1.Startup(p, q) != 0.5 || s1.InvRate(p, q) != 2) {
				t.Fatalf("link %d->%d not uniform: %g/%g", p, q, s1.Startup(p, q), s1.InvRate(p, q))
			}
		}
	}
}

func TestGenerateLinkSpread(t *testing.T) {
	cfg := GenConfig{
		Procs: 8, Latency: 1, TimePerUnit: 2,
		StartupSpread: 1.0, LinkSpread: 1.5,
	}
	s, err := Generate(cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	first := s.InvRate(0, 1)
	for p := 0; p < 8; p++ {
		for q := 0; q < 8; q++ {
			if p == q {
				if s.Startup(p, q) != 0 || s.InvRate(p, q) != 0 {
					t.Fatal("diagonal not zero")
				}
				continue
			}
			su, ir := s.Startup(p, q), s.InvRate(p, q)
			if su < 1*0.5-1e-12 || su > 1*1.5+1e-12 {
				t.Fatalf("startup %g outside spread range", su)
			}
			if ir < 2*0.25-1e-12 || ir > 2*1.75+1e-12 {
				t.Fatalf("inv-rate %g outside spread range", ir)
			}
			if ir != first {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("link spread produced uniform links")
	}
	// Deterministic per seed.
	s2, _ := Generate(cfg, rand.New(rand.NewSource(9)))
	for p := 0; p < 8; p++ {
		for q := 0; q < 8; q++ {
			if s.Startup(p, q) != s2.Startup(p, q) || s.InvRate(p, q) != s2.InvRate(p, q) {
				t.Fatal("spread draws not deterministic")
			}
		}
	}
}

func TestGenerateSpreadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(GenConfig{Procs: 2, StartupSpread: 2}, rng); err == nil {
		t.Fatal("startup spread 2 accepted")
	}
	if _, err := Generate(GenConfig{Procs: 2, LinkSpread: -0.1}, rng); err == nil {
		t.Fatal("negative link spread accepted")
	}
}
