package sched

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

const eps = 1e-9

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// diamondGraph is the shared 4-task fixture:
//
//	0(w=2) -> 1(w=3) [d=1], 0 -> 2(w=1) [d=4], 1 -> 3(w=4) [d=2], 2 -> 3 [d=3]
func diamondGraph(t testing.TB) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("diamond")
	t0 := b.AddTask("a", 2)
	t1 := b.AddTask("b", 3)
	t2 := b.AddTask("c", 1)
	t3 := b.AddTask("d", 4)
	b.AddEdge(t0, t1, 1)
	b.AddEdge(t0, t2, 4)
	b.AddEdge(t1, t3, 2)
	b.AddEdge(t2, t3, 3)
	return b.MustBuild()
}

// twoProc is a 2-processor system with zero latency and unit rate.
func twoProc() *platform.System { return platform.Homogeneous(2, 0, 1) }

// randomInstance builds a random unrelated instance for property tests.
func randomInstance(t testing.TB, rng *rand.Rand, n, procs int) *Instance {
	t.Helper()
	b := dag.NewBuilder("rand")
	for i := 0; i < n; i++ {
		b.AddTask("", 1+rng.Float64()*9)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				b.AddEdge(dag.TaskID(i), dag.TaskID(j), rng.Float64()*10)
			}
		}
	}
	g := b.MustBuild()
	sys := platform.Homogeneous(procs, 0.1, 1)
	in, err := Unrelated(g, sys, 0.8, rng)
	if err != nil {
		t.Fatalf("Unrelated: %v", err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	g := diamondGraph(t)
	sys := twoProc()
	if _, err := NewInstance(nil, sys, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewInstance(g, sys, make([][]float64, 2)); err == nil {
		t.Fatal("short matrix accepted")
	}
	bad := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1}}
	if _, err := NewInstance(g, sys, bad); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	neg := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, -1}}
	if _, err := NewInstance(g, sys, neg); err == nil {
		t.Fatal("negative cost accepted")
	}
	nan := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, math.NaN()}}
	if _, err := NewInstance(g, sys, nan); err == nil {
		t.Fatal("NaN cost accepted")
	}
	if _, err := NewInstance(g, sys, nan); !errors.Is(err, ErrInvalidCost) {
		t.Fatalf("NaN cost error = %v, want ErrInvalidCost", err)
	}
}

// TestNewInstanceRejectsBadEdgeData pins the edge-data audit: the builder's
// "data < 0" gate passes NaN (every comparison with NaN is false) and +Inf,
// so NewInstance must catch both before they poison the mean-comm tables.
func TestNewInstanceRejectsBadEdgeData(t *testing.T) {
	sys := twoProc()
	build := func(data float64) *dag.Graph {
		b := dag.NewBuilder("bad-edge")
		a := b.AddTask("", 1)
		c := b.AddTask("", 1)
		b.AddEdge(a, c, data)
		return b.MustBuild()
	}
	w := [][]float64{{1, 1}, {1, 1}}
	for _, data := range []float64{math.NaN(), math.Inf(1)} {
		g := build(data)
		_, err := NewInstance(g, sys, w)
		if err == nil {
			t.Fatalf("edge data %g accepted", data)
		}
		if !errors.Is(err, ErrInvalidCost) {
			t.Fatalf("edge data %g error = %v, want ErrInvalidCost", data, err)
		}
	}
	if _, err := NewInstance(build(3), sys, w); err != nil {
		t.Fatalf("valid edge data rejected: %v", err)
	}
}

// TestNewInstanceCopiesCostMatrix checks the SoA re-backing: the instance
// must own its flat cost array, so mutating the caller's rows afterwards
// cannot corrupt cached statistics or later Cost lookups.
func TestNewInstanceCopiesCostMatrix(t *testing.T) {
	g := diamondGraph(t)
	sys := twoProc()
	w := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	in, err := NewInstance(g, sys, w)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	w[0][0] = 999
	w[3][1] = -5
	if got := in.Cost(0, 0); got != 1 {
		t.Fatalf("Cost(0,0) = %g after caller mutation, want 1", got)
	}
	if got := in.Cost(3, 1); got != 8 {
		t.Fatalf("Cost(3,1) = %g after caller mutation, want 8", got)
	}
	// Rows are contiguous views of one flat backing array.
	for i := 0; i < in.N(); i++ {
		for p := 0; p < in.P(); p++ {
			if in.W[i][p] != in.wFlat[i*in.P()+p] {
				t.Fatalf("W[%d][%d] not backed by wFlat", i, p)
			}
		}
	}
}

func TestConsistentInstance(t *testing.T) {
	g := diamondGraph(t)
	sys := platform.MustNew(platform.Config{Speeds: []float64{1, 2}, TimePerUnit: 1})
	in := Consistent(g, sys)
	if got := in.Cost(0, 0); got != 2 {
		t.Fatalf("Cost(0,0) = %g", got)
	}
	if got := in.Cost(0, 1); got != 1 {
		t.Fatalf("Cost(0,1) = %g", got)
	}
	if got := in.MeanCost(0); got != 1.5 {
		t.Fatalf("MeanCost(0) = %g", got)
	}
	if got := in.SigmaCost(0); !almostEqual(got, 0.5) {
		t.Fatalf("SigmaCost(0) = %g", got)
	}
	if mc, p := in.MinCost(0); mc != 1 || p != 1 {
		t.Fatalf("MinCost(0) = %g on %d", mc, p)
	}
	if in.P() != 2 || in.N() != 4 {
		t.Fatalf("P,N = %d,%d", in.P(), in.N())
	}
}

func TestUnrelatedInstance(t *testing.T) {
	g := diamondGraph(t)
	sys := twoProc()
	rng := rand.New(rand.NewSource(1))
	in, err := Unrelated(g, sys, 1.0, rng)
	if err != nil {
		t.Fatalf("Unrelated: %v", err)
	}
	for i := 0; i < in.N(); i++ {
		nominal := g.Task(dag.TaskID(i)).Weight
		for p := 0; p < in.P(); p++ {
			c := in.Cost(dag.TaskID(i), p)
			if c < nominal*0.5-eps || c > nominal*1.5+eps {
				t.Fatalf("Cost(%d,%d) = %g outside β range of %g", i, p, c, nominal)
			}
		}
	}
	if _, err := Unrelated(g, sys, 2.5, rng); err == nil {
		t.Fatal("beta 2.5 accepted")
	}
	if _, err := Unrelated(g, sys, -0.1, rng); err == nil {
		t.Fatal("negative beta accepted")
	}
}

func TestCommCosts(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, platform.Homogeneous(2, 0.5, 2))
	// Edge (0,2) carries 4 units: comm = 0.5 + 4*2 = 8.5 across procs.
	if got := in.Comm(0, 2, 0, 1); !almostEqual(got, 8.5) {
		t.Fatalf("Comm = %g, want 8.5", got)
	}
	if got := in.Comm(0, 2, 1, 1); got != 0 {
		t.Fatalf("same-proc comm = %g", got)
	}
	if got := in.Comm(1, 2, 0, 1); got != 0 {
		t.Fatalf("non-edge comm = %g", got)
	}
	if got := in.MeanComm(0, 2); !almostEqual(got, 8.5) {
		t.Fatalf("MeanComm = %g", got)
	}
	if got := in.MeanComm(2, 0); got != 0 {
		t.Fatalf("MeanComm on reversed edge = %g", got)
	}
}

// TestMeanCommTables checks both per-arc mean-comm tables against a
// direct MeanCommData call on each arc's data, on uniform and per-pair
// links.
func TestMeanCommTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, in := range []*Instance{
		randomInstance(t, rng, 40, 4),
		Consistent(randomInstance(t, rng, 40, 4).G, platform.MustNew(platform.Config{
			Speeds:        []float64{1, 2, 3},
			InvRateMatrix: [][]float64{{0, 1, 2}, {3, 0, 4}, {5, 6, 0}},
		})),
	} {
		for i := 0; i < in.N(); i++ {
			v := dag.TaskID(i)
			for j, a := range in.G.Succ(v) {
				if got, want := in.MeanCommSucc(v, j), in.MeanCommData(a.Data); got != want {
					t.Fatalf("MeanCommSucc(%d,%d) = %v, want %v", v, j, got, want)
				}
			}
			for j, a := range in.G.Pred(v) {
				if got, want := in.MeanCommPred(v, j), in.MeanCommData(a.Data); got != want {
					t.Fatalf("MeanCommPred(%d,%d) = %v, want %v", v, j, got, want)
				}
			}
		}
	}
}

func TestCCR(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, platform.Homogeneous(2, 0, 1))
	// Mean comm per edge = mean data = (1+4+2+3)/4 = 2.5; mean comp =
	// (2+3+1+4)/4 = 2.5; CCR = 1.
	if got := in.CCR(); !almostEqual(got, 1) {
		t.Fatalf("CCR = %g, want 1", got)
	}
	single := dag.NewBuilder("one")
	single.AddTask("", 5)
	in2 := Consistent(single.MustBuild(), twoProc())
	if got := in2.CCR(); got != 0 {
		t.Fatalf("edgeless CCR = %g, want 0", got)
	}
}

func TestSeqTimeAndCPMin(t *testing.T) {
	g := diamondGraph(t)
	sys := platform.MustNew(platform.Config{Speeds: []float64{1, 2}, TimePerUnit: 1})
	in := Consistent(g, sys)
	// Loads: P0 = 10, P1 = 5.
	if got := in.SeqTime(); got != 5 {
		t.Fatalf("SeqTime = %g, want 5", got)
	}
	// Min costs: all on P1 (speed 2): 1, 1.5, 0.5, 2. CP = 0->1->3 = 4.5.
	if got := in.CPMin(); !almostEqual(got, 4.5) {
		t.Fatalf("CPMin = %g, want 4.5", got)
	}
}
