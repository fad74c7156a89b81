package listsched

import (
	"math"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func all() []algo.Algorithm {
	return []algo.Algorithm{HEFT{}, CPOP{}, DLS{}, MCP{}, ETF{}, HLFET{}, ISH{}, PETS{}, HCPT{}, LMT{}, DSH{}, BTDH{}}
}

func TestNames(t *testing.T) {
	want := []string{"HEFT", "CPOP", "DLS", "MCP", "ETF", "HLFET", "ISH", "PETS", "HCPT", "LMT", "DSH", "BTDH"}
	for i, a := range all() {
		if a.Name() != want[i] {
			t.Fatalf("Name = %q, want %q", a.Name(), want[i])
		}
	}
}

// TestTopcuogluRanks pins the implementation to the published upward
// ranks of the HEFT paper's Figure 1 example.
func TestTopcuogluRanks(t *testing.T) {
	in := testfix.Topcuoglu()
	r := sched.RankUpward(in)
	want := []float64{108, 77, 80, 80, 69, 63.333, 42.667, 35.667, 44.333, 14.667}
	for i, w := range want {
		if math.Abs(r[i]-w) > 0.01 {
			t.Fatalf("rank_u(n%d) = %.3f, want %.3f", i+1, r[i], w)
		}
	}
}

// TestHEFTTopcuoglu reproduces the published HEFT makespan of 80 on the
// paper's own example.
func TestHEFTTopcuoglu(t *testing.T) {
	in := testfix.Topcuoglu()
	s, err := HEFT{}.Schedule(in)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if math.Abs(s.Makespan()-80) > 1e-9 {
		t.Fatalf("HEFT makespan = %g, want 80", s.Makespan())
	}
}

// TestCPOPTopcuoglu reproduces the published CPOP makespan of 86.
func TestCPOPTopcuoglu(t *testing.T) {
	in := testfix.Topcuoglu()
	s, err := CPOP{}.Schedule(in)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if math.Abs(s.Makespan()-86) > 1e-9 {
		t.Fatalf("CPOP makespan = %g, want 86", s.Makespan())
	}
}

// Every algorithm on every battery instance: schedules validate, respect
// the critical-path lower bound and never exceed the serial upper bound.
func TestAllValidOnBattery(t *testing.T) {
	algs := all()
	testfix.Battery(testfix.BatteryConfig{Trials: 40, Seed: 101}, func(trial int, in *sched.Instance) {
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if s.Makespan() < in.CPMin()-1e-6 {
				t.Fatalf("trial %d %s: makespan %g below CP bound %g", trial, a.Name(), s.Makespan(), in.CPMin())
			}
		}
	})
}

// On application graphs too.
func TestAllValidOnAppGraphs(t *testing.T) {
	for _, in := range testfix.AppGraphs(4, 55) {
		for _, a := range all() {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), in.G.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), in.G.Name(), err)
			}
		}
	}
}

// Single processor: every list scheduler degenerates to serial execution
// of all tasks with zero communication.
func TestSingleProcessorSerial(t *testing.T) {
	in := testfix.Topcuoglu()
	// Rebuild on one processor.
	sys1 := platform.Homogeneous(1, 0, 1)
	w := make([][]float64, in.N())
	var total float64
	for i := range w {
		w[i] = []float64{in.W[i][0]}
		total += in.W[i][0]
	}
	in1, err := sched.NewInstance(in.G, sys1, w)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	for _, a := range all() {
		s, err := a.Schedule(in1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if math.Abs(s.Makespan()-total) > 1e-6 {
			t.Fatalf("%s single-proc makespan = %g, want %g", a.Name(), s.Makespan(), total)
		}
	}
}

// Independent tasks (no edges): makespan must not exceed a list-scheduling
// bound and all processors must be used when tasks outnumber them.
func TestIndependentTasks(t *testing.T) {
	b := dag.NewBuilder("indep")
	for i := 0; i < 12; i++ {
		b.AddTask("", 4)
	}
	g := b.MustBuild()
	in := sched.Consistent(g, platform.Homogeneous(4, 0, 1))
	for _, a := range all() {
		s, err := a.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		// Perfect balance is achievable: 12 unit-cost-4 tasks on 4 procs.
		if s.Makespan() != 12 {
			t.Fatalf("%s makespan = %g, want 12", a.Name(), s.Makespan())
		}
	}
}

// A chain must be scheduled back-to-back on one processor by every
// algorithm (any migration only adds communication).
func TestChainStaysPut(t *testing.T) {
	b := dag.NewBuilder("chain")
	var prev dag.TaskID = -1
	for i := 0; i < 6; i++ {
		id := b.AddTask("", 3)
		if prev >= 0 {
			b.AddEdge(prev, id, 10)
		}
		prev = id
	}
	g := b.MustBuild()
	in := sched.Consistent(g, platform.Homogeneous(3, 1, 1))
	for _, a := range all() {
		s, err := a.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if s.Makespan() != 18 {
			t.Fatalf("%s chain makespan = %g, want 18", a.Name(), s.Makespan())
		}
	}
}

// HEFT's insertion policy must strictly help on a crafted instance where
// a low-priority task fits into the communication hole in front of a
// high-priority task.
func TestHEFTUsesInsertion(t *testing.T) {
	// A runs on P1, its child B runs on P0 and must wait for the data
	// (arrival 6), leaving the hole [0,6) on P0. The low-rank independent
	// task E (duration 4 on P0) fits the hole exactly.
	b := dag.NewBuilder("holes")
	a := b.AddTask("A", 1)
	bb := b.AddTask("B", 1)
	e := b.AddTask("E", 1)
	b.AddEdge(a, bb, 5)
	g := b.MustBuild()
	w := [][]float64{
		{1000, 1}, // A: only sensible on P1
		{1, 1000}, // B: only sensible on P0
		{4, 6},    // E: low rank, fits the hole on P0
	}
	in, err := sched.NewInstance(g, platform.Homogeneous(2, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := HEFT{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// With insertion: A on P1 [0,1), B on P0 [6,7), E inside the hole
	// [0,4) — makespan 7. Without insertion E would append at 7 for 11.
	if s.Makespan() != 7 {
		t.Fatalf("makespan = %g, want 7 (insertion into the hole)", s.Makespan())
	}
	prim := s.Primary(e)
	if prim.Proc != 0 || prim.Start != 0 {
		t.Fatalf("E placed at P%d t=%g, want inside the hole on P0 at 0", prim.Proc, prim.Start)
	}
}

// Determinism: every algorithm yields the identical makespan when run
// twice on the same instance.
func TestDeterminism(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 10, Seed: 77}, func(trial int, in *sched.Instance) {
		for _, a := range all() {
			s1, err1 := a.Schedule(in)
			s2, err2 := a.Schedule(in)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: %v %v", a.Name(), err1, err2)
			}
			if s1.Makespan() != s2.Makespan() {
				t.Fatalf("%s not deterministic: %g vs %g", a.Name(), s1.Makespan(), s2.Makespan())
			}
		}
	})
}

// ISH never does worse than HLFET by more than the hole-filling can
// explain... in fact ISH == HLFET when no holes exist (chain graphs).
func TestISHEqualsHLFETOnChains(t *testing.T) {
	b := dag.NewBuilder("chain")
	var prev dag.TaskID = -1
	for i := 0; i < 8; i++ {
		id := b.AddTask("", 2)
		if prev >= 0 {
			b.AddEdge(prev, id, 1)
		}
		prev = id
	}
	in := sched.Consistent(b.MustBuild(), platform.Homogeneous(2, 0, 1))
	s1, _ := HLFET{}.Schedule(in)
	s2, _ := ISH{}.Schedule(in)
	if s1.Makespan() != s2.Makespan() {
		t.Fatalf("HLFET %g vs ISH %g on a chain", s1.Makespan(), s2.Makespan())
	}
}
