package listsched

// Algorithm-specific behaviour tests: each classic heuristic has a
// defining decision rule; these tests pin that rule on crafted instances
// where the rule produces a distinctive, hand-checkable placement.

import (
	"math"
	"reflect"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

// TestCPOPPinsCriticalPath: every critical-path task must land on the
// single processor minimizing the CP's total execution cost.
func TestCPOPPinsCriticalPath(t *testing.T) {
	in := testfix.Topcuoglu()
	path, _ := sched.CriticalPathMean(in)
	if len(path) < 2 {
		t.Fatal("degenerate critical path")
	}
	// Determine the CP processor independently.
	best, bestCost := -1, math.Inf(1)
	for p := 0; p < in.P(); p++ {
		var sum float64
		for _, v := range path {
			sum += in.Cost(v, p)
		}
		if sum < bestCost {
			best, bestCost = p, sum
		}
	}
	s, err := CPOP{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range path {
		if got := s.Primary(v).Proc; got != best {
			t.Fatalf("CP task %d on P%d, want P%d", v, got, best)
		}
	}
}

// TestDLSPrefersFastProcessor: with one dramatically faster processor and
// independent equal tasks, DLS's Δ term must pull the first placements
// there.
func TestDLSPrefersFastProcessor(t *testing.T) {
	b := dag.NewBuilder("indep")
	for i := 0; i < 3; i++ {
		b.AddTask("", 10)
	}
	g := b.MustBuild()
	w := [][]float64{
		{2, 10, 10},
		{2, 10, 10},
		{2, 10, 10},
	}
	in, err := sched.NewInstance(g, platform.Homogeneous(3, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DLS{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// P0 runs everything serially in 6 < any remote 10.
	for i := 0; i < 3; i++ {
		if got := s.Primary(dag.TaskID(i)).Proc; got != 0 {
			t.Fatalf("task %d on P%d, want P0", i, got)
		}
	}
	if s.Makespan() != 6 {
		t.Fatalf("makespan = %g, want 6", s.Makespan())
	}
}

// TestMCPFollowsALAPOrder: with a forced single processor, MCP's start
// order must ascend by ALAP.
func TestMCPFollowsALAPOrder(t *testing.T) {
	in := testfix.Topcuoglu()
	w := make([][]float64, in.N())
	for i := range w {
		w[i] = []float64{in.W[i][0]}
	}
	one, err := sched.NewInstance(in.G, platform.Homogeneous(1, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	alap := sched.ALAPStart(one)
	s, err := MCP{}.Schedule(one)
	if err != nil {
		t.Fatal(err)
	}
	seq := s.OnProc(0)
	for i := 1; i < len(seq); i++ {
		a, b := seq[i-1].Task, seq[i].Task
		// Order must not violate ALAP unless precedence forces it; on a
		// single processor MCP's list IS the start order, so ALAP must be
		// non-decreasing except where a successor's ALAP ties.
		if alap[a] > alap[b]+1e-9 && !one.G.IsReachable(a, b) {
			t.Fatalf("start order violates ALAP: task %d (%.2f) before %d (%.2f)", a, alap[a], b, alap[b])
		}
	}
}

// TestETFPicksGloballyEarliestStart: two ready tasks, one of which can
// start strictly earlier; ETF must schedule that one first even though
// the other has higher static level.
func TestETFPicksGloballyEarliestStart(t *testing.T) {
	b := dag.NewBuilder("etf")
	root := b.AddTask("root", 1)
	slow := b.AddTask("slow", 10) // higher SL
	fast := b.AddTask("fast", 1)
	b.AddEdge(root, slow, 50) // data arrives late
	b.AddEdge(root, fast, 0)  // data arrives immediately
	g := b.MustBuild()
	// Two processors; root on either. After root (finish 1): fast can
	// start at 1 anywhere; slow must wait for 51 remotely or 1 locally.
	in := sched.Consistent(g, platform.Homogeneous(2, 0, 1))
	s, err := ETF{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	rootProc := s.Primary(root).Proc
	slowA := s.Primary(slow)
	// ETF places slow right after root on the same processor (start 1
	// there beats 51 remotely); fast goes wherever it starts earliest.
	if slowA.Proc != rootProc {
		t.Fatalf("slow on P%d, root on P%d — remote start would be 51", slowA.Proc, rootProc)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHLFETOrder: on a single processor every placement appends, so the
// start order is the consumption order. For HLFET and the other
// ready-order baselines it must be the ready list's: the ready task of
// highest priority, ties to the lower id. The second input ties every
// priority and its Kahn order lists task 3 before task 2, so a
// topological tie-break would start task 3 first.
func TestHLFETOrder(t *testing.T) {
	in := testfix.Topcuoglu()
	w := make([][]float64, in.N())
	for i := range w {
		w[i] = []float64{in.W[i][0]}
	}
	one, err := sched.NewInstance(in.G, platform.Homogeneous(1, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	b := dag.NewBuilder("ties")
	for i := 0; i < 4; i++ {
		b.AddTask("", 1)
	}
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 2, 1)
	ties := sched.Consistent(b.MustBuild(), platform.Homogeneous(1, 0, 1))
	if topo := ties.G.TopoOrder(); !reflect.DeepEqual(topo, []dag.TaskID{0, 1, 3, 2}) {
		t.Fatalf("Kahn order %v, want [0 1 3 2]: the tie input tests nothing", topo)
	}
	for _, in := range []*sched.Instance{one, ties} {
		for _, name := range []string{"HLFET", "CPOP", "DSH", "BTDH"} {
			pm := baseline(name)
			s, err := pm.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			prio := pm.PriorityVector(in)
			rl := algo.NewReadyList(in.G)
			for i, a := range s.OnProc(0) {
				pick := rl.Ready()[0]
				for _, r := range rl.Ready() {
					if prio[r] > prio[pick] {
						pick = r
					}
				}
				if a.Task != pick {
					t.Errorf("%s on %s starts task %d at position %d; the ready list picks task %d",
						name, in.G.Name(), a.Task, i, pick)
					break
				}
				rl.Complete(pick)
			}
		}
	}
}

// TestPETSLevelDiscipline: PETS schedules strictly level by level — no
// task may start being considered before all previous-level tasks are
// placed. Observable consequence on one processor: start order groups by
// level.
func TestPETSLevelDiscipline(t *testing.T) {
	in := testfix.Topcuoglu()
	w := make([][]float64, in.N())
	for i := range w {
		w[i] = []float64{in.W[i][0]}
	}
	one, err := sched.NewInstance(in.G, platform.Homogeneous(1, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	levels := one.G.Levels()
	s, err := PETS{}.Schedule(one)
	if err != nil {
		t.Fatal(err)
	}
	seq := s.OnProc(0)
	for i := 1; i < len(seq); i++ {
		if levels[seq[i-1].Task] > levels[seq[i].Task] {
			t.Fatalf("level order violated: L%d before L%d", levels[seq[i-1].Task], levels[seq[i].Task])
		}
	}
}

// TestHCPTListsCriticalAncestorsFirst: the first task listed by HCPT is
// necessarily an entry task on the critical path (it has no parents and
// minimal ALST).
func TestHCPTListsCriticalAncestorsFirst(t *testing.T) {
	in := testfix.Topcuoglu()
	s, err := HCPT{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Task 0 (n1) is the unique entry and trivially critical: it must
	// start at time 0 on its processor.
	if got := s.Primary(0).Start; got != 0 {
		t.Fatalf("entry starts at %g", got)
	}
}

// TestLMTAssignsWithinLevelByCost: in one level of independent tasks on
// enough processors, the most expensive tasks grab the fastest
// processors.
func TestLMTAssignsWithinLevelByCost(t *testing.T) {
	b := dag.NewBuilder("lvl")
	b.AddTask("big", 10)
	b.AddTask("small", 1)
	g := b.MustBuild()
	w := [][]float64{
		{5, 10}, // big: P0 fast
		{1, 2},  // small: P0 fast too
	}
	in, err := sched.NewInstance(g, platform.Homogeneous(2, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := LMT{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// big is considered first (higher mean cost) and takes P0 (finish 5
	// vs 10); small then finishes earlier on P1 (2) than queued on P0 (6).
	if s.Primary(0).Proc != 0 {
		t.Fatalf("big on P%d, want P0", s.Primary(0).Proc)
	}
	if s.Primary(1).Proc != 1 {
		t.Fatalf("small on P%d, want P1", s.Primary(1).Proc)
	}
	if s.Makespan() != 5 {
		t.Fatalf("makespan = %g, want 5", s.Makespan())
	}
}
