package suite_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/exact"
	"dagsched/internal/algo/suite"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// instanceOf builds a heterogeneous instance over a structured graph with
// a fixed seed.
func instanceOf(t *testing.T, g *dag.Graph, err error, procs int, seed int64) *sched.Instance {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: procs, CCR: 1, Beta: 0.75}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// cpBound is the critical-path bound: the longest path at each task's
// cheapest cost, with free communication. It is summed forward, as a
// schedule's finish times are: a copy starts no earlier than a finish
// of each predecessor and finishes at its start plus a cost no smaller
// than the cheapest, and float addition is monotone, so no makespan is
// below it, bit for bit.
func cpBound(in *sched.Instance) float64 {
	finish := make([]float64, in.N())
	cp := 0.0
	for _, v := range in.G.TopoOrder() {
		ready := 0.0
		for _, a := range in.G.Pred(v) {
			ready = max(ready, finish[a.To])
		}
		c, _ := in.MinCost(v)
		finish[v] = ready + c
		cp = max(cp, finish[v])
	}
	return cp
}

// workSlack is the relative slack of the work bound. The bound sums the
// cheapest costs in task order and a makespan sums costs in schedule
// order; on one processor they are the same costs, and a different
// summation order moves the sum by a few ulps (n terms round by at most
// n·2⁻⁵³ relative), so the bound holds only up to that. 1e-12 covers
// any instance of these batteries.
const workSlack = 1e-12

// checkBounds holds s, a schedule of in, to the two bounds no schedule
// can beat: the critical-path bound, exactly, and the cheapest total
// work over the processor count, up to workSlack (primaries run
// disjointly on P processors within the makespan).
func checkBounds(t *testing.T, name, label string, in *sched.Instance, s *sched.Schedule) {
	t.Helper()
	if cp := cpBound(in); s.Makespan() < cp {
		t.Errorf("%s on %s: makespan %v below the critical-path bound %v", name, label, s.Makespan(), cp)
	}
	work := 0.0
	for i := 0; i < in.N(); i++ {
		c, _ := in.MinCost(dag.TaskID(i))
		work += c
	}
	if w := work / float64(in.P()); s.Makespan() < w*(1-workSlack) {
		t.Errorf("%s on %s: makespan %v below the work bound %v", name, label, s.Makespan(), w)
	}
}

// checkOneProcessor schedules in's graph on one processor, each task
// costing its processor-0 cost rounded up to an integer, with link
// latency 0, 1 or 2 by the task count. On one processor every input is
// local, so no task waits for data and a schedule leaves no idle time:
// the makespan is the sum of the costs, exactly, since integer sums are
// exact in any order.
func checkOneProcessor(t *testing.T, a algo.Algorithm, label string, in *sched.Instance) {
	t.Helper()
	w := make([][]float64, in.N())
	total := 0.0
	for i := range w {
		w[i] = []float64{math.Ceil(in.W[i][0])}
		total += w[i][0]
	}
	one, err := sched.NewInstance(in.G, platform.Homogeneous(1, float64(in.N()%3), 1), w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Schedule(one)
	if err != nil {
		t.Fatalf("%s on %s, one processor: %v", a.Name(), label, err)
	}
	if s.Makespan() != total {
		t.Errorf("%s on %s, one processor: makespan %v, sum of costs %v", a.Name(), label, s.Makespan(), total)
	}
}

// TestBatteryAllAlgorithmsValidate runs every registry algorithm, the
// search schedulers included, over random, fork-join and tiled
// workloads and requires every schedule to pass the full
// Schedule.Validate checks (one primary copy per task, disjoint
// processor slots, data-arrival feasibility) and the oracles: the
// critical-path and work bounds, and the sum of costs on one processor.
func TestBatteryAllAlgorithmsValidate(t *testing.T) {
	check := func(t *testing.T, label string, in *sched.Instance) {
		t.Helper()
		for _, a := range append(suite.All(), suite.Search()...) {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), label, err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s on %s: invalid schedule: %v", a.Name(), label, err)
			}
			checkBounds(t, a.Name(), label, in, s)
			checkOneProcessor(t, a, label, in)
		}
	}

	t.Run("random", func(t *testing.T) {
		testfix.Battery(testfix.BatteryConfig{Trials: 12, MaxTasks: 40, Seed: 7001}, func(trial int, in *sched.Instance) {
			check(t, fmt.Sprintf("random-trial%d", trial), in)
		})
	})

	t.Run("forkjoin", func(t *testing.T) {
		for i, cfg := range []struct{ branches, stages int }{{2, 1}, {5, 2}, {8, 3}} {
			g, err := workload.ForkJoin(cfg.branches, cfg.stages)
			in := instanceOf(t, g, err, 4, 7100+int64(i))
			check(t, fmt.Sprintf("forkjoin-%dx%d", cfg.branches, cfg.stages), in)
		}
	})

	// A zero-cost task placed at the start of a longer one must sort
	// before it, or the processor's latest finish reads as the zero
	// task's: on one processor, R(10)→X(5) and R→Z(0)→Y(1) put Z at 10,
	// beside X's [10, 15), and Y must still wait for 15.
	t.Run("zero-cost", func(t *testing.T) {
		b := dag.NewBuilder("zero-cost")
		r, x, z, y := b.AddTask("R", 10), b.AddTask("X", 5), b.AddTask("Z", 0), b.AddTask("Y", 1)
		b.AddEdge(r, x, 1)
		b.AddEdge(r, z, 1)
		b.AddEdge(z, y, 1)
		check(t, "zero-cost", sched.Consistent(b.MustBuild(), platform.Homogeneous(1, 0, 1)))
	})

	t.Run("tiled", func(t *testing.T) {
		for i, c := range []struct {
			name string
			mk   func() (*dag.Graph, error)
		}{
			{"cholesky-t4", func() (*dag.Graph, error) { return workload.Cholesky(4) }},
			{"lu-t4", func() (*dag.Graph, error) { return workload.LU(4) }},
		} {
			g, err := c.mk()
			in := instanceOf(t, g, err, 4, 7200+int64(i))
			check(t, c.name, in)
		}
	})
}

// TestBatteryNeverBeatsOptimal proves every registry heuristic respects
// the exact branch-and-bound lower bound on small instances: a
// non-duplicating schedule can never finish before the proven optimum
// (duplication CAN legitimately beat the duplication-free optimum, so
// schedules that duplicated are exempt, matching the exact-package
// convention).
func TestBatteryNeverBeatsOptimal(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 15, MaxTasks: 10, MaxProcs: 3, Seed: 7300}, func(trial int, in *sched.Instance) {
		opt, proven, err := exact.BnB{}.Makespan(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !proven {
			t.Fatalf("trial %d: exact search budget exhausted on a %d-task instance", trial, in.N())
		}
		for _, a := range suite.All() {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if s.NumDuplicates() == 0 && s.Makespan() < opt-1e-6 {
				t.Errorf("trial %d: %s makespan %g beats proven optimum %g", trial, a.Name(), s.Makespan(), opt)
			}
		}
	})
}
