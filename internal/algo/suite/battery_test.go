package suite_test

import (
	"fmt"
	"math/rand"
	"testing"

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

// TestBatteryAllAlgorithmsValidate runs every registry algorithm over
// random, fork-join and tiled workloads and requires every schedule to
// pass the full Schedule.Validate checks (one primary copy per task,
// disjoint processor slots, data-arrival feasibility).
func TestBatteryAllAlgorithmsValidate(t *testing.T) {
	check := func(t *testing.T, label string, in *sched.Instance) {
		t.Helper()
		for _, a := range suite.All() {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), label, err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s on %s: invalid schedule: %v", a.Name(), label, err)
			}
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
