package sim

import (
	"math"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func TestExactReplayMatchesAnalyticMakespan(t *testing.T) {
	algs := []algo.Algorithm{listsched.HEFT{}, listsched.CPOP{}, listsched.BTDH{}, core.New()}
	testfix.Battery(testfix.BatteryConfig{Trials: 25, Seed: 2001}, func(trial int, in *sched.Instance) {
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			rep, err := Run(s, Config{})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if math.Abs(rep.Makespan-s.Makespan()) > 1e-6 {
				t.Fatalf("trial %d %s: replay %g != analytic %g", trial, a.Name(), rep.Makespan, s.Makespan())
			}
			if math.Abs(rep.Stretch-1) > 1e-9 {
				t.Fatalf("trial %d %s: stretch %g", trial, a.Name(), rep.Stretch)
			}
		}
	})
}

func TestReplayStartsMatchSchedule(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT{}.Schedule(in)
	rep, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < in.N(); i++ {
		p := s.Primary(dag.TaskID(i))
		if math.Abs(rep.Start[i]-p.Start) > 1e-9 || math.Abs(rep.Finish[i]-p.Finish) > 1e-9 {
			t.Fatalf("task %d: replay [%g,%g] vs schedule [%g,%g]", i, rep.Start[i], rep.Finish[i], p.Start, p.Finish)
		}
	}
}

func TestNoiseChangesAndBoundsMakespan(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT{}.Schedule(in)
	rep, err := Run(s, Config{Noise: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan == s.Makespan() {
		t.Fatal("noise had no effect")
	}
	// All durations within ±30%: the makespan cannot inflate beyond the
	// trivial serial bound nor deflate below 70% of the lower bound.
	if rep.Makespan > 1.3*in.SeqTime() {
		t.Fatalf("noisy makespan %g exceeds any sane bound", rep.Makespan)
	}
	if rep.Makespan < 0.7*in.CPMin() {
		t.Fatalf("noisy makespan %g below deflated lower bound", rep.Makespan)
	}
	// Deterministic per seed.
	rep2, _ := Run(s, Config{Noise: 0.3, Seed: 7})
	if rep2.Makespan != rep.Makespan {
		t.Fatal("same seed produced different replay")
	}
	rep3, _ := Run(s, Config{Noise: 0.3, Seed: 8})
	if rep3.Makespan == rep.Makespan {
		t.Fatal("different seeds produced identical replay (suspicious)")
	}
}

func TestUtilizationAndBusyTime(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT{}.Schedule(in)
	rep, err := Run(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var busySum float64
	for p, u := range rep.Utilization {
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("utilization[%d] = %g", p, u)
		}
		busySum += rep.BusyTime[p]
	}
	// Total busy time equals the sum of all copies' durations.
	var want float64
	for _, a := range s.All() {
		want += a.Duration()
	}
	if math.Abs(busySum-want) > 1e-6 {
		t.Fatalf("busy %g, want %g", busySum, want)
	}
}

func TestNoiseValidation(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT{}.Schedule(in)
	if _, err := Run(s, Config{Noise: -0.1}); err == nil {
		t.Fatal("negative noise accepted")
	}
	if _, err := Run(s, Config{Noise: 1}); err == nil {
		t.Fatal("noise 1 accepted")
	}
}

// A zero-cost task whose primary and duplicate share one (proc, start)
// instant used to collide in the actual-finish map, and a consumer on a
// lower-numbered processor starting at the same instant used to replay
// before its source, aborting the run. Both are exercised here.
func TestReplayZeroDurationDuplicates(t *testing.T) {
	b := dag.NewBuilder("zero")
	a := b.AddTask("a", 0)
	c := b.AddTask("b", 1)
	b.AddEdge(a, c, 0)
	g := b.MustBuild()
	sys := platform.Homogeneous(2, 0, 1)
	in, err := sched.NewInstance(g, sys, [][]float64{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	pl := sched.NewPlan(in)
	pl.Place(a, 1, 0)    // zero-duration primary on P1 at t=0
	pl.PlaceDup(a, 1, 0) // duplicate collides on (task, proc, start)
	pl.Place(c, 0, 0)    // consumer on P0 at the same instant
	s := pl.Finalize("manual")
	if err := s.Validate(); err != nil {
		t.Fatalf("fixture schedule invalid: %v", err)
	}
	for _, noise := range []float64{0, 0.4} {
		rep, err := Run(s, Config{Noise: noise, Seed: 3})
		if err != nil {
			t.Fatalf("noise %g: %v", noise, err)
		}
		if rep.Start[c] != 0 {
			t.Fatalf("noise %g: consumer started at %g, want 0", noise, rep.Start[c])
		}
		if noise == 0 && math.Abs(rep.Makespan-s.Makespan()) > 1e-9 {
			t.Fatalf("replay makespan %g != analytic %g", rep.Makespan, s.Makespan())
		}
	}
}

func TestReplayWithDuplicates(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 10, Seed: 2002}, func(trial int, in *sched.Instance) {
		s, err := listsched.BTDH{}.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, noise := range []float64{0, 0.2, 0.5} {
			rep, err := Run(s, Config{Noise: noise, Seed: int64(trial)})
			if err != nil {
				t.Fatalf("trial %d noise %g: %v", trial, noise, err)
			}
			if rep.Makespan <= 0 {
				t.Fatalf("trial %d: makespan %g", trial, rep.Makespan)
			}
		}
	})
}
