package exact

import (
	"errors"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func TestName(t *testing.T) {
	if (BnB{}).Name() != "OPT" {
		t.Fatal("bad name")
	}
}

func TestChainOptimal(t *testing.T) {
	b := dag.NewBuilder("chain")
	var prev dag.TaskID = -1
	for i := 0; i < 4; i++ {
		id := b.AddTask("", 2)
		if prev >= 0 {
			b.AddEdge(prev, id, 5)
		}
		prev = id
	}
	in := sched.Consistent(b.MustBuild(), platform.Homogeneous(2, 0, 1))
	s, err := BnB{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 8 {
		t.Fatalf("optimal chain makespan = %g, want 8", s.Makespan())
	}
}

func TestIndependentOptimal(t *testing.T) {
	// 5 unit tasks, 2 processors: optimal = ceil(5/2)*1 = 3.
	b := dag.NewBuilder("indep")
	for i := 0; i < 5; i++ {
		b.AddTask("", 1)
	}
	in := sched.Consistent(b.MustBuild(), platform.Homogeneous(2, 0, 1))
	s, err := BnB{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 3 {
		t.Fatalf("makespan = %g, want 3", s.Makespan())
	}
}

func TestHeterogeneousAssignmentOptimal(t *testing.T) {
	// Two independent tasks, each fast on a different processor.
	b := dag.NewBuilder("het")
	b.AddTask("", 1)
	b.AddTask("", 1)
	w := [][]float64{{1, 10}, {10, 1}}
	in, err := sched.NewInstance(b.MustBuild(), platform.Homogeneous(2, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BnB{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 1 {
		t.Fatalf("makespan = %g, want 1", s.Makespan())
	}
}

func TestCommTradeoffOptimal(t *testing.T) {
	// Diamond where the best schedule keeps everything on one processor:
	// comm is expensive.
	b := dag.NewBuilder("diamond")
	t0 := b.AddTask("", 2)
	t1 := b.AddTask("", 3)
	t2 := b.AddTask("", 1)
	t3 := b.AddTask("", 4)
	b.AddEdge(t0, t1, 100)
	b.AddEdge(t0, t2, 100)
	b.AddEdge(t1, t3, 100)
	b.AddEdge(t2, t3, 100)
	in := sched.Consistent(b.MustBuild(), platform.Homogeneous(3, 0, 1))
	s, err := BnB{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 10 {
		t.Fatalf("makespan = %g, want 10 (serial on one proc)", s.Makespan())
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// A generous instance with an absurdly small budget returns ErrBudget
	// and still produces a valid schedule (the greedy incumbent).
	in := testfix.Topcuoglu()
	s, err := BnB{NodeBudget: 10}.Schedule(in)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ms, proven, err := BnB{NodeBudget: 10}.Makespan(in)
	if err != nil || proven {
		t.Fatalf("Makespan = %g proven=%v err=%v", ms, proven, err)
	}
}

// No heuristic may ever beat the proven optimum.
func TestHeuristicsNeverBeatOptimal(t *testing.T) {
	algs := []algo.Algorithm{
		listsched.HEFT{}, listsched.CPOP{}, listsched.DLS{}, listsched.MCP{},
		listsched.ETF{}, listsched.HLFET{}, listsched.ISH{},
		listsched.DSH{}, listsched.BTDH{},
		core.New(), core.NoDuplication(), core.NoLookahead(), core.RankOnly(),
	}
	testfix.Battery(testfix.BatteryConfig{Trials: 25, MaxTasks: 8, MaxProcs: 3, Seed: 505}, func(trial int, in *sched.Instance) {
		opt, proven, err := BnB{}.Makespan(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !proven {
			t.Fatalf("trial %d: budget exhausted on a tiny instance", trial)
		}
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			// Duplication heuristics CAN beat the duplication-free
			// optimum; the bound applies only to non-duplicating ones.
			if s.NumDuplicates() == 0 && s.Makespan() < opt-1e-6 {
				t.Fatalf("trial %d: %s makespan %g beats optimum %g", trial, a.Name(), s.Makespan(), opt)
			}
		}
	})
}

// The optimum never exceeds any heuristic.
func TestOptimalNeverWorseThanHEFT(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 20, MaxTasks: 8, MaxProcs: 3, Seed: 606}, func(trial int, in *sched.Instance) {
		opt, proven, err := BnB{}.Makespan(in)
		if err != nil || !proven {
			t.Fatalf("trial %d: %v proven=%v", trial, err, proven)
		}
		h, _ := listsched.HEFT{}.Schedule(in)
		if opt > h.Makespan()+1e-6 {
			t.Fatalf("trial %d: optimum %g worse than HEFT %g", trial, opt, h.Makespan())
		}
	})
}

func TestOptimalSchedulesValidate(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 15, MaxTasks: 7, MaxProcs: 3, Seed: 707}, func(trial int, in *sched.Instance) {
		s, err := BnB{}.Schedule(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	})
}

func TestSymmetryDetection(t *testing.T) {
	b := dag.NewBuilder("two")
	b.AddTask("", 1)
	b.AddTask("", 2)
	homo := sched.Consistent(b.MustBuild(), platform.Homogeneous(3, 0, 1))
	if !fullySymmetric(homo) {
		t.Fatal("homogeneous instance not detected as symmetric")
	}
	hetSys := platform.MustNew(platform.Config{Speeds: []float64{1, 2}, TimePerUnit: 1})
	het := sched.Consistent(b.MustBuild(), hetSys)
	if fullySymmetric(het) {
		t.Fatal("heterogeneous instance detected as symmetric")
	}
}
