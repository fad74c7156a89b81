package listsched

import (
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func TestDupNames(t *testing.T) {
	if (DSH{}).Name() != "DSH" || (BTDH{}).Name() != "BTDH" {
		t.Fatal("bad names")
	}
}

func TestDupValidOnBattery(t *testing.T) {
	algs := []algo.Algorithm{DSH{}, BTDH{}}
	testfix.Battery(testfix.BatteryConfig{Trials: 30, Seed: 202}, func(trial int, in *sched.Instance) {
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if s.Makespan() < in.CPMin()-1e-6 {
				t.Fatalf("trial %d %s: below CP bound", trial, a.Name())
			}
		}
	})
}

func TestDupValidOnAppGraphs(t *testing.T) {
	for _, in := range testfix.AppGraphs(4, 66) {
		for _, a := range []algo.Algorithm{DSH{}, BTDH{}} {
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

// fanOutInstance: one entry broadcasting big data to many children —
// the textbook case where duplication wins.
func fanOutInstance(t *testing.T) *sched.Instance {
	t.Helper()
	b := dag.NewBuilder("fan")
	root := b.AddTask("root", 1)
	for i := 0; i < 6; i++ {
		c := b.AddTask("", 5)
		b.AddEdge(root, c, 20)
	}
	return sched.Consistent(b.MustBuild(), platform.Homogeneous(3, 0, 1))
}

func TestDuplicationBeatsHEFTOnFanOut(t *testing.T) {
	in := fanOutInstance(t)
	heft, _ := HEFT{}.Schedule(in)
	dsh, err := DSH{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := dsh.Validate(); err != nil {
		t.Fatal(err)
	}
	// Without duplication every remote child pays 20 for the broadcast:
	// best non-duplicating makespan is 1 + 20 + 5 = 26 on remote procs or
	// serial 1+6*5 = 31 locally (mixtures ≥ 11). With duplication the root
	// is copied to every processor: makespan 1 + 2*5 = 11.
	if dsh.Makespan() > heft.Makespan() {
		t.Fatalf("DSH %g worse than HEFT %g on fan-out", dsh.Makespan(), heft.Makespan())
	}
	if dsh.Makespan() != 11 {
		t.Fatalf("DSH makespan = %g, want 11 (duplicated root)", dsh.Makespan())
	}
	if dsh.NumDuplicates() != 2 {
		t.Fatalf("NumDuplicates = %d, want 2 (one per extra processor)", dsh.NumDuplicates())
	}
}

func TestBTDHAtLeastAsGoodAsDSHUsually(t *testing.T) {
	// BTDH explores a superset of DSH's duplication space per placement,
	// but greedy interactions mean it is not a universal winner; check a
	// weaker sanity property: on the fan-out instance both reach 11.
	in := fanOutInstance(t)
	dsh, _ := DSH{}.Schedule(in)
	btdh, err := BTDH{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if btdh.Makespan() != dsh.Makespan() {
		t.Fatalf("BTDH %g vs DSH %g on fan-out", btdh.Makespan(), dsh.Makespan())
	}
}

func TestDuplicatesNeverExtendMakespan(t *testing.T) {
	// The makespan is defined over primary copies; validation ensures
	// duplicates never conflict. Additionally, every duplicate must finish
	// by the start of some task on its processor that consumes it — weaker
	// check: duplicates never start after the makespan.
	testfix.Battery(testfix.BatteryConfig{Trials: 15, Seed: 33}, func(trial int, in *sched.Instance) {
		s, err := BTDH{}.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range s.All() {
			if a.Dup && a.Start > s.Makespan() {
				t.Fatalf("trial %d: duplicate of %d starts at %g after makespan %g", trial, a.Task, a.Start, s.Makespan())
			}
		}
	})
}
