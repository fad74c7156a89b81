package repair

import (
	"math/rand"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func TestRepairValidation(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT{}.Schedule(in)
	if _, err := Repair(s, Failure{Proc: -1, Time: 10}); err == nil {
		t.Fatal("negative proc accepted")
	}
	if _, err := Repair(s, Failure{Proc: 9, Time: 10}); err == nil {
		t.Fatal("out-of-range proc accepted")
	}
	if _, err := Repair(s, Failure{Proc: 0, Time: -1}); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestRepairSingleProcRefused(t *testing.T) {
	b := dag.NewBuilder("one")
	b.AddTask("", 1)
	g := b.MustBuild()
	in, err := sched.NewInstance(g, platform.Homogeneous(1, 0, 1), [][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := listsched.HEFT{}.Schedule(in)
	if _, err := Repair(s, Failure{Proc: 0, Time: 0}); err == nil {
		t.Fatal("single-processor repair accepted")
	}
}

func TestRepairAtTimeZeroAvoidsProcEntirely(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT{}.Schedule(in)
	r, err := Repair(s, Failure{Proc: s.Primary(0).Proc, Time: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	failed := s.Primary(0).Proc
	for _, a := range r.All() {
		if a.Proc == failed {
			t.Fatalf("task %d still on failed P%d", a.Task, a.Proc)
		}
	}
	if r.Makespan() < s.Makespan() {
		t.Fatalf("losing a processor improved the makespan: %g < %g", r.Makespan(), s.Makespan())
	}
}

func TestRepairLateFailureKeepsEverything(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT{}.Schedule(in)
	// Failure after the makespan: nothing is lost, nothing moves.
	r, imp, err := Assess(s, Failure{Proc: 1, Time: s.Makespan() + 1})
	if err != nil {
		t.Fatal(err)
	}
	if imp.Lost != 0 || imp.Moved != 0 {
		t.Fatalf("late failure lost %d moved %d", imp.Lost, imp.Moved)
	}
	if r.Makespan() != s.Makespan() {
		t.Fatalf("late failure changed makespan: %g vs %g", r.Makespan(), s.Makespan())
	}
}

func TestRepairMidExecution(t *testing.T) {
	in := testfix.Topcuoglu()
	s, _ := listsched.HEFT{}.Schedule(in)
	// HEFT places work on all three processors; kill P2 (the CP proc
	// carries most tasks; choose a proc with mid-schedule work).
	fail := Failure{Proc: 0, Time: s.Makespan() / 2}
	r, imp, err := Assess(s, fail)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// Copies finished before the failure survive in place.
	for _, a := range s.OnProc(fail.Proc) {
		if a.Finish <= fail.Time && !a.Dup {
			got := r.Primary(a.Task)
			if got.Proc != a.Proc || got.Start != a.Start {
				t.Fatalf("finished task %d moved from P%d@%g to P%d@%g",
					a.Task, a.Proc, a.Start, got.Proc, got.Start)
			}
		}
	}
	// No new work on the failed processor after the failure.
	for _, a := range r.OnProc(fail.Proc) {
		if a.Finish > fail.Time+1e-9 {
			t.Fatalf("task %d on failed proc finishes at %g after failure %g", a.Task, a.Finish, fail.Time)
		}
	}
	if imp.Repaired < imp.Original-1e-9 {
		t.Fatal("repair claims to beat the original schedule")
	}
}

// Repair must produce valid schedules across the battery, for plain and
// duplication-based schedules, at several failure times.
func TestRepairPropertyBattery(t *testing.T) {
	algs := []algo.Algorithm{listsched.HEFT{}, listsched.BTDH{}, core.New()}
	rng := rand.New(rand.NewSource(12))
	testfix.Battery(testfix.BatteryConfig{Trials: 15, MaxProcs: 5, Seed: 8001}, func(trial int, in *sched.Instance) {
		if in.P() < 2 {
			return
		}
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0, 0.3, 0.7} {
				f := Failure{Proc: rng.Intn(in.P()), Time: s.Makespan() * frac}
				r, err := Repair(s, f)
				if err != nil {
					t.Fatalf("trial %d %s frac %g: %v", trial, a.Name(), frac, err)
				}
				if err := r.Validate(); err != nil {
					t.Fatalf("trial %d %s frac %g: %v", trial, a.Name(), frac, err)
				}
				for _, c := range r.OnProc(f.Proc) {
					if c.Finish > f.Time+1e-9 {
						t.Fatalf("trial %d: work on failed proc past failure", trial)
					}
				}
			}
		}
	})
}

// TestRepairTransactionalSchedules pins the repair path against the
// transactional duplication schedulers: the schedules DSH/BTDH now build
// through speculative transactions must repair exactly like the
// clone-based reference schedules they replaced — same repaired digest at
// every failure point.
func TestRepairTransactionalSchedules(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 10, MaxProcs: 5, MaxTasks: 40, Seed: 8150}, func(trial int, in *sched.Instance) {
		if in.P() < 2 {
			return
		}
		pairs := []struct {
			name string
			txn  func(in *sched.Instance) (*sched.Schedule, error)
			ref  func(in *sched.Instance) *sched.Schedule
		}{
			{"DSH", listsched.DSH{}.Schedule, testfix.RefDSH},
			{"BTDH", listsched.BTDH{}.Schedule, testfix.RefBTDH},
		}
		for _, p := range pairs {
			got, err := p.txn(in)
			if err != nil {
				t.Fatal(err)
			}
			want := p.ref(in)
			for proc := 0; proc < in.P(); proc++ {
				for _, frac := range []float64{0, 0.5} {
					f := Failure{Proc: proc, Time: got.Makespan() * frac}
					rg, err := Repair(got, f)
					if err != nil {
						t.Fatalf("trial %d %s: %v", trial, p.name, err)
					}
					if err := rg.Validate(); err != nil {
						t.Fatalf("trial %d %s: repaired schedule invalid: %v", trial, p.name, err)
					}
					rw, err := Repair(want, f)
					if err != nil {
						t.Fatalf("trial %d %s ref: %v", trial, p.name, err)
					}
					if g, w := testfix.ScheduleDigest(rg), testfix.ScheduleDigest(rw); g != w {
						t.Fatalf("trial %d %s proc %d frac %g: repair of transactional schedule diverges from reference", trial, p.name, proc, frac)
					}
				}
			}
		}
	})
}
