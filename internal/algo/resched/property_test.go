package resched_test

import (
	"math"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/resched"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
	"dagsched/internal/sim"
	"dagsched/internal/testfix"
)

// TestRepairProperties is the battery-wide contract of the repair
// engine, for every policy and a duplication-heavy algorithm mix:
//
//  1. the repaired schedule is precedence-valid (Validate covers data
//     arrival, overlap and primary uniqueness);
//  2. work that completed or started before the reaction time is never
//     restarted — it reappears at its exact processor and start;
//  3. no copy occupies a crashed processor past its crash instant.
func TestRepairProperties(t *testing.T) {
	const eps = 1e-9
	algs := []algo.Algorithm{listsched.HEFT{}, listsched.BTDH{}, core.New()}
	testfix.Battery(testfix.BatteryConfig{Trials: 30, Seed: 77}, func(trial int, in *sched.Instance) {
		if in.P() < 2 {
			return // a single-processor platform has no survivors to repair onto
		}
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			fp := sim.SampleCrashes(in.P(), 0.6, s.Makespan(), int64(1000+trial))
			events := resched.CrashEvents(&fp)
			if len(events) == 0 {
				continue
			}
			deadAt := make([]float64, in.P())
			for q := range deadAt {
				deadAt[q] = math.Inf(1)
			}
			for _, ev := range events {
				deadAt[ev.Proc] = math.Min(deadAt[ev.Proc], ev.Time)
			}
			for _, pol := range resched.Policies() {
				r, _, err := resched.React(s, &fp, pol)
				if err != nil {
					t.Fatalf("trial %d %s/%s: %v", trial, a.Name(), pol, err)
				}
				if err := r.Validate(); err != nil {
					t.Fatalf("trial %d %s/%s: repaired schedule invalid: %v", trial, a.Name(), pol, err)
				}
				for q := 0; q < in.P(); q++ {
					for _, ra := range r.OnProc(q) {
						if ra.Finish > deadAt[q]+eps {
							t.Fatalf("trial %d %s/%s: task %d on crashed P%d until %g (dead at %g)",
								trial, a.Name(), pol, ra.Task, q, ra.Finish, deadAt[q])
						}
					}
				}
				// Completed work is never restarted: any copy finished
				// before the first event survived every later reaction, so
				// it must appear untouched in the final schedule.
				first := events[0].Time
				for i := 0; i < in.N(); i++ {
					for _, c := range s.Copies(dag.TaskID(i)) {
						if c.Finish > first+eps || c.Finish > deadAt[c.Proc]+eps {
							continue
						}
						found := false
						for _, rc := range r.Copies(dag.TaskID(i)) {
							if rc.Proc == c.Proc && math.Abs(rc.Start-c.Start) < 1e-6 {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("trial %d %s/%s: completed copy of task %d (P%d@%g) restarted or dropped",
								trial, a.Name(), pol, i, c.Proc, c.Start)
						}
					}
				}
			}
		}
	})
}

// TestRepairedScheduleReplays closes the loop: a repaired schedule fed
// back into the simulator under the same surviving-crash plan completes
// every task — the repair genuinely survives the fault it reacted to.
func TestRepairedScheduleReplays(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 15, Seed: 402}, func(trial int, in *sched.Instance) {
		if in.P() < 2 {
			return
		}
		s, err := listsched.HEFT{}.Schedule(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fp := sim.SampleCrashes(in.P(), 0.5, s.Makespan(), int64(9000+trial))
		if len(fp.Crashes) == 0 {
			return
		}
		r, _, err := resched.React(s, &fp, resched.Default())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep, err := sim.Run(r, sim.Config{Faults: &fp})
		if err != nil {
			t.Fatalf("trial %d: replaying repaired schedule: %v", trial, err)
		}
		if len(rep.Faults.Stranded) != 0 {
			t.Fatalf("trial %d: repaired schedule still strands %v under its own fault plan", trial, rep.Faults.Stranded)
		}
	})
}
