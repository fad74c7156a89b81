package suite

import (
	"math"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

// forceConcurrentTrials makes the transactional schedulers evaluate their
// per-processor trials on a real worker group even on the small battery
// instances (and on single-CPU machines), so the differential runs under
// -race exercise the concurrent path, then restores the defaults.
func forceConcurrentTrials(t *testing.T) {
	t.Helper()
	oldW, oldT := algo.ForceTrialWorkers, algo.ParallelTrialThreshold
	algo.ForceTrialWorkers, algo.ParallelTrialThreshold = 4, 0
	t.Cleanup(func() {
		algo.ForceTrialWorkers, algo.ParallelTrialThreshold = oldW, oldT
	})
}

// TestDifferentialDuplicationFamily proves the transactional trial layer
// reproduces the retained clone-based reference implementations bit for
// bit: identical schedule digests (same copies at the same float64 times)
// for ILS and all its ablation variants, DSH and BTDH, across the random
// battery and the golden instance set.
func TestDifferentialDuplicationFamily(t *testing.T) {
	forceConcurrentTrials(t)

	type pair struct {
		name string
		txn  func(in *sched.Instance) (*sched.Schedule, error)
		ref  func(in *sched.Instance) *sched.Schedule
	}
	pairs := []pair{
		{"ILS", core.New().Schedule, func(in *sched.Instance) *sched.Schedule {
			return testfix.RefILS(in, "ILS", testfix.RefILSOptions{SigmaRank: true, Lookahead: true, Duplication: true})
		}},
		{"ILS-L", core.NoDuplication().Schedule, func(in *sched.Instance) *sched.Schedule {
			return testfix.RefILS(in, "ILS-L", testfix.RefILSOptions{SigmaRank: true, Lookahead: true})
		}},
		{"ILS-D", core.NoLookahead().Schedule, func(in *sched.Instance) *sched.Schedule {
			return testfix.RefILS(in, "ILS-D", testfix.RefILSOptions{SigmaRank: true, Duplication: true})
		}},
		{"ILS-R", core.RankOnly().Schedule, func(in *sched.Instance) *sched.Schedule {
			return testfix.RefILS(in, "ILS-R", testfix.RefILSOptions{SigmaRank: true})
		}},
		{"DSH", listsched.DSH{}.Schedule, testfix.RefDSH},
		{"BTDH", listsched.BTDH{}.Schedule, testfix.RefBTDH},
	}

	check := func(t *testing.T, name string, in *sched.Instance, p pair) {
		t.Helper()
		got, err := p.txn(in)
		if err != nil {
			t.Fatalf("%s on %s: %v", p.name, name, err)
		}
		want := p.ref(in)
		if g, w := testfix.ScheduleDigest(got), testfix.ScheduleDigest(want); g != w {
			t.Errorf("%s on %s: transactional schedule diverges from clone-based reference\n got makespan %.9g digest %s\nwant makespan %.9g digest %s",
				p.name, name, got.Makespan(), g, want.Makespan(), w)
		}
	}

	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			for _, ni := range testfix.GoldenInstances() {
				check(t, ni.Name, ni.In, p)
			}
			testfix.Battery(testfix.BatteryConfig{Trials: 25, Seed: 9100}, func(trial int, in *sched.Instance) {
				check(t, "battery", in, p)
			})
		})
	}
}

// TestDifferentialTryDuplication compares single duplication trials on
// partial plans: the transactional TryDuplication must report the same
// start/finish/duplicate count as the clone-based reference for every
// (task, processor) pair reached while replaying a reference DSH run, and
// must leave the base plan untouched after rollback.
func TestDifferentialTryDuplication(t *testing.T) {
	forceConcurrentTrials(t)

	testfix.Battery(testfix.BatteryConfig{Trials: 15, MaxTasks: 30, Seed: 9200}, func(trial int, in *sched.Instance) {
		sl := sched.StaticLevel(in)
		pl := sched.NewPlan(in)
		rl := algo.NewReadyList(in.G)
		for !rl.Empty() {
			pick := dag.TaskID(-1)
			for _, r := range rl.Ready() {
				if pick == -1 || sl[r] > sl[pick] {
					pick = r
				}
			}
			for p := 0; p < in.P(); p++ {
				ref := testfix.RefTryDuplication(pl, pick, p, 64)
				before := testfix.PlanFingerprint(pl)

				tx := pl.Begin()
				res := algo.TryDuplication(tx, pick, p, 64)
				if res.Start != ref.Start || res.Finish != ref.Finish || res.Dups != ref.Dups {
					t.Fatalf("trial %d task %d proc %d: txn (start=%.9g finish=%.9g dups=%d) != ref (start=%.9g finish=%.9g dups=%d)",
						trial, pick, p, res.Start, res.Finish, res.Dups, ref.Start, ref.Finish, ref.Dups)
				}
				// The transactional view must expose the same processor
				// timeline the reference trial plan holds.
				gotProc := append([]sched.Assignment(nil), tx.OnProc(p)...)
				wantProc := ref.Plan.OnProc(p)
				if len(gotProc) != len(wantProc) {
					t.Fatalf("trial %d task %d proc %d: txn timeline %v != ref %v", trial, pick, p, gotProc, wantProc)
				}
				for k := range gotProc {
					if gotProc[k] != wantProc[k] {
						t.Fatalf("trial %d task %d proc %d slot %d: %v != %v", trial, pick, p, k, gotProc[k], wantProc[k])
					}
				}
				tx.Rollback()
				if after := testfix.PlanFingerprint(pl); after != before {
					t.Fatalf("trial %d task %d proc %d: rolled-back trial mutated the base plan", trial, pick, p)
				}
			}
			// Advance the partial plan exactly like the reference driver.
			bestFinish := math.Inf(1)
			var best testfix.RefDupResult
			bestProc := -1
			for p := 0; p < in.P(); p++ {
				res := testfix.RefTryDuplication(pl, pick, p, 64)
				if res.Finish < bestFinish {
					bestFinish, best, bestProc = res.Finish, res, p
				}
			}
			pl = best.Plan
			pl.Place(pick, bestProc, best.Start)
			rl.Complete(pick)
		}
	})
}
