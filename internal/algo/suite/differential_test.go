package suite

import (
	"fmt"
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

// TestDifferentialDuplicationFamily proves the trial journal reproduces
// the retained clone-based reference implementations bit for bit:
// identical schedule digests (same copies at the same float64 times) for
// ILS and all its ablation variants, DSH and BTDH, across the random
// battery, the golden instance set, and the battery again under the
// one-port and shared-link contention models.
func TestDifferentialDuplicationFamily(t *testing.T) {
	type pair struct {
		name string
		run  func(in *sched.Instance) (*sched.Schedule, error)
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
		got, err := p.run(in)
		if err != nil {
			t.Fatalf("%s on %s: %v", p.name, name, err)
		}
		want := p.ref(in)
		if g, w := testfix.ScheduleDigest(got), testfix.ScheduleDigest(want); g != w {
			t.Errorf("%s on %s: journaled schedule diverges from clone-based reference\n got makespan %.9g digest %s\nwant makespan %.9g digest %s",
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
			// Under a contended model every trial placement reserves
			// transfers, so the rewound trials must restore the
			// reservation state as exactly as the timelines.
			for _, kind := range []string{platform.KindOnePort, platform.KindSharedLink} {
				testfix.Battery(testfix.BatteryConfig{Trials: 20, MaxCCR: 8, Seed: 9150}, func(trial int, in *sched.Instance) {
					m, err := platform.ModelByKind(kind, in.Sys)
					if err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("%s battery %d", kind, trial), in.WithComm(m), p)
				})
			}
		})
	}
}

// TestDifferentialTryDuplication compares single duplication trials on
// partial plans: the journaled TryDuplication must report the same
// start/finish/duplicate count as the clone-based reference for every
// (task, processor) pair reached while replaying a reference DSH run, and
// Undo must restore the plan exactly.
func TestDifferentialTryDuplication(t *testing.T) {
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

				m := pl.Mark()
				res := algo.TryDuplication(pl, pick, p, 64)
				if res.Start != ref.Start || res.Finish != ref.Finish || res.Dups != ref.Dups {
					t.Fatalf("trial %d task %d proc %d: journal (start=%.9g finish=%.9g dups=%d) != ref (start=%.9g finish=%.9g dups=%d)",
						trial, pick, p, res.Start, res.Finish, res.Dups, ref.Start, ref.Finish, ref.Dups)
				}
				// Mid-trial the plan must hold exactly the reference
				// trial plan.
				if got, want := testfix.PlanFingerprint(pl), testfix.PlanFingerprint(ref.Plan); got != want {
					t.Fatalf("trial %d task %d proc %d: trial plan\n%s\n!= ref\n%s", trial, pick, p, got, want)
				}
				pl.Undo(m)
				pl.Commit()
				if after := testfix.PlanFingerprint(pl); after != before {
					t.Fatalf("trial %d task %d proc %d: undone trial changed the plan", trial, pick, p)
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
