package suite

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// TestDifferentialDuplicationFamily proves the trial journal reproduces
// the retained clone-based reference implementations bit for bit:
// identical schedule digests (same copies at the same float64 times) for
// ILS and all its ablation variants, DSH and BTDH, across the random
// battery, the golden instance set, three homogeneous 32-processor
// instances, and the battery again under the one-port and shared-link
// contention models.
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
			// 32 identical processors on a wide graph: each of a task's
			// 32 trials estimates its critical child on 32 processors.
			for trial := int64(0); trial < 3; trial++ {
				rng := rand.New(rand.NewSource(9300 + trial))
				g, err := workload.Random(workload.RandomConfig{N: 40 + int(trial)*20, Shape: 3}, rng)
				if err != nil {
					t.Fatal(err)
				}
				in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 32, CCR: 1 + float64(trial)}, rng)
				if err != nil {
					t.Fatal(err)
				}
				check(t, fmt.Sprintf("homogeneous P=32 battery %d", trial), in, p)
			}
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

// TestDifferentialLookaheadSharedParent pins the lookahead's split of a
// critical child's parents on an instance where the child c shares its
// parent A with the task t being placed: two identical processors, A(2)
// then D(10) on P0, and t(5) with A→t carrying 1, A→c 100 and t→c 50. On
// P0, t waits for D and c is estimated to finish at 18. t's trial on P1
// copies A there, so t finishes at 7 and c at 8. Without the copy, A's
// data would reach c on P1 only at 102, c's best estimate would be 58,
// and t would go to P0. ILS must take P1 and keep A's copy, as RefILS
// does. ILS-L, which never copies, must match RefILS too. Both are also
// checked under one-port.
func TestDifferentialLookaheadSharedParent(t *testing.T) {
	b := dag.NewBuilder("shared-parent")
	a, d, tk, c, e := b.AddTask("A", 2), b.AddTask("D", 10), b.AddTask("t", 5), b.AddTask("c", 1), b.AddTask("E", 1)
	b.AddEdge(a, d, 50)
	b.AddEdge(a, tk, 1)
	b.AddEdge(a, c, 100)
	b.AddEdge(tk, c, 50)
	// D's heavy output ranks it above t, so it takes P0 right after A.
	b.AddEdge(d, e, 300)
	in := sched.Consistent(b.MustBuild(), platform.Homogeneous(2, 0, 1))

	ref := testfix.RefILS(in, "ILS", testfix.RefILSOptions{SigmaRank: true, Lookahead: true, Duplication: true})
	onT := ref.Primary(tk).Proc
	if onT != 1 || len(ref.Copies(a)) != 2 || ref.Copies(a)[1].Proc != onT {
		t.Fatalf("instance no longer exercises a shared parent copied onto the trial processor: t on P%d, A's copies %v", onT, ref.Copies(a))
	}
	for _, kind := range []string{platform.KindContentionFree, platform.KindOnePort} {
		m, err := platform.ModelByKind(kind, in.Sys)
		if err != nil {
			t.Fatal(err)
		}
		inm := in.WithComm(m)
		for _, p := range []struct {
			name string
			run  func(*sched.Instance) (*sched.Schedule, error)
			opts testfix.RefILSOptions
		}{
			{"ILS", core.New().Schedule, testfix.RefILSOptions{SigmaRank: true, Lookahead: true, Duplication: true}},
			{"ILS-L", core.NoDuplication().Schedule, testfix.RefILSOptions{SigmaRank: true, Lookahead: true}},
		} {
			got, err := p.run(inm)
			if err != nil {
				t.Fatalf("%s under %s: %v", p.name, kind, err)
			}
			want := testfix.RefILS(inm, p.name, p.opts)
			if g, w := testfix.ScheduleDigest(got), testfix.ScheduleDigest(want); g != w {
				t.Errorf("%s under %s: t on P%d, reference on P%d\n got makespan %.9g digest %s\nwant makespan %.9g digest %s",
					p.name, kind, got.Primary(tk).Proc, want.Primary(tk).Proc, got.Makespan(), g, want.Makespan(), w)
			}
		}
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
