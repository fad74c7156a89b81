package listsched

import (
	"context"
	"fmt"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// ISH is the Insertion Scheduling Heuristic of Kruatrachue and Lewis
// (1987): HLFET extended with hole filling. Whenever placing a task leaves
// an idle hole in front of it on its processor, ISH packs other ready
// tasks into the hole, highest static level first, as long as they fit
// without delaying the placed task.
type ISH struct{}

// Name implements algo.Algorithm.
func (ISH) Name() string { return "ISH" }

// Schedule implements algo.Algorithm.
func (i ISH) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return i.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler: ctx is checked before
// each pick and each hole-fill search.
func (ISH) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	const eps = 1e-9
	sl := sched.StaticLevel(in)
	pl := sched.NewPlan(in)
	rl := algo.NewReadyList(in.G)
	for !rl.Empty() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ISH: %w", err)
		}
		var pick dag.TaskID = -1
		for _, r := range rl.Ready() {
			if pick == -1 || sl[r] > sl[pick] {
				pick = r
			}
		}
		// HLFET's earliest non-insertion start, the inputs read once.
		w := in.W[pick]
		bestP, bestS := -1, 0.0
		holeStart := 0.0
		for p, ready := range pl.ReadyRow(pick) {
			s := pl.FindSlot(p, ready, w[p], false)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
				holeStart = pl.ProcReady(p)
			}
		}
		pl.Place(pick, bestP, bestS)
		rl.Complete(pick)
		if bestS <= holeStart+eps {
			continue // no hole created
		}
		// Fill the hole [holeStart, bestS) with ready tasks, highest
		// static level first. Each fill may release new ready tasks, which
		// are considered too; the loop ends when nothing fits.
		for {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("ISH: %w", err)
			}
			var fill dag.TaskID = -1
			fillStart := 0.0
			for _, r := range rl.Ready() {
				s, f := pl.EFTOn(r, bestP, true)
				if f <= bestS+eps && (fill == -1 || sl[r] > sl[fill]) {
					fill, fillStart = r, s
				}
			}
			if fill == -1 {
				break
			}
			pl.Place(fill, bestP, fillStart)
			rl.Complete(fill)
		}
	}
	return pl.Finalize("ISH"), nil
}
