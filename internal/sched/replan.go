package sched

import (
	"fmt"
	"math"

	"dagsched/internal/sched/timeline"
)

// Suffix re-planning: the streaming engine freezes the prefix of a
// schedule that has (virtually) started executing and re-places only the
// suffix, seeding a plan with the prefix and flooring every re-placed
// start at the clock.

// SeedPlan returns a fresh plan with the given assignments re-placed at
// their exact original processors and start times — the frozen prefix a
// suffix re-plan builds on. Primaries are placed before duplicates so a
// duplicated task's first copy stays primary. Intended for the
// contention-free communication model, where placement order does not
// alter link state (resched's repair path makes the same assumption).
func SeedPlan(in *Instance, frozen []Assignment) *Plan {
	pl := NewPlan(in)
	for _, a := range frozen {
		if !a.Dup {
			pl.Place(a.Task, a.Proc, a.Start)
		}
	}
	for _, a := range frozen {
		if a.Dup {
			pl.PlaceDup(a.Task, a.Proc, a.Start)
		}
	}
	return pl
}

// Grow re-binds a live plan to a grown instance so a streaming caller
// can keep placing into it instead of rebuilding: same platform, a graph
// whose existing tasks kept their ids and predecessor arcs, and
// unchanged cost rows for every placed task (appended tasks and arcs
// into unplaced tasks only — the engine's fast path when no placed task
// is affected). The instance may be the plan's own, grown in place
// (Instance.Grow): the plan counts its tasks itself. New tasks start
// unscheduled; Done/Finalize account for the new total. When a new task
// is cheaper than every earlier one, each intact gap index is rebuilt
// from its timeline so it holds the gaps that task fits. Only the
// contention-free model is supported: grown instances would need their
// reservation state replayed.
func (pl *Plan) Grow(in *Instance) error {
	if in.P() != pl.in.P() {
		return fmt.Errorf("sched: Grow changes processor count %d -> %d", pl.in.P(), in.P())
	}
	if in.N() < len(pl.byTask) {
		return fmt.Errorf("sched: Grow shrinks task count %d -> %d", len(pl.byTask), in.N())
	}
	if pl.comm != nil || in.comm != nil {
		return fmt.Errorf("sched: Grow requires the contention-free communication model")
	}
	delta := in.N() - len(pl.byTask)
	if delta > 0 {
		arena := make([]Assignment, delta)
		for i := 0; i < delta; i++ {
			pl.byTask = append(pl.byTask, arena[i:i:i+1])
		}
	}
	for p, gi := range pl.gaps {
		if !gi.OK() || in.minW >= gi.MinDur() {
			continue
		}
		// The gaps the linear scan sees: before each assignment, from the
		// running maximum finish of the earlier ones, and the tail.
		gaps := make([]timeline.Gap, 0, len(pl.procs[p])+1)
		prevFinish := 0.0
		for _, a := range pl.procs[p] {
			gaps = append(gaps, timeline.Gap{Start: prevFinish, End: a.Start})
			prevFinish = math.Max(prevFinish, a.Finish)
		}
		gaps = append(gaps, timeline.Gap{Start: prevFinish, End: math.Inf(1)})
		pl.gaps[p] = timeline.Build(in.minW, gaps)
	}
	pl.in = in
	return nil
}
