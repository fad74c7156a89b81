package sched

import (
	"fmt"

	"dagsched/internal/dag"
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
// is affected). New tasks start unscheduled; Done/Finalize account for
// the new total. Only the contention-free model is supported: grown
// instances would need their reservation state replayed.
func (pl *Plan) Grow(in *Instance) error {
	if in.P() != pl.in.P() {
		return fmt.Errorf("sched: Grow changes processor count %d -> %d", pl.in.P(), in.P())
	}
	if in.N() < pl.in.N() {
		return fmt.Errorf("sched: Grow shrinks task count %d -> %d", pl.in.N(), in.N())
	}
	if pl.comm != nil || in.comm != nil {
		return fmt.Errorf("sched: Grow requires the contention-free communication model")
	}
	delta := in.N() - pl.in.N()
	if delta > 0 {
		arena := make([]Assignment, delta)
		for i := 0; i < delta; i++ {
			pl.byTask = append(pl.byTask, arena[i:i:i+1])
		}
	}
	pl.in = in
	// Invalidate any open transaction: it was begun against the old
	// instance and its snapshots no longer describe this plan.
	pl.epoch++
	return nil
}

// EFTFloored is EFTOn with the task's data-ready time floored at the
// clock: a re-planned task cannot start in the frozen past. At clock
// zero it is bit-identical to EFTOn.
func EFTFloored(pl *Plan, t dag.TaskID, p int, clock float64, insertion bool) (start, finish float64) {
	ready := pl.DataReady(t, p)
	if ready < clock {
		ready = clock
	}
	dur := pl.in.Cost(t, p)
	start = pl.FindSlot(p, ready, dur, insertion)
	return start, start + dur
}
