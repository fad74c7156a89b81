// Package resched implements reactive rescheduling: given a static
// schedule, a reaction time and a set of permanent processor crashes, it
// freezes the work that already completed or started, evicts everything
// destroyed or stranded by the crashes, and re-runs list scheduling for
// the unfinished suffix over the surviving processors.
//
// The reaction contract is event-driven: Repair reacts to the *last*
// event of the slice it is given; earlier events are context (their
// processors stay blocked) and must already be reflected in the input
// schedule — the iterative protocol React applies. This mirrors a real
// runtime, which repairs after each failure rather than batching them.
//
// Two primitive policies are registered, plus a combinator: remap-stranded
// disturbs the plan as little as possible (pending tasks keep their
// processor and may only slide later), reschedule-suffix re-derives the
// whole unfinished suffix with insertion-based best-EFT, and auto trials
// both on the plan's trial journal over the shared frozen prefix, undoes
// each, and re-places whichever yields the shorter repaired makespan.
//
// Repair plans and reports under the instance's idle communication
// costs: under a contended model Plan.Place re-derives starts through
// the reservation engine, which would move the frozen prefix.
package resched

import (
	"fmt"
	"math"
	"sort"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
	"dagsched/internal/sim"
)

const eps = 1e-9

// Event is one runtime fault the scheduler reacts to: processor Proc
// crashed permanently at Time.
type Event struct {
	Proc int
	Time float64
}

// Outcome summarizes one repair (or, via React, a whole reaction
// sequence) against the original schedule.
type Outcome struct {
	// Policy is the policy that ran; Chosen is the primitive mode it
	// settled on (differs from Policy only for auto).
	Policy, Chosen string
	// Nominal and Repaired are the makespans before and after.
	Nominal, Repaired float64
	// Frozen counts copies kept at their exact original placement; Lost
	// counts primary copies destroyed by the crashes; Remapped and
	// Delayed count pending primaries that moved to another processor or
	// slid later on their own; DroppedDups counts not-yet-started
	// duplicates the repair discarded as speculative.
	Frozen, Lost, Remapped, Delayed, DroppedDups int
}

// item is one movable task of the unfinished suffix.
type item struct {
	t     dag.TaskID
	proc  int // original processor of the pending primary; -1 when lost
	start float64
}

// Repair reacts to the last event in events, returning a repaired
// schedule that validates under the standard validator. See the package
// comment for the event contract.
func (p Policy) Repair(s *sched.Schedule, events []Event) (*sched.Schedule, error) {
	r, _, err := p.Assess(s, events)
	return r, err
}

// Assess is Repair plus the outcome accounting.
func (p Policy) Assess(s *sched.Schedule, events []Event) (*sched.Schedule, Outcome, error) {
	in := s.Instance()
	if len(events) == 0 {
		return nil, Outcome{}, fmt.Errorf("resched: no fault events to react to")
	}
	deadAt := make([]float64, in.P())
	for i := range deadAt {
		deadAt[i] = math.Inf(1)
	}
	reaction := 0.0
	alive := in.P()
	for _, ev := range events {
		if ev.Proc < 0 || ev.Proc >= in.P() {
			return nil, Outcome{}, fmt.Errorf("resched: event names processor %d of a %d-processor platform", ev.Proc, in.P())
		}
		if ev.Time < 0 || math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return nil, Outcome{}, fmt.Errorf("resched: event at invalid time %g", ev.Time)
		}
		if math.IsInf(deadAt[ev.Proc], 1) {
			alive--
		}
		if ev.Time < deadAt[ev.Proc] {
			deadAt[ev.Proc] = ev.Time
		}
		if ev.Time > reaction {
			reaction = ev.Time
		}
	}
	if alive == 0 {
		return nil, Outcome{}, fmt.Errorf("resched: every processor has crashed; nothing to reschedule onto")
	}
	if m := in.CommModel(); m != nil && m.NewState() != nil {
		in = in.WithComm(nil)
	}

	pl := sched.NewPlan(in)
	for q, d := range deadAt {
		if !math.IsInf(d, 1) {
			pl.BlockProc(q, d)
		}
	}
	out := Outcome{Policy: p.name, Chosen: p.name, Nominal: s.Makespan()}

	// Walk tasks in a precedence-safe order, freezing what already ran
	// and collecting the movable suffix: by the time a movable task is
	// placed, every predecessor — frozen or movable — is in the plan.
	var movable []item
	for _, t := range algo.OrderDescPrecedence(in.G, sched.RankUpward(in)) {
		var frozen []sched.Assignment
		var pending *sched.Assignment
		for _, c := range s.Copies(t) {
			c := c
			switch {
			case c.Finish > deadAt[c.Proc]+eps:
				// Destroyed: running or still pending when its processor died.
				if !c.Dup {
					out.Lost++
				}
			case c.Start <= reaction+eps:
				// Completed or running at reaction time: immutable.
				frozen = append(frozen, c)
			case !c.Dup:
				pending = &c
			default:
				out.DroppedDups++
			}
		}
		switch {
		case len(frozen) > 0:
			prim := -1
			for k, c := range frozen {
				if !c.Dup {
					prim = k
					break
				}
			}
			if prim < 0 {
				// The primary is gone (or not yet started) but a frozen
				// duplicate already computed the task: promote the
				// earliest-finishing one to primary.
				prim = 0
				for k := 1; k < len(frozen); k++ {
					if frozen[k].Finish < frozen[prim].Finish {
						prim = k
					}
				}
			}
			pl.Place(t, frozen[prim].Proc, frozen[prim].Start)
			for k, c := range frozen {
				if k != prim {
					pl.PlaceDup(t, c.Proc, c.Start)
				}
			}
			out.Frozen += len(frozen)
		case pending != nil:
			movable = append(movable, item{t: t, proc: pending.Proc, start: pending.Start})
		default:
			movable = append(movable, item{t: t, proc: -1})
		}
	}

	mode := p.mode
	if mode == modeAuto {
		// Trial both primitive modes over the shared frozen prefix,
		// undoing each, and re-place the shorter repair.
		m := pl.Mark()
		msA, _, _, errA := placeSuffix(pl, in, modeRemap, movable, reaction)
		pl.Undo(m)
		msB, _, _, errB := placeSuffix(pl, in, modeResuffix, movable, reaction)
		pl.Undo(m)
		pl.Commit()
		if errA != nil && errB != nil {
			return nil, Outcome{}, errA
		}
		mode, out.Chosen = modeRemap, nameRemap
		if errA != nil || (errB == nil && msB < msA-eps) {
			mode, out.Chosen = modeResuffix, nameResuffix
		}
	}
	var err error
	_, out.Remapped, out.Delayed, err = placeSuffix(pl, in, mode, movable, reaction)
	if err != nil {
		return nil, Outcome{}, err
	}
	r := pl.Finalize(s.Algorithm() + "+" + p.name)
	out.Repaired = r.Makespan()
	return r, out, nil
}

// placeSuffix places the movable suffix under the given primitive mode.
// Nothing may start before the reaction time: the repair is computed *at*
// that instant, so earlier gaps are in the past. Returns the latest
// placed finish and the remapped/delayed counts.
func placeSuffix(pl *sched.Plan, in *sched.Instance, m mode, movable []item, reaction float64) (maxFinish float64, remapped, delayed int, err error) {
	for _, it := range movable {
		if m == modeRemap && it.proc >= 0 {
			// Keep the processor, slide later only as far as data and
			// the (crash-blocked) timeline force.
			dur := in.Cost(it.t, it.proc)
			ready := math.Max(pl.DataReady(it.t, it.proc), math.Max(it.start, reaction))
			if st := pl.FindSlot(it.proc, ready, dur, true); !math.IsInf(st, 1) {
				a := pl.Place(it.t, it.proc, st)
				if st > it.start+eps {
					delayed++
				}
				if a.Finish > maxFinish {
					maxFinish = a.Finish
				}
				continue
			}
			// The kept processor is itself dead: fall back to best-EFT.
		}
		bp, bs := -1, math.Inf(1)
		bf := math.Inf(1)
		for q := 0; q < in.P(); q++ {
			dur := in.Cost(it.t, q)
			ready := math.Max(pl.DataReady(it.t, q), reaction)
			if st := pl.FindSlot(q, ready, dur, true); st+dur < bf {
				bp, bs, bf = q, st, st+dur
			}
		}
		if bp < 0 || math.IsInf(bs, 1) {
			return 0, 0, 0, fmt.Errorf("resched: no live processor can host task %d", it.t)
		}
		a := pl.Place(it.t, bp, bs)
		switch {
		case it.proc >= 0 && bp != it.proc:
			remapped++
		case it.proc >= 0 && bs > it.start+eps:
			delayed++
		}
		if a.Finish > maxFinish {
			maxFinish = a.Finish
		}
	}
	return maxFinish, remapped, delayed, nil
}

// CrashEvents extracts the permanent crashes of a fault plan as repair
// events, sorted by time (transient crashes, link faults and jitter are
// runtime noise the static repair does not react to). A dead processor
// cannot die again, so only each processor's earliest crash is an event
// and a plan costs at most one repair per processor.
func CrashEvents(fp *sim.FaultPlan) []Event {
	if fp == nil {
		return nil
	}
	var evs []Event
	for _, c := range fp.Crashes {
		if c.Until == 0 {
			evs = append(evs, Event{Proc: c.Proc, Time: c.At})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Proc < evs[j].Proc
	})
	dead := map[int]bool{}
	first := evs[:0]
	for _, ev := range evs {
		if !dead[ev.Proc] {
			dead[ev.Proc] = true
			first = append(first, ev)
		}
	}
	return first
}

// React applies the iterative reaction protocol to a fault plan: the
// schedule is repaired after each of the plan's CrashEvents in time
// order, every repair seeing the schedule already repaired for the
// earlier events. The outcome is aggregated against the original
// schedule. A plan with no permanent crashes returns the input schedule
// unchanged.
func React(s *sched.Schedule, fp *sim.FaultPlan, p Policy) (*sched.Schedule, Outcome, error) {
	events := CrashEvents(fp)
	agg := Outcome{Policy: p.name, Chosen: p.name, Nominal: s.Makespan(), Repaired: s.Makespan()}
	cur := s
	for i := range events {
		next, out, err := p.Assess(cur, events[:i+1])
		if err != nil {
			return nil, Outcome{}, err
		}
		cur = next
		agg.Lost += out.Lost
		agg.Remapped += out.Remapped
		agg.Delayed += out.Delayed
		agg.DroppedDups += out.DroppedDups
		agg.Frozen = out.Frozen
		agg.Chosen = out.Chosen
	}
	agg.Repaired = cur.Makespan()
	return cur, agg, nil
}
