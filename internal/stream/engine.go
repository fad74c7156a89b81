package stream

import (
	"context"
	"fmt"
	"math"
	"strings"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// DefaultBatchSize is the auto-flush threshold: once this many events
// are buffered, the next task arrival triggers a re-plan (so a task's
// trailing edges always batch with it).
const DefaultBatchSize = 32

// Config configures an Engine.
type Config struct {
	// Algorithm names the list scheduler: a canonical baseline (HEFT,
	// CPOP, HLFET, ETF; empty means HEFT) or a listsched grid point
	// ("LS/u/static/eft/ins/nodup"). Duplicating grid points are
	// rejected — duplicates cannot be re-planned incrementally.
	Algorithm string
	// Sys is the platform. Only the contention-free communication model
	// is supported.
	Sys *platform.System
	// BatchSize is the auto-flush threshold (DefaultBatchSize when 0).
	BatchSize int
	// DirtyFraction bounds the incremental rank repair before it falls
	// back to the full kernel (algo.DefaultDirtyFraction when 0).
	DirtyFraction float64
	// FullRecompute disables the incremental path: every flush runs the
	// full exact re-plan from the frozen prefix. The benchmark baseline.
	FullRecompute bool
	// FinalAssignments asks the sealed delta to carry every placement,
	// not only the changed ones.
	FinalAssignments bool
	// Name names the accumulated graph.
	Name string
}

// Engine consumes an event log and maintains a continuously-updated
// schedule. Tasks and edges buffer until a flush (explicit, batch-size
// or seal), which re-seals the graph, repairs the upward ranks over the
// dirty set, and re-places only the affected suffix — tasks whose
// readiness a new arc or task can change — while the frozen horizon
// (placements started before the virtual clock) is pinned. Sealing runs
// the configured scheduler's exact placement semantics over everything
// unfrozen, so a sealed stream at horizon zero reproduces the static
// scheduler bit for bit.
//
// The engine is deterministic: the same event sequence yields the same
// deltas and the same final schedule. It is not safe for concurrent use;
// the service serializes each stream session onto one worker.
type Engine struct {
	cfg Config
	pm  listsched.Param

	ap *dag.Appendable
	w  [][]float64 // per-task cost rows, arrival order

	clock  float64
	sealed bool

	// Batch state since the last flush.
	pending  int
	newEdges []dag.Edge
	oldN     int

	rt *algo.RankTracker
	in *sched.Instance // instance of the last flush
	pl *sched.Plan     // live plan (every current task placed after a flush)

	assign []sched.Assignment // primary placement mirror, task-indexed
	placed []bool

	seq    int
	events int
}

// ParamFor resolves a streaming algorithm name to its listsched grid
// point: the canonical baselines by name (empty means HEFT) or an
// "LS/..." grid point. Speculative points, those that duplicate or look
// ahead, are rejected whichever way they are named.
func ParamFor(name string) (listsched.Param, error) {
	if name == "" {
		name = "HEFT"
	}
	pm, ok := listsched.Baseline(name)
	if !ok {
		if !strings.HasPrefix(name, "LS/") {
			return listsched.Param{}, fmt.Errorf("stream: unsupported algorithm %q (HEFT, CPOP, HLFET, ETF or an LS/ grid point)", name)
		}
		var err error
		if pm, err = listsched.ParseParam(name); err != nil {
			return listsched.Param{}, err
		}
	}
	if pm.Speculative() {
		return listsched.Param{}, fmt.Errorf("stream: speculative scheduler %q not supported (duplicating and lookahead trials cannot re-plan incrementally)", name)
	}
	return pm, nil
}

// NewEngine returns an engine for the config.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Sys == nil {
		return nil, fmt.Errorf("stream: config has no platform")
	}
	pm, err := ParamFor(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.Name == "" {
		cfg.Name = "stream"
	}
	return &Engine{
		cfg: cfg,
		pm:  pm,
		ap:  dag.NewAppendable(cfg.Name),
		rt:  algo.NewRankTracker(),
	}, nil
}

// Sealed reports whether the stream has ended.
func (e *Engine) Sealed() bool { return e.sealed }

// Clock returns the virtual clock.
func (e *Engine) Clock() float64 { return e.clock }

// Len returns the number of tasks ingested.
func (e *Engine) Len() int { return e.ap.Len() }

// Events returns the number of events applied successfully.
func (e *Engine) Events() int { return e.events }

// Algorithm returns the configured scheduler's display name.
func (e *Engine) Algorithm() string { return e.pm.Name() }

// Schedule finalizes the current plan into a Schedule (nil before the
// first flush).
func (e *Engine) Schedule() *sched.Schedule {
	if e.pl == nil {
		return nil
	}
	return e.pl.Finalize(e.pm.Name())
}

// isFrozen reports whether task v's placement started before the clock.
// The frozen set is ancestor-closed under precedence-valid schedules with
// non-negative communication: a predecessor finishes no later than its
// successor starts, so it started strictly earlier too.
func (e *Engine) isFrozen(v dag.TaskID) bool {
	return e.placed[v] && e.assign[v].Start < e.clock
}

// costRow derives the per-processor cost row of an addTask event:
// explicit costs verbatim, otherwise weight over processor speed
// (exactly sched.Consistent's rule).
func costRow(ev Event, sys *platform.System) ([]float64, error) {
	p := sys.Len()
	if len(ev.Costs) > 0 {
		if len(ev.Costs) != p {
			return nil, fmt.Errorf("stream: task %d has %d costs for %d processors", ev.ID, len(ev.Costs), p)
		}
		row := make([]float64, p)
		for i, c := range ev.Costs {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("stream: task %d has invalid cost %g", ev.ID, c)
			}
			row[i] = c
		}
		return row, nil
	}
	row := make([]float64, p)
	for i := range row {
		row[i] = ev.Weight / sys.Speed(i)
	}
	return row, nil
}

// Apply consumes one event. A structural event buffers (and may trigger
// an auto-flush); flush and seal events re-plan. The returned delta is
// non-nil exactly when a re-plan ran. Invalid events are rejected with
// an error and leave the engine state untouched — the stream remains
// usable.
func (e *Engine) Apply(ev Event) (*Delta, error) {
	if e.sealed {
		return nil, fmt.Errorf("stream: stream already sealed")
	}
	switch ev.Op {
	case OpConfig:
		return nil, fmt.Errorf("stream: config event after session start")
	case OpAddTask:
		if ev.ID != e.ap.Len() {
			return nil, fmt.Errorf("stream: task id %d out of order (next is %d)", ev.ID, e.ap.Len())
		}
		row, err := costRow(ev, e.cfg.Sys)
		if err != nil {
			return nil, err
		}
		// Auto-flush before ingesting a task, never after: a task's
		// trailing edges then always share its batch, so well-ordered
		// arrival keeps every affected task unplaced (the grow-in-place
		// fast path). Edge-only runs simply accumulate until the next
		// task, flush or seal.
		var d *Delta
		if e.pending >= e.cfg.BatchSize {
			if d, err = e.flush(false); err != nil {
				return nil, err
			}
		}
		if _, err := e.ap.AddTask(ev.Name, ev.Weight); err != nil {
			return nil, err
		}
		e.w = append(e.w, row)
		e.assign = append(e.assign, sched.Assignment{})
		e.placed = append(e.placed, false)
		e.pending++
		e.events++
		return d, nil
	case OpAddEdge:
		from, to := dag.TaskID(ev.From), dag.TaskID(ev.To)
		if ev.To >= 0 && ev.To < e.ap.Len() && e.isFrozen(to) {
			return nil, fmt.Errorf("stream: edge (%d,%d) targets frozen task %d (started %g before clock %g)",
				ev.From, ev.To, ev.To, e.assign[to].Start, e.clock)
		}
		if err := e.ap.AddEdge(from, to, ev.Data); err != nil {
			return nil, err
		}
		e.newEdges = append(e.newEdges, dag.Edge{From: from, To: to, Data: ev.Data})
		e.pending++
		e.events++
	case OpAdvance:
		if math.IsNaN(ev.Clock) || math.IsInf(ev.Clock, 0) || ev.Clock < e.clock {
			return nil, fmt.Errorf("stream: clock %g invalid (must be finite and >= %g)", ev.Clock, e.clock)
		}
		e.clock = ev.Clock
		e.events++
		return nil, nil
	case OpFlush:
		e.events++
		return e.flush(false)
	case OpSeal:
		e.events++
		d, err := e.flush(true)
		if err != nil {
			return nil, err
		}
		e.sealed = true
		return d, nil
	default:
		return nil, fmt.Errorf("stream: unknown op %q", ev.Op)
	}
	return nil, nil
}

// flush re-plans the buffered batch. On seal (and in FullRecompute mode)
// it runs the exact re-plan from the frozen prefix; otherwise it repairs
// incrementally: rank repair over the dirty set, then re-placement of
// the affected suffix only.
func (e *Engine) flush(seal bool) (*Delta, error) {
	n := e.ap.Len()
	if n == 0 {
		if seal {
			return nil, fmt.Errorf("stream: sealing an empty stream")
		}
		return nil, nil
	}
	if e.pending == 0 && !seal && e.pl != nil {
		return nil, nil
	}
	batchEvents := e.pending

	g, err := e.ap.Seal()
	if err != nil {
		return nil, err
	}
	// Grow the previous flush's instance instead of rebuilding: per-task
	// statistics and per-arc mean-communication values are reused
	// bit-identically, so each flush pays only for the batch's delta.
	var in2 *sched.Instance
	if e.in == nil {
		in2, err = sched.NewInstance(g, e.cfg.Sys, e.w)
	} else {
		in2, err = sched.NewInstanceGrown(e.in, g, e.w)
	}
	if err != nil {
		return nil, err
	}

	// Priorities: the upward rank repairs incrementally; the other
	// metrics (static level, CPOP's up+down) re-run their full kernels —
	// they are cheap level sweeps, and exactness at seal requires the
	// full expression anyway.
	var prio []float64
	rankRepaired, fullRanks := 0, false
	if e.pm.Priority == listsched.PrioUpward {
		e.rt.Update(in2, e.oldN, e.newEdges, e.ap.Positions(), e.cfg.DirtyFraction)
		prio = e.rt.Ranks()[:n]
		rankRepaired, fullRanks = e.rt.Repaired, e.rt.Full
	} else {
		prio = e.pm.PriorityVector(in2)
		rankRepaired, fullRanks = n, true
	}

	d := &Delta{
		Seq:          e.seq,
		Clock:        e.clock,
		Events:       batchEvents,
		Tasks:        n,
		Edges:        g.NumEdges(),
		RankRepaired: rankRepaired,
		FullRanks:    fullRanks,
		Sealed:       seal,
	}

	if seal || e.cfg.FullRecompute {
		if err := e.fullReplan(in2, prio, d); err != nil {
			return nil, err
		}
	} else {
		if err := e.incrementalReplan(in2, prio, d); err != nil {
			return nil, err
		}
	}

	// Refresh the mirror and report changed placements.
	changed := d.Placed[:0]
	for v := 0; v < n; v++ {
		a := e.pl.Primary(dag.TaskID(v))
		if !e.placed[v] || e.assign[v] != a {
			changed = append(changed, Placement{Task: v, Proc: a.Proc, Start: a.Start, Finish: a.Finish})
		}
		e.assign[v] = a
		e.placed[v] = true
	}
	d.Placed = changed
	if seal && e.cfg.FinalAssignments {
		all := make([]Placement, n)
		for v := 0; v < n; v++ {
			a := e.assign[v]
			all[v] = Placement{Task: v, Proc: a.Proc, Start: a.Start, Finish: a.Finish}
		}
		d.Placed = all
	}
	d.Frozen = 0
	for v := 0; v < n; v++ {
		if e.isFrozen(dag.TaskID(v)) {
			d.Frozen++
		}
	}
	d.Makespan = e.pl.Makespan()

	e.in = in2
	e.oldN = n
	e.pending = 0
	e.newEdges = e.newEdges[:0]
	e.seq++

	if seal {
		if err := e.Schedule().Validate(); err != nil {
			return nil, fmt.Errorf("stream: sealed schedule invalid: %w", err)
		}
	}
	return d, nil
}

// frozenAssignments collects the immovable prefix.
func (e *Engine) frozenAssignments() []sched.Assignment {
	var frozen []sched.Assignment
	for v := 0; v < len(e.placed); v++ {
		if e.isFrozen(dag.TaskID(v)) {
			frozen = append(frozen, e.assign[v])
		}
	}
	return frozen
}

// fullReplan rebuilds the whole suffix with the exact scheduler
// semantics over a plan seeded with the frozen prefix: Param.Replan, the
// static scheduler's own loop. At a zero clock the prefix is empty and
// the floor a no-op, so a sealed stream at horizon zero reproduces the
// static scheduler bit for bit (DESIGN.md invariant 13).
func (e *Engine) fullReplan(in2 *sched.Instance, prio []float64, d *Delta) error {
	frozen := e.frozenAssignments()
	pl, err := e.pm.Replan(context.Background(), in2, prio, frozen, e.clock)
	if err != nil {
		return err
	}
	e.pl = pl
	d.Replanned = in2.N() - len(frozen)
	d.FullReplan = true
	return nil
}

// incrementalReplan re-places only the affected suffix: the new tasks,
// the heads of new arcs, and their unfrozen descendants. Placements
// outside the affected set are kept exactly; when none of them is
// disturbed the live plan just grows in place.
func (e *Engine) incrementalReplan(in2 *sched.Instance, prio []float64, d *Delta) error {
	n := in2.N()
	affected := make([]bool, n)
	var queue []dag.TaskID
	mark := func(v dag.TaskID) {
		if !affected[v] && !e.isFrozen(v) {
			affected[v] = true
			queue = append(queue, v)
		}
	}
	for v := e.oldN; v < n; v++ {
		mark(dag.TaskID(v))
	}
	for _, ed := range e.newEdges {
		mark(ed.To)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, a := range in2.G.Succ(v) {
			mark(a.To)
		}
	}

	anyPlacedAffected := false
	count := 0
	for v := 0; v < n; v++ {
		if affected[v] {
			count++
			if e.placed[v] {
				anyPlacedAffected = true
			}
		}
	}

	switch {
	case e.pl == nil:
		e.pl = sched.NewPlan(in2)
	case !anyPlacedAffected:
		if err := e.pl.Grow(in2); err != nil {
			return err
		}
	default:
		// An already-placed task is affected: rebuild from the frozen
		// prefix plus the kept (unaffected) placements, all exact.
		seed := e.frozenAssignments()
		for v := 0; v < len(e.placed); v++ {
			if e.placed[v] && !affected[v] && !e.isFrozen(dag.TaskID(v)) {
				seed = append(seed, e.assign[v])
			}
		}
		e.pl = sched.SeedPlan(in2, seed)
		d.FullReplan = true
	}

	order := orderAffected(in2.G, prio, e.ap.Positions(), affected, count)
	if err := e.pm.PlaceOrder(e.pl, order, e.clock); err != nil {
		return err
	}
	d.Replanned = count
	return nil
}

// orderAffected returns the affected tasks in a precedence-safe greedy
// order: repeatedly the highest-priority task whose affected
// predecessors were all emitted (predecessors outside the set are placed
// already), ties toward the earlier topological position. The same
// greedy rule as algo.OrderDescPrecedence, restricted to the set.
func orderAffected(g *dag.Graph, prio []float64, pos []int, affected []bool, count int) []dag.TaskID {
	pending := make(map[dag.TaskID]int, count)
	var ready []dag.TaskID
	for v := 0; v < g.Len(); v++ {
		if !affected[v] {
			continue
		}
		c := 0
		for _, p := range g.Pred(dag.TaskID(v)) {
			if affected[p.To] {
				c++
			}
		}
		pending[dag.TaskID(v)] = c
		if c == 0 {
			ready = append(ready, dag.TaskID(v))
		}
	}
	order := make([]dag.TaskID, 0, count)
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			a, b := ready[i], ready[best]
			if prio[a] > prio[b] || (prio[a] == prio[b] && pos[a] < pos[b]) {
				best = i
			}
		}
		pick := ready[best]
		ready[best] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, pick)
		for _, a := range g.Succ(pick) {
			if affected[a.To] {
				pending[a.To]--
				if pending[a.To] == 0 {
					ready = append(ready, a.To)
				}
			}
		}
	}
	return order
}

// Replay applies a whole event log to a fresh engine, returning every
// delta. Convenience for tests, schedrun -stream and the benchmark.
func Replay(cfg Config, evs []Event) ([]Delta, *Engine, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	var ds []Delta
	for i, ev := range evs {
		d, err := eng.Apply(ev)
		if err != nil {
			return ds, eng, fmt.Errorf("event %d: %w", i, err)
		}
		if d != nil {
			ds = append(ds, *d)
		}
	}
	return ds, eng, nil
}

// StaticInstance reconstructs the final instance an event log describes,
// through the static Builder path — the independent oracle the
// equivalence tests and the benchmark guard compare against.
func StaticInstance(evs []Event, sys *platform.System, name string) (*sched.Instance, error) {
	if name == "" {
		name = "stream"
	}
	b := dag.NewBuilder(name)
	var w [][]float64
	for _, ev := range evs {
		switch ev.Op {
		case OpAddTask:
			if ev.ID != b.Len() {
				return nil, fmt.Errorf("stream: task id %d out of order (next is %d)", ev.ID, b.Len())
			}
			row, err := costRow(ev, sys)
			if err != nil {
				return nil, err
			}
			b.AddTask(ev.Name, ev.Weight)
			w = append(w, row)
		case OpAddEdge:
			b.AddEdge(dag.TaskID(ev.From), dag.TaskID(ev.To), ev.Data)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return sched.NewInstance(g, sys, w)
}
