package stream

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

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
	// CPOP, HLFET, ETF, DLS; empty means HEFT) or a listsched grid point
	// ("LS/u/static/eft/ins/nodup"). Duplicating grid points are
	// rejected — duplicates cannot be re-planned incrementally.
	Algorithm string
	// Sys is the platform. Only the contention-free communication model
	// is supported.
	Sys *platform.System
	// BatchSize is the auto-flush threshold (DefaultBatchSize when 0).
	BatchSize int
	// FullRecompute disables the incremental path: every flush computes
	// the whole priority vector and runs the full exact re-plan from the
	// frozen prefix. The benchmark baseline.
	FullRecompute bool
	// FinalAssignments asks the sealed delta to carry every placement,
	// not only the changed ones.
	FinalAssignments bool
	// Name names the accumulated graph.
	Name string
}

// Engine consumes an event log and maintains a continuously-updated
// schedule. Tasks and edges buffer until a flush (explicit, batch-size
// or seal), which publishes them into the live graph and grows the
// instance in place, then ranks and re-places only the affected suffix
// — tasks whose readiness a new arc or task can change — while the
// frozen horizon (placements started before the virtual clock) is
// pinned. An incremental flush costs its batch, not the graph. Sealing
// runs the configured scheduler's exact placement semantics over
// everything unfrozen, so a sealed stream at horizon zero reproduces the
// static scheduler bit for bit.
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

	in *sched.Instance // live instance over ap's live graph, grown by each flush
	pl *sched.Plan     // live plan (every current task placed after a flush)

	assign []sched.Assignment // primary placement mirror, task-indexed
	placed []bool

	// Delta figures kept current rather than rescanned per flush: the
	// plan's makespan, and the frozen count as of clock frozenAt.
	makespan float64
	frozen   int
	frozenAt float64

	// Flush scratch, reused: the affected set as marks and as a list,
	// and orderAffected's pending-predecessor counts, ready set and order.
	affected []bool
	affList  []dag.TaskID
	preds    []int32
	ready    []dag.TaskID
	order    []dag.TaskID
	// Upward ranks by task id, written by incremental flushes for their
	// affected sets only; ranked is the last such set in decreasing
	// topological position, the order it was ranked in.
	ranks  []float64
	ranked []dag.TaskID

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
			return listsched.Param{}, fmt.Errorf("stream: unsupported algorithm %q (HEFT, CPOP, HLFET, ETF, DLS or an LS/ grid point)", name)
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
// first flush). Flushes grow the graph and instance in place, so a
// schedule taken mid-stream is built on a compact copy of both as of the
// last flush: later events never change it. After the seal nothing
// grows, and the schedule shares them.
func (e *Engine) Schedule() *sched.Schedule {
	if e.pl == nil {
		return nil
	}
	s := e.pl.Finalize(e.pm.Name())
	if e.sealed {
		return s
	}
	in, err := sched.NewInstance(e.in.G.Compact(), e.cfg.Sys, e.in.W)
	if err != nil {
		// The live instance was validated as it grew.
		panic(err)
	}
	return s.WithInstance(in)
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
		// A buffered edge's head is re-placed after its tail at the next
		// flush, so it must not freeze first: the frozen set then never
		// holds a successor of a task a flush re-places.
		for _, ed := range e.newEdges {
			if v := ed.To; e.placed[v] && e.assign[v].Start < ev.Clock {
				return nil, fmt.Errorf("stream: clock %g freezes task %d (starts %g), the head of buffered edge (%d,%d); flush first",
					ev.Clock, v, e.assign[v].Start, ed.From, v)
			}
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
// it runs the exact re-plan from the frozen prefix; otherwise it
// re-places the affected suffix only.
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

	// Publish the batch into the live graph and grow the instance from
	// the blocks that changed: per-task statistics and per-arc
	// mean-communication values are computed only for the batch's delta.
	g, changes, err := e.ap.Grow()
	if err != nil {
		return nil, err
	}
	if e.in == nil {
		e.in, err = sched.NewInstance(g, e.cfg.Sys, e.w)
	} else {
		err = e.in.Grow(e.w, changes)
	}
	if err != nil {
		return nil, err
	}

	d := &Delta{
		Seq:    e.seq,
		Clock:  e.clock,
		Events: batchEvents,
		Tasks:  n,
		Edges:  g.NumEdges(),
		Sealed: seal,
	}

	// Priorities: an incremental flush reads the upward rank of its
	// affected tasks only, so incrementalReplan ranks that set once it
	// is known. Every other flush and priority (static level, CPOP's
	// up+down) computes the whole vector: those are cheap level sweeps,
	// and the seal's exactness needs the static scheduler's own vector.
	full := seal || e.cfg.FullRecompute
	var prio []float64
	if full || e.pm.Priority != listsched.PrioUpward {
		prio = e.pm.PriorityVector(e.in)
		d.RankRepaired, d.FullRanks = n, true
	}
	if full {
		err = e.fullReplan(e.in, prio, d)
	} else {
		err = e.incrementalReplan(e.in, prio, d)
	}
	if err != nil {
		return nil, err
	}

	// Refresh the mirror and report changed placements. After an
	// incremental re-plan only the affected tasks (ascending id) can have
	// moved: the rest kept their placements exactly.
	refresh := func(v dag.TaskID) {
		a := e.pl.Primary(v)
		if !e.placed[v] || e.assign[v] != a {
			d.Placed = append(d.Placed, Placement{Task: int(v), Proc: a.Proc, Start: a.Start, Finish: a.Finish})
		}
		e.assign[v] = a
		e.placed[v] = true
	}
	if full {
		for v := 0; v < n; v++ {
			refresh(dag.TaskID(v))
		}
	} else {
		for _, v := range e.affList {
			refresh(v)
		}
	}
	// The makespan is the latest primary finish: a plan that only grew
	// extends the previous one by the re-placed tasks' finishes.
	if full || d.FullReplan {
		e.makespan = e.pl.Makespan()
	} else {
		for _, v := range e.affList {
			if f := e.assign[v].Finish; f > e.makespan {
				e.makespan = f
			}
		}
	}
	d.Makespan = e.makespan
	// Re-placed tasks start at or after the clock, so the frozen count
	// changes only when the clock moved.
	if e.clock != e.frozenAt {
		e.frozen, e.frozenAt = 0, e.clock
		for v := 0; v < n; v++ {
			if e.isFrozen(dag.TaskID(v)) {
				e.frozen++
			}
		}
	}
	d.Frozen = e.frozen
	if seal && e.cfg.FinalAssignments {
		all := make([]Placement, n)
		for v := 0; v < n; v++ {
			a := e.assign[v]
			all[v] = Placement{Task: v, Proc: a.Proc, Start: a.Start, Finish: a.Finish}
		}
		d.Placed = all
	}
	for _, v := range e.affList {
		e.affected[v] = false
	}
	e.affList = e.affList[:0]

	e.oldN = n
	e.pending = 0
	e.newEdges = e.newEdges[:0]
	e.seq++

	if seal {
		if err := e.pl.Finalize(e.pm.Name()).Validate(); err != nil {
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
func (e *Engine) fullReplan(in *sched.Instance, prio []float64, d *Delta) error {
	frozen := e.frozenAssignments()
	pl, err := e.pm.Replan(context.Background(), in, prio, frozen, e.clock)
	if err != nil {
		return err
	}
	e.pl = pl
	d.Replanned = in.N() - len(frozen)
	d.FullReplan = true
	return nil
}

// incrementalReplan re-places only the affected suffix: the new tasks,
// the heads of new arcs, and their unfrozen descendants, collected in
// e.affList in ascending id order. A nil prio asks it to rank that set
// (rankAffected). Placements outside the affected set are kept exactly;
// when none of them is disturbed the live plan just grows in place.
func (e *Engine) incrementalReplan(in *sched.Instance, prio []float64, d *Delta) error {
	n := in.N()
	for len(e.affected) < n {
		e.affected = append(e.affected, false)
		e.preds = append(e.preds, 0)
		e.ranks = append(e.ranks, 0)
	}
	mark := func(v dag.TaskID) {
		if !e.affected[v] && !e.isFrozen(v) {
			e.affected[v] = true
			e.affList = append(e.affList, v)
		}
	}
	for v := e.oldN; v < n; v++ {
		mark(dag.TaskID(v))
	}
	for _, ed := range e.newEdges {
		mark(ed.To)
	}
	for i := 0; i < len(e.affList); i++ {
		for _, a := range in.G.Succ(e.affList[i]) {
			mark(a.To)
		}
	}
	slices.Sort(e.affList)
	if prio == nil {
		prio = e.rankAffected(in)
		d.RankRepaired, d.FullRanks = len(e.affList), len(e.affList) == n
	}

	anyPlacedAffected := false
	for _, v := range e.affList {
		if e.placed[v] {
			anyPlacedAffected = true
			break
		}
	}

	switch {
	case e.pl == nil:
		e.pl = sched.NewPlan(in)
	case !anyPlacedAffected:
		if err := e.pl.Grow(in); err != nil {
			return err
		}
	default:
		// An already-placed task is affected: rebuild from the frozen
		// prefix plus the kept (unaffected) placements, all exact.
		seed := e.frozenAssignments()
		for v := 0; v < len(e.placed); v++ {
			if e.placed[v] && !e.affected[v] && !e.isFrozen(dag.TaskID(v)) {
				seed = append(seed, e.assign[v])
			}
		}
		e.pl = sched.SeedPlan(in, seed)
		d.FullReplan = true
	}

	if err := e.pm.PlaceOrder(context.Background(), e.pl, prio, e.orderAffected(in.G, prio), e.clock); err != nil {
		return err
	}
	d.Replanned = len(e.affList)
	return nil
}

// rankAffected computes the upward rank of every affected task, and of
// no other, into e.ranks: one sweep over the set in decreasing
// topological position by sched.RankUpward's own recurrence. Every
// successor of an affected task is affected too, because no frozen task
// has an unfrozen predecessor: over the arcs a plan respects the frozen
// set is ancestor-closed (isFrozen), addEdge refuses an arc into a
// frozen task, and advance refuses to freeze a buffered arc's head. So
// each rank reads only ranks the sweep has already computed, and equals
// sched.RankUpward of the whole graph bit for bit.
func (e *Engine) rankAffected(in *sched.Instance) []float64 {
	pos, _ := e.ap.Order()
	e.ranked = append(e.ranked[:0], e.affList...)
	slices.SortFunc(e.ranked, func(a, b dag.TaskID) int { return pos[b] - pos[a] })
	sched.RankUpwardInto(in, e.ranks, e.ranked)
	return e.ranks
}

// orderAffected returns the affected tasks in a precedence-safe greedy
// order: repeatedly the highest-priority task whose affected
// predecessors were all emitted (predecessors outside the set are placed
// already), ties toward the earlier topological position. The same
// greedy rule as algo.OrderDescPrecedence, restricted to the set. The
// result is scratch space, valid until the next flush.
func (e *Engine) orderAffected(g *dag.Graph, prio []float64) []dag.TaskID {
	pos, _ := e.ap.Order()
	e.ready = e.ready[:0]
	for _, v := range e.affList {
		c := int32(0)
		for _, p := range g.Pred(v) {
			if e.affected[p.To] {
				c++
			}
		}
		e.preds[v] = c
		if c == 0 {
			e.ready = append(e.ready, v)
		}
	}
	order := e.order[:0]
	for len(e.ready) > 0 {
		best := 0
		for i := 1; i < len(e.ready); i++ {
			a, b := e.ready[i], e.ready[best]
			if prio[a] > prio[b] || (prio[a] == prio[b] && pos[a] < pos[b]) {
				best = i
			}
		}
		pick := e.ready[best]
		e.ready[best] = e.ready[len(e.ready)-1]
		e.ready = e.ready[:len(e.ready)-1]
		order = append(order, pick)
		for _, a := range g.Succ(pick) {
			if e.affected[a.To] {
				e.preds[a.To]--
				if e.preds[a.To] == 0 {
					e.ready = append(e.ready, a.To)
				}
			}
		}
	}
	e.order = order
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
