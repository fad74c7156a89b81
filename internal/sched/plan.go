package sched

import (
	"fmt"
	"math"
	"sort"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched/timeline"
)

// Plan is the mutable working state of a scheduling algorithm: a partial
// schedule supporting earliest-slot queries, insertion-based placement and
// task duplication. Algorithms build a Plan task by task and Finalize it
// into an immutable Schedule.
//
// Plan methods panic on algorithmic misuse (placing a task twice, querying
// the data-ready time of a task whose predecessor is unscheduled): these
// are programming errors in an algorithm, not runtime conditions a caller
// can handle.
type Plan struct {
	in     *Instance
	procs  [][]Assignment // per processor, sorted by Start
	byTask [][]Assignment // per task: all copies, primary first
	placed int            // number of tasks with a primary copy
	// row is ReadyRow's answer; Clone gives the copy its own. low and
	// firsts are the row's scratch, sized on first use (sizeScratch).
	row, low []float64
	firsts   []Assignment
	// blockedFrom[p] < +Inf marks processor p unavailable from that time
	// on (fail-stop support); FindSlot never places work beyond it.
	blockedFrom []float64
	// gaps[p] indexes the idle gaps of processor p that the instance's
	// cheapest task fits, for O(log k) earliest-fit queries. An index
	// degrades (and FindSlot falls back to the linear reference scan) if a
	// placement ever straddles occupied intervals or would leave it
	// inexact; correctness never depends on it.
	gaps []*timeline.GapIndex
	// comm holds the contended-network reservation state when the
	// instance's communication model has one (nil on the default
	// contention-free path, leaving every hot path untouched). DataReady
	// then answers contention-aware earliest arrivals, and Place/PlaceDup
	// commit the chosen transfers' reservations.
	comm *platform.CommState
	// trial is set from the first Mark until Commit; while it is set
	// every placement appends a record to journal so Undo can reverse it.
	trial   bool
	journal []placement
}

// placement journals one placement made during a trial: the assignment,
// its slot in the processor timeline, the gap index's occupy record and
// the comm journal position before its reservations (-1 when the
// instance has no contended model).
type placement struct {
	a        Assignment
	slot     int
	occ      timeline.OccupyLog
	commMark int
}

// Mark is a trial journal position; Undo(m) rewinds the plan to it.
type Mark int

// NewPlan returns an empty plan for the instance. The per-task copy lists
// are carved out of one flat arena — each task gets a zero-length slot of
// capacity one, so placing the primary copy of every task costs zero heap
// allocations; only duplicated tasks spill their list onto the heap when
// append outgrows the slot.
func NewPlan(in *Instance) *Plan {
	pl := &Plan{
		in:          in,
		procs:       make([][]Assignment, in.P()),
		byTask:      make([][]Assignment, in.N()),
		blockedFrom: make([]float64, in.P()),
		gaps:        make([]*timeline.GapIndex, in.P()),
		row:         make([]float64, in.P()),
	}
	arena := make([]Assignment, in.N())
	for i := range pl.byTask {
		pl.byTask[i] = arena[i : i : i+1]
	}
	// Pre-size each processor timeline for an even spread of the tasks:
	// insert then grows each slice O(1) amortized without the doubling
	// copies that dominate allocation churn on the large tiers.
	est := in.N()/in.P() + 8
	for p := range pl.blockedFrom {
		pl.procs[p] = make([]Assignment, 0, est)
		pl.blockedFrom[p] = math.Inf(1)
		pl.gaps[p] = timeline.New(in.minW)
	}
	if in.comm != nil {
		pl.comm = in.comm.NewState()
	}
	return pl
}

// BlockProc marks processor p unavailable from the given time onward:
// FindSlot (and therefore every EFT query) will never return a slot whose
// interval extends past the block. Placements already on p are untouched.
// Blocking is used by failure-repair scheduling; it panics on a second,
// earlier block only if it would invalidate nothing — re-blocking simply
// keeps the earliest time.
func (pl *Plan) BlockProc(p int, from float64) {
	if from < pl.blockedFrom[p] {
		pl.blockedFrom[p] = from
	}
}

// Instance returns the problem being scheduled.
func (pl *Plan) Instance() *Instance { return pl.in }

// Scheduled reports whether task i has its primary copy placed.
func (pl *Plan) Scheduled(i dag.TaskID) bool { return len(pl.byTask[i]) > 0 }

// Done reports whether every task has been placed.
func (pl *Plan) Done() bool { return pl.placed == pl.in.N() }

// Copies returns all placed copies of task i (primary first). The slice
// must not be modified.
func (pl *Plan) Copies(i dag.TaskID) []Assignment { return pl.byTask[i] }

// Primary returns the primary copy of task i; it panics if unscheduled.
func (pl *Plan) Primary(i dag.TaskID) Assignment {
	if len(pl.byTask[i]) == 0 {
		panic(fmt.Sprintf("sched: task %d not scheduled", i))
	}
	return pl.byTask[i][0]
}

// OnProc returns the assignments on processor p sorted by start. The slice
// must not be modified.
func (pl *Plan) OnProc(p int) []Assignment { return pl.procs[p] }

// ProcReady returns the finish time of the last assignment on processor p
// (0 when idle) — the non-insertion availability time.
func (pl *Plan) ProcReady(p int) float64 {
	t := pl.procs[p]
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].Finish
}

// DataReady returns the earliest time all input data of task i is
// available on processor p, taking the best copy of every predecessor.
// Entry tasks are ready at time 0. It panics if a predecessor has no copy.
// Under a contended communication model the arrival of each transfer
// accounts for the network resources already reserved by placed tasks
// (without reserving anything itself — Place commits reservations).
func (pl *Plan) DataReady(i dag.TaskID, p int) float64 {
	if pl.comm != nil {
		return pl.commReady(i, p, false)
	}
	ready := 0.0
	for _, pe := range pl.in.G.Pred(i) {
		copies := pl.byTask[pe.To]
		if len(copies) == 0 {
			panic(fmt.Sprintf("sched: task %d scheduled before predecessor %d", i, pe.To))
		}
		arrival := math.Inf(1)
		for _, c := range copies {
			if t := c.Finish + pl.in.CommCost(c.Proc, p, pe.Data); t < arrival {
				arrival = t
			}
		}
		if arrival > ready {
			ready = arrival
		}
	}
	return ready
}

// ReadyRow returns task i's data-ready time on every processor, bit for
// bit what DataReady answers for each (the same arrivals; min and max
// are exact). The row is the plan's own, overwritten by the next
// ReadyRow or BestEFT call. It panics if a predecessor has no copy.
//
// Under a contended model each entry is DataReady's contended query.
// Otherwise the row folds in every predecessor once, a duplicated one
// by RaiseArrivals. On uniform links (uniformLinks) a single copy that
// finishes at F on q delivers at F + cost everywhere but q, where its
// data is ready at F; so the single copies' part of the row is their
// largest remote arrival M on every processor but M's own, which takes
// the largest arrival there — O(in-degree + P) work. On per-pair links
// under the System's own costs (sysLinks) a single copy on q reads q's
// link rows once (System.LinksFrom).
func (pl *Plan) ReadyRow(i dag.TaskID) []float64 {
	row := pl.row
	if pl.comm != nil {
		for p := range row {
			row[p] = pl.commReady(i, p, false)
		}
		return row
	}
	if pl.low == nil {
		pl.sizeScratch()
	}
	// Read every predecessor's first copy before folding any in: on large
	// graphs the reads miss the cache, and only a tight loop overlaps them.
	preds, firsts := pl.in.G.Pred(i), pl.firsts[:0]
	for _, pe := range preds {
		if len(pl.byTask[pe.To]) == 0 {
			panic(fmt.Sprintf("sched: task %d scheduled before predecessor %d", i, pe.To))
		}
		firsts = append(firsts, pl.byTask[pe.To][0])
	}
	pl.firsts = firsts
	lat, inv, uniform := pl.uniformLinks()
	if uniform {
		// m is the largest remote arrival and q its processor.
		m, q := 0.0, -1
		for k, pe := range preds {
			if c := firsts[k]; len(pl.byTask[pe.To]) == 1 {
				if t := c.Finish + (lat + pe.Data*inv); t > m {
					m, q = t, c.Proc
				}
			}
		}
		for p := range row {
			row[p] = m
		}
		if q >= 0 {
			row[q] = 0
			for k, pe := range preds {
				if c := firsts[k]; len(pl.byTask[pe.To]) == 1 {
					t := c.Finish
					if c.Proc != q {
						t += lat + pe.Data*inv
					}
					row[q] = max(row[q], t)
				}
			}
		}
	} else {
		clear(row)
	}
	sysLinks := !uniform && pl.sysLinks()
	for k, pe := range preds {
		switch c := firsts[k]; {
		case len(pl.byTask[pe.To]) > 1:
			pl.RaiseArrivals(row, pe)
		case uniform:
			// Folded in above.
		case sysLinks:
			// System.CommCost's expression on the links out of c.Proc,
			// each row read once.
			startup, invRate := pl.in.Sys.LinksFrom(c.Proc)
			for p, ready := range row {
				t := c.Finish
				if p != c.Proc {
					t += startup[p] + pe.Data*invRate[p]
				}
				if t > ready {
					row[p] = t
				}
			}
		default:
			for p, ready := range row {
				if t := c.Finish + pl.in.CommCost(c.Proc, p, pe.Data); t > ready {
					row[p] = t
				}
			}
		}
	}
	return row
}

// RaiseArrivals raises row[p], for every processor p, to the earliest
// arrival there of the data arc pe carries from a copy of its scheduled
// source, by DataReady's contention-free expression. On uniform links
// the earliest copy arrives first on every processor (float addition is
// monotone), except that a processor holding a copy has the data at
// that copy's finish if earlier: O(copies + P) work.
func (pl *Plan) RaiseArrivals(row []float64, pe dag.Adj) {
	copies := pl.byTask[pe.To]
	lat, inv, ok := pl.uniformLinks()
	if !ok {
		for p, ready := range row {
			arrival := math.Inf(1)
			for _, c := range copies {
				if t := c.Finish + pl.in.CommCost(c.Proc, p, pe.Data); t < arrival {
					arrival = t
				}
			}
			if arrival > ready {
				row[p] = arrival
			}
		}
		return
	}
	if pl.low == nil {
		pl.sizeScratch()
	}
	first := math.Inf(1)
	for _, c := range copies {
		first = min(first, c.Finish)
	}
	low, remote := pl.low, first+(lat+pe.Data*inv)
	for p := range low {
		low[p] = remote
	}
	for _, c := range copies {
		low[c.Proc] = min(low[c.Proc], c.Finish)
	}
	for p, arrival := range low {
		if arrival > row[p] {
			row[p] = arrival
		}
	}
}

// uniformLinks returns the one link every two distinct processors share
// when the instance's transfers cost lat + data·inv between any two: on
// uniform links under sysLinks.
func (pl *Plan) uniformLinks() (lat, inv float64, ok bool) {
	if !pl.sysLinks() {
		return 0, 0, false
	}
	return pl.in.Sys.UniformLinks()
}

// sysLinks reports whether Instance.CommCost is the System's own
// contention-free cost: under the default model or its explicit object.
func (pl *Plan) sysLinks() bool {
	in := pl.in
	return in.comm == nil || in.comm == platform.ContentionFree(in.Sys)
}

// sizeScratch allocates the row scratch on a plan's first ReadyRow or
// uniform RaiseArrivals, so plans that never build a row pay nothing:
// low holds one time per processor and firsts the graph's largest
// in-degree (append still covers a graph that grows).
func (pl *Plan) sizeScratch() {
	maxIn := 0
	for i := range pl.byTask {
		maxIn = max(maxIn, pl.in.G.InDegree(dag.TaskID(i)))
	}
	pl.low = make([]float64, len(pl.row))
	pl.firsts = make([]Assignment, 0, maxIn)
}

// commReady is the contended counterpart of the DataReady loop: the
// earliest time all input data of task i is available on processor p,
// with every inter-processor transfer queried against the plan's
// reservation state. Per predecessor it takes the copy with the earliest
// contended arrival; local copies and zero-cost transfers arrive at the
// copy's finish. With reserve set, the winning transfer of each
// predecessor is committed before the next predecessor is examined, so
// the task's own inputs serialize correctly too.
func (pl *Plan) commReady(i dag.TaskID, p int, reserve bool) float64 {
	in, st := pl.in, pl.comm
	ready := 0.0
	for _, pe := range in.G.Pred(i) {
		copies := pl.byTask[pe.To]
		if len(copies) == 0 {
			panic(fmt.Sprintf("sched: task %d scheduled before predecessor %d", i, pe.To))
		}
		best := math.Inf(1)
		bestProc := -1
		bestStart, bestDur := 0.0, 0.0
		for _, c := range copies {
			if c.Proc == p {
				if c.Finish < best {
					best, bestProc = c.Finish, p
				}
				continue
			}
			dur := in.CommCost(c.Proc, p, pe.Data)
			if dur == 0 {
				if c.Finish < best {
					best, bestProc = c.Finish, p
				}
				continue
			}
			start := st.TransferStart(c.Proc, p, c.Finish, dur)
			if start+dur < best {
				best, bestProc, bestStart, bestDur = start+dur, c.Proc, start, dur
			}
		}
		if reserve && bestProc != -1 && bestProc != p && bestDur > 0 {
			st.Reserve(bestProc, p, bestStart, bestDur)
		}
		if best > ready {
			ready = best
		}
	}
	return ready
}

// FindSlot returns the earliest start time >= ready at which an interval
// of length dur fits on processor p. With insertion enabled it scans idle
// gaps between existing assignments; otherwise it appends after the last
// assignment. When the processor is blocked (BlockProc) and the interval
// would extend past the block, it returns +Inf.
//
// A processor whose gap index holds no finite gap answers an insertion
// query at least the index's m long without searching: at ready when
// ready is at or past the tail, else at the tail (timeline.TailOnly).
func (pl *Plan) FindSlot(p int, ready, dur float64, insertion bool) float64 {
	var start float64
	gi := pl.gaps[p]
	tail, tailOnly := gi.TailOnly()
	switch {
	case !insertion:
		start = math.Max(ready, pl.ProcReady(p))
	case tailOnly && ready >= tail:
		start = ready // as EarliestFit answers: a max would turn −0 into +0
	case tailOnly && dur >= gi.MinDur():
		start = tail
	default:
		start = pl.insertionSlot(p, ready, dur)
	}
	if start+dur > pl.blockedFrom[p]+timeline.Eps {
		return math.Inf(1)
	}
	return start
}

// insertionSlot answers an insertion query from the gap index, or with
// the linear reference scan where the index cannot.
func (pl *Plan) insertionSlot(p int, ready, dur float64) float64 {
	if start, ok := pl.gaps[p].EarliestFit(ready, dur); ok {
		return start
	}
	// Degraded gap index, or a query shorter than any task before the
	// tail: answer with the linear reference scan.
	prevFinish := 0.0
	for _, a := range pl.procs[p] {
		start := math.Max(ready, prevFinish)
		if start+dur <= a.Start+timeline.Eps {
			return start
		}
		if a.Finish > prevFinish {
			prevFinish = a.Finish
		}
	}
	return math.Max(ready, prevFinish)
}

// EFTOn returns the insertion-policy earliest start and finish of task i
// on processor p given the current partial schedule.
func (pl *Plan) EFTOn(i dag.TaskID, p int, insertion bool) (start, finish float64) {
	ready := pl.DataReady(i, p)
	dur := pl.in.Cost(i, p)
	start = pl.FindSlot(p, ready, dur, insertion)
	return start, start + dur
}

// BestEFT returns the processor minimizing the earliest finish time of
// task i, with its start and finish: the same answer, bit for bit, as
// calling EFTOn on every processor in id order and keeping the first
// smallest finish, so ties break toward the smaller processor id. When
// no processor has a feasible slot (every processor blocked via
// BlockProc), it returns start = finish = +Inf with proc 0; callers that
// schedule against blockable plans must check math.IsInf(finish, 1)
// before placing.
func (pl *Plan) BestEFT(i dag.TaskID, insertion bool) (proc int, start, finish float64) {
	start, finish = math.Inf(1), math.Inf(1)
	w := pl.in.W[i] // read before the row, so both cache misses overlap
	for p, ready := range pl.ReadyRow(i) {
		dur := w[p]
		// finish on p is at least ready+dur (slots never start before
		// ready, and float addition is monotone), so a processor whose
		// floor already loses — or ties, which keep the earlier, smaller
		// id — skips the slot search entirely.
		if ready+dur >= finish {
			continue
		}
		s := pl.FindSlot(p, ready, dur, insertion)
		if f := s + dur; f < finish {
			proc, start, finish = p, s, f
		}
	}
	return proc, start, finish
}

// Place assigns the primary copy of task i to processor p at the given
// start time. It does not re-derive start: algorithms decide placement,
// the plan records it. It panics if the task is already scheduled.
//
// Under a contended communication model Place first commits the port
// reservations of the task's input transfers and re-derives the start —
// never earlier than the caller's — against the committed network state,
// exactly as the caller's estimate did against the uncommitted one.
func (pl *Plan) Place(i dag.TaskID, p int, start float64) Assignment {
	if pl.Scheduled(i) {
		panic(fmt.Sprintf("sched: task %d placed twice", i))
	}
	pl.placed++
	return pl.insert(i, p, start, false)
}

// PlaceDup adds a duplicate copy of task i on processor p. The task's
// primary copy must already exist. Under a contended model the copy's
// input transfers are reserved like a primary's.
func (pl *Plan) PlaceDup(i dag.TaskID, p int, start float64) Assignment {
	if !pl.Scheduled(i) {
		panic(fmt.Sprintf("sched: duplicating unscheduled task %d", i))
	}
	return pl.insert(i, p, start, true)
}

// insert records a copy of task i on processor p — under a contended
// model at the start re-derived after reserving its input transfers: the
// earliest slot at or after both the caller's start and the committed
// data-ready time — and journals it while a trial is open.
func (pl *Plan) insert(i dag.TaskID, p int, start float64, dup bool) Assignment {
	commMark := -1
	if pl.comm != nil {
		commMark = pl.comm.Mark()
		if ready := pl.commReady(i, p, true); ready > start {
			start = ready
		}
		start = pl.FindSlot(p, start, pl.in.Cost(i, p), true)
	}
	a := Assignment{Task: i, Proc: p, Start: start, Finish: start + pl.in.Cost(i, p), Dup: dup}
	// Order by start, then finish: a zero-length copy sorts before the
	// copy that starts with it, so the last copy has the latest finish
	// (ProcReady reads it). The predicate is monotone over the sorted
	// list, so a copy the last one does not follow goes last.
	t := pl.procs[p]
	follows := func(j int) bool { return t[j].Start > a.Start || t[j].Start == a.Start && t[j].Finish > a.Finish }
	k := len(t)
	if k > 0 && follows(k-1) {
		k = sort.Search(k, follows)
	}
	t = append(t, Assignment{})
	copy(t[k+1:], t[k:])
	t[k] = a
	pl.procs[p] = t
	occ := pl.gaps[p].OccupyLogged(a.Start, a.Finish)
	// Place only takes a task with no copy, so a primary lands in the
	// task's arena slot without allocating and a duplicate goes last.
	pl.byTask[a.Task] = append(pl.byTask[a.Task], a)
	if pl.trial {
		pl.journal = append(pl.journal, placement{a: a, slot: k, occ: occ, commMark: commMark})
	}
	return a
}

// Mark opens a trial, unless one is open already, and returns the
// current journal position. While a trial is open every Place and
// PlaceDup is journaled, so Undo can take it back exactly; queries see
// the trial's placements like any other. A speculative scheduler marks,
// places, scores and undoes once per candidate, then closes the trial
// with Commit. Trials do not nest: the marks of one trial are positions
// in a single journal.
func (pl *Plan) Mark() Mark {
	pl.trial = true
	return Mark(len(pl.journal))
}

// Undo takes back, newest first, every placement journaled after m.
// Timelines, task copies, the gap indexes' gap sets and priority
// counters, and comm reservations are restored to their state at m (an
// occupy that degraded a gap index leaves it degraded, which affects
// query cost, never answers; see timeline.Revert). The trial stays open:
// a plan rewound to the trial's opening mark still journals what it
// places next.
func (pl *Plan) Undo(m Mark) {
	for len(pl.journal) > int(m) {
		r := pl.journal[len(pl.journal)-1]
		pl.journal = pl.journal[:len(pl.journal)-1]
		if r.commMark >= 0 {
			pl.comm.Undo(r.commMark)
		}
		p, t := r.a.Proc, r.a.Task
		procs := pl.procs[p]
		copy(procs[r.slot:], procs[r.slot+1:])
		pl.procs[p] = procs[:len(procs)-1]
		pl.gaps[p].Revert(r.occ)
		// Undo runs newest first, so the copy this record added is the
		// task's last one; a primary is its only one.
		pl.byTask[t] = pl.byTask[t][:len(pl.byTask[t])-1]
		if !r.a.Dup {
			pl.placed--
		}
	}
}

// Commit closes the trial: the placements it did not undo stay, and the
// journal is dropped. Placements made with no trial open are not
// journaled.
func (pl *Plan) Commit() {
	pl.trial = false
	pl.journal = pl.journal[:0]
}

// AppendPlaced appends to dst the assignments journaled since m, oldest
// first — what the trial placed after m and has not undone.
func (pl *Plan) AppendPlaced(dst []Assignment, m Mark) []Assignment {
	for _, r := range pl.journal[m:] {
		dst = append(dst, r.a)
	}
	return dst
}

// Makespan returns the latest finish time of any primary copy placed so
// far.
func (pl *Plan) Makespan() float64 {
	ms := 0.0
	for _, copies := range pl.byTask {
		if len(copies) > 0 && copies[0].Finish > ms {
			ms = copies[0].Finish
		}
	}
	return ms
}

// Clone returns a deep copy of the plan with no trial open; the
// clone-based reference schedulers evaluate tentative placements on it.
func (pl *Plan) Clone() *Plan {
	cp := &Plan{
		in:          pl.in,
		procs:       make([][]Assignment, len(pl.procs)),
		byTask:      make([][]Assignment, len(pl.byTask)),
		placed:      pl.placed,
		blockedFrom: append([]float64(nil), pl.blockedFrom...),
		gaps:        make([]*timeline.GapIndex, len(pl.gaps)),
		row:         make([]float64, len(pl.row)),
	}
	if pl.comm != nil {
		cp.comm = pl.comm.Clone()
	}
	for p := range pl.procs {
		cp.procs[p] = append([]Assignment(nil), pl.procs[p]...)
		cp.gaps[p] = pl.gaps[p].Clone()
	}
	// Rebuild the copy lists on a fresh arena: tasks with at most one copy
	// (nearly all of them) share it, capacity-clamped so a later append
	// spills to the heap instead of clobbering the neighbouring slot; only
	// duplicated tasks need their own heap slice.
	arena := make([]Assignment, pl.in.N())
	for i := range pl.byTask {
		src := pl.byTask[i]
		switch len(src) {
		case 0:
			cp.byTask[i] = arena[i : i : i+1]
		case 1:
			arena[i] = src[0]
			cp.byTask[i] = arena[i : i+1 : i+1]
		default:
			cp.byTask[i] = append([]Assignment(nil), src...)
		}
	}
	return cp
}

// Finalize converts the plan into an immutable Schedule attributed to the
// named algorithm. It panics if any task is unscheduled: algorithms must
// be total.
func (pl *Plan) Finalize(algorithm string) *Schedule {
	if !pl.Done() {
		panic(fmt.Sprintf("sched: finalize with %d of %d tasks scheduled", pl.placed, pl.in.N()))
	}
	return buildSchedule(pl.in, algorithm, pl.procs)
}
