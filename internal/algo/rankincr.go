package algo

import (
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// DefaultDirtyFraction is the share of the graph a rank repair may
// recompute before abandoning the dirty-set walk for a full sweep. Past
// this point the repair's heap bookkeeping costs more than the flat
// sweep it avoids.
const DefaultDirtyFraction = 0.25

// RankTracker maintains HEFT upward ranks (sched.RankUpward) across
// graph growth. After a batch of appends it repairs only the dirty set —
// the new tasks, the tails of new arcs, and the ancestors a changed rank
// propagates to — instead of re-sweeping the whole graph.
//
// The repair is bit-identical to a full sched.RankUpward on the grown
// instance: dirty tasks are recomputed in decreasing topological
// position (all successors final before a task is evaluated) with the
// exact float expression of the full kernel, and propagation stops at
// any task whose recomputed rank equals its old value bit-for-bit —
// its predecessors' inputs are unchanged, so their full-sweep values
// are too.
type RankTracker struct {
	ranks []float64

	// Last-update statistics, for deltas and benchmarks.
	Repaired int  // tasks recomputed by the dirty-set walk
	Full     bool // whether the update fell back to the full sweep

	heap rankHeap
	inQ  []bool
}

// NewRankTracker returns an empty tracker; the first Update initializes
// it (and necessarily runs the full sweep — everything is new).
func NewRankTracker() *RankTracker { return &RankTracker{} }

// Ranks returns the maintained rank slice, indexed by task id. The
// tracker owns it; callers must not modify or retain it across Updates.
func (rt *RankTracker) Ranks() []float64 { return rt.ranks }

// Update repairs the ranks after in's graph grew. oldN is the task count
// at the previous Update (0 initially); newEdges are the arcs appended
// since, including arcs incident to new tasks. pos and order must be a
// valid topological order of exactly the grown graph's tasks: pos[v] is
// v's position and order its inverse (dag.Appendable.Order, for a
// streaming caller). The tracker reads them as views during the call
// and keeps neither. dirtyFrac bounds the dirty-set walk as a fraction
// of n; <= 0 selects DefaultDirtyFraction, >= 1 disables the fallback.
func (rt *RankTracker) Update(in *sched.Instance, oldN int, newEdges []dag.Edge, pos []int, order []dag.TaskID, dirtyFrac float64) {
	n := in.N()
	if dirtyFrac <= 0 {
		dirtyFrac = DefaultDirtyFraction
	}
	budget := n
	if dirtyFrac < 1 {
		budget = int(dirtyFrac * float64(n))
	}

	for len(rt.ranks) < n {
		rt.ranks = append(rt.ranks, 0)
		rt.inQ = append(rt.inQ, false)
	}
	rt.heap.reset(pos)
	// Seed the dirty set: new tasks need a first value; the tail of a new
	// arc gained a successor term. The head's own rank is unaffected.
	for v := oldN; v < n; v++ {
		rt.push(dag.TaskID(v))
	}
	for _, e := range newEdges {
		rt.push(e.From)
	}

	if rt.heap.len() > budget {
		rt.fallback(in, order)
		return
	}

	rt.Repaired, rt.Full = 0, false
	for rt.heap.len() > 0 {
		if rt.Repaired >= budget {
			rt.fallback(in, order)
			return
		}
		v := rt.heap.pop()
		rt.inQ[v] = false
		old := rt.ranks[v]
		nv := rt.rank(in, v)
		rt.Repaired++
		if int(v) < oldN && nv == old {
			continue // bit-equal: predecessors see unchanged inputs
		}
		rt.ranks[v] = nv
		for _, p := range in.G.Pred(v) {
			rt.push(p.To)
		}
	}
}

// rank evaluates v's upward rank from its successors' current ranks:
// the exact expression of sched.RankUpward's inner loop, successors in
// CSR adjacency order.
func (rt *RankTracker) rank(in *sched.Instance, v dag.TaskID) float64 {
	best := 0.0
	for j, a := range in.G.Succ(v) {
		if cand := in.MeanCommSucc(v, j) + rt.ranks[a.To]; cand > best {
			best = cand
		}
	}
	return in.MeanCost(v) + best
}

// fallback abandons the dirty walk for a full sweep of the maintained
// order, last position first: every successor is final before its
// predecessors read it, so the sweep is bit-identical to
// sched.RankUpward and needs no level sets.
func (rt *RankTracker) fallback(in *sched.Instance, order []dag.TaskID) {
	for rt.heap.len() > 0 {
		rt.inQ[rt.heap.pop()] = false
	}
	for i := len(order) - 1; i >= 0; i-- {
		rt.ranks[order[i]] = rt.rank(in, order[i])
	}
	rt.Repaired, rt.Full = in.N(), true
}

func (rt *RankTracker) push(v dag.TaskID) {
	if !rt.inQ[v] {
		rt.inQ[v] = true
		rt.heap.push(v)
	}
}

// rankHeap is a max-heap of task ids keyed by topological position:
// popping yields the task latest in the order, so all its (possibly
// dirty) successors were already finalized.
type rankHeap struct {
	pos   []int
	items []dag.TaskID
}

func (h *rankHeap) reset(pos []int) {
	h.pos = pos
	h.items = h.items[:0]
}

func (h *rankHeap) len() int { return len(h.items) }

func (h *rankHeap) push(v dag.TaskID) {
	h.items = append(h.items, v)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.pos[h.items[parent]] >= h.pos[h.items[i]] {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *rankHeap) pop() dag.TaskID {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.items) && h.pos[h.items[l]] > h.pos[h.items[big]] {
			big = l
		}
		if r < len(h.items) && h.pos[h.items[r]] > h.pos[h.items[big]] {
			big = r
		}
		if big == i {
			return top
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
}
