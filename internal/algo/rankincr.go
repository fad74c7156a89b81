package algo

import (
	"math/bits"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

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
	// dirty marks the tasks awaiting evaluation by topological position,
	// one bit each. Update leaves it all zero.
	dirty []uint64

	// Repaired counts the tasks the last Update recomputed; it equals
	// the task count when every rank was recomputed.
	Repaired int
}

// NewRankTracker returns an empty tracker; the first Update initializes
// it, recomputing every rank — everything is new.
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
// and keeps neither.
//
// The dirty set is a bitmap over positions, swept from the highest set
// bit down. A task's predecessors all sit below it, so every mark the
// sweep adds lands below the cursor: the sweep takes each task at the
// highest dirty position, after all its successors are final, and never
// marks a task twice. Marks stay counted, and the sweep stops when the
// count reaches zero, so it scans only the words from the highest dirty
// position's down to the lowest's: about (highest − lowest)/64.
func (rt *RankTracker) Update(in *sched.Instance, oldN int, newEdges []dag.Edge, pos []int, order []dag.TaskID) {
	n := in.N()
	for len(rt.ranks) < n {
		rt.ranks = append(rt.ranks, 0)
	}
	for len(rt.dirty) < (n+63)/64 {
		rt.dirty = append(rt.dirty, 0)
	}
	// Seed the dirty set: new tasks need a first value; the tail of a new
	// arc gained a successor term. The head's own rank is unaffected.
	marked, top := 0, 0
	mark := func(p int) {
		w, b := p>>6, uint64(1)<<(p&63)
		if rt.dirty[w]&b == 0 {
			rt.dirty[w] |= b
			marked++
			top = max(top, w)
		}
	}
	for v := oldN; v < n; v++ {
		mark(pos[v])
	}
	for _, e := range newEdges {
		mark(pos[e.From])
	}

	rt.Repaired = 0
	for w := top; marked > 0; {
		word := rt.dirty[w]
		if word == 0 {
			w--
			continue
		}
		b := 63 - bits.LeadingZeros64(word)
		rt.dirty[w] = word &^ (1 << b)
		marked--
		v := order[w<<6|b]
		old := rt.ranks[v]
		nv := rt.rank(in, v)
		rt.Repaired++
		if int(v) < oldN && nv == old {
			continue // bit-equal: predecessors see unchanged inputs
		}
		rt.ranks[v] = nv
		for _, p := range in.G.Pred(v) {
			mark(pos[p.To])
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
