package algo

import (
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// OrderDescPrecedence returns the static list-scheduling order: it
// repeatedly takes the highest-priority ready task (every predecessor
// already taken), ties toward the earlier topological position. The
// order is precedence-valid for any priority. For priorities that never
// increase along an edge (upward rank, static level) it is exactly the
// tasks sorted by decreasing priority with topological tie-breaks; for
// others, like CPOP's rank_u + rank_d, that sort would break precedence.
func OrderDescPrecedence(g *dag.Graph, prio []float64) []dag.TaskID {
	n := g.Len()
	// The caller owns TopoOrder's copy: it yields the positions, then
	// backs the output.
	order := g.TopoOrder()
	h := readyHeap{prio: prio, pos: make([]int32, n)}
	for i, v := range order {
		h.pos[v] = int32(i)
	}
	pending := make([]int32, n)
	for i := range pending {
		pending[i] = int32(g.InDegree(dag.TaskID(i)))
		if pending[i] == 0 {
			h.push(dag.TaskID(i))
		}
	}
	order = order[:0]
	for len(h.ts) > 0 {
		t := h.pop()
		order = append(order, t)
		for _, a := range g.Succ(t) {
			pending[a.To]--
			if pending[a.To] == 0 {
				h.push(a.To)
			}
		}
	}
	return order
}

// readyHeap is a binary max-heap of ready tasks keyed by (priority,
// earlier topological position). Positions are unique, so the order is
// total and the pop sequence deterministic.
type readyHeap struct {
	ts   []dag.TaskID
	prio []float64
	pos  []int32
}

// before reports whether a pops before b.
func (h *readyHeap) before(a, b dag.TaskID) bool {
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return h.pos[a] < h.pos[b]
}

func (h *readyHeap) push(t dag.TaskID) {
	h.ts = append(h.ts, t)
	i := len(h.ts) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !h.before(t, h.ts[up]) {
			break
		}
		h.ts[i] = h.ts[up]
		i = up
	}
	h.ts[i] = t
}

func (h *readyHeap) pop() dag.TaskID {
	top := h.ts[0]
	last := len(h.ts) - 1
	t := h.ts[last]
	h.ts = h.ts[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.before(h.ts[r], h.ts[c]) {
			c = r
		}
		if !h.before(h.ts[c], t) {
			break
		}
		h.ts[i] = h.ts[c]
		i = c
	}
	h.ts[i] = t
	return top
}

// ReadyList tracks which unscheduled tasks have all predecessors placed.
// It is the driver for dynamic-priority heuristics (ETF, DLS, CPOP, ...).
type ReadyList struct {
	g       *dag.Graph
	pending []int // unscheduled predecessor count per task
	ready   []dag.TaskID
}

// NewReadyList returns a ready list seeded with the entry tasks.
func NewReadyList(g *dag.Graph) *ReadyList {
	rl := &ReadyList{g: g, pending: make([]int, g.Len())}
	for i := 0; i < g.Len(); i++ {
		rl.pending[i] = g.InDegree(dag.TaskID(i))
		if rl.pending[i] == 0 {
			rl.ready = append(rl.ready, dag.TaskID(i))
		}
	}
	return rl
}

// Ready returns the current ready tasks in ascending id order. The slice
// must not be modified.
func (rl *ReadyList) Ready() []dag.TaskID { return rl.ready }

// Empty reports whether no task is ready.
func (rl *ReadyList) Empty() bool { return len(rl.ready) == 0 }

// Complete marks task v scheduled, removing it from the ready set and
// releasing any successors whose predecessors are now all scheduled.
func (rl *ReadyList) Complete(v dag.TaskID) {
	for i, r := range rl.ready {
		if r == v {
			rl.ready = append(rl.ready[:i], rl.ready[i+1:]...)
			break
		}
	}
	for _, a := range rl.g.Succ(v) {
		rl.pending[a.To]--
		if rl.pending[a.To] == 0 {
			// Keep ascending order for determinism.
			k := len(rl.ready)
			for k > 0 && rl.ready[k-1] > a.To {
				k--
			}
			rl.ready = append(rl.ready, 0)
			copy(rl.ready[k+1:], rl.ready[k:])
			rl.ready[k] = a.To
		}
	}
}

// CriticalParent returns the predecessor of task t whose data arrives last
// on processor p given the current view, provided that parent has no copy
// on p already (so duplicating it could help), along with its arrival
// time. It returns (-1, 0) when t has no remote critical parent.
func CriticalParent(v sched.View, t dag.TaskID, p int) (dag.TaskID, float64) {
	in := v.Instance()
	best := dag.TaskID(-1)
	bestArrival := 0.0
	for _, pe := range in.G.Pred(t) {
		arrival := arrivalOn(v, pe.To, p, pe.Data)
		local := false
		for _, c := range v.Copies(pe.To) {
			if c.Proc == p {
				local = true
				break
			}
		}
		if !local && arrival > bestArrival {
			best, bestArrival = pe.To, arrival
		}
	}
	return best, bestArrival
}

// arrivalOn returns the earliest time data units from any copy of task m
// reach processor p.
func arrivalOn(v sched.View, m dag.TaskID, p int, data float64) float64 {
	in := v.Instance()
	best := -1.0
	for _, c := range v.Copies(m) {
		t := c.Finish + in.CommCost(c.Proc, p, data)
		if best < 0 || t < best {
			best = t
		}
	}
	return best
}

// DupResult reports the outcome of a duplication trial. The accepted
// duplicates live in the transaction the trial ran in; the caller commits
// the winning transaction and places the task at the reported start.
type DupResult struct {
	// Start and Finish are the candidate task's achievable window on the
	// trial processor after duplication.
	Start, Finish float64
	// Dups counts accepted duplicate copies.
	Dups int
}

// TryDuplication evaluates placing task t on processor p with greedy
// critical-parent duplication (the DSH strategy): while the task's start
// on p is dominated by data from a remote direct parent, try to duplicate
// that parent into an idle slot on p; keep the duplicate only if the start
// time strictly improves. After one parent becomes local another parent
// may become the binding constraint and is tried next; duplication is
// limited to direct parents (no grandparent recursion), bounded by
// maxDups.
//
// The trial runs inside tx: accepted duplicates stay journaled in it,
// rejected ones are rolled back immediately, and the base plan is never
// touched. A trial therefore costs O(changes) — the clone-based reference
// semantics are preserved bit for bit (proven by the differential suite).
func TryDuplication(tx *sched.Txn, t dag.TaskID, p int, maxDups int) DupResult {
	in := tx.Instance()
	dur := in.Cost(t, p)
	start := tx.FindSlot(p, tx.DataReady(t, p), dur, true)
	dups := 0
	for dups < maxDups {
		parent, arrival := CriticalParent(tx, t, p)
		if parent == -1 || arrival <= start-slackEps {
			// No remote parent dominates the start time.
			break
		}
		m := tx.Mark()
		pready := tx.DataReady(parent, p)
		pslot := tx.FindSlot(p, pready, in.Cost(parent, p), true)
		tx.PlaceDup(parent, p, pslot)
		newStart := tx.FindSlot(p, tx.DataReady(t, p), dur, true)
		if newStart >= start-slackEps {
			tx.Undo(m) // duplication did not strictly help
			break
		}
		start = newStart
		dups++
	}
	return DupResult{Start: start, Finish: start + dur, Dups: dups}
}

// TryDuplicationChain evaluates placing task t on processor p with the
// BTDH strategy: it keeps duplicating remote critical parents even when
// one duplicate alone does not improve the start time, remembers the
// journal position of the best start seen, and rewinds tx to it. This
// recovers cases where only a combination of duplicated parents pays
// off. Like TryDuplication it is limited to direct parents and bounded
// by maxDups. Termination: every accepted duplicate makes one more
// parent local on p, and local parents are never candidates again.
func TryDuplicationChain(tx *sched.Txn, t dag.TaskID, p int, maxDups int) DupResult {
	in := tx.Instance()
	dur := in.Cost(t, p)
	start := tx.FindSlot(p, tx.DataReady(t, p), dur, true)
	best := DupResult{Start: start, Finish: start + dur}
	bestMark := tx.Mark()
	dups := 0
	for dups < maxDups {
		parent, arrival := CriticalParent(tx, t, p)
		// Unlike TryDuplication, duplicate even when the parent is not
		// strictly binding: the chain may pay off later. Stop only when
		// data already arrives at time zero.
		if parent == -1 || arrival <= 0 {
			break
		}
		pready := tx.DataReady(parent, p)
		pslot := tx.FindSlot(p, pready, in.Cost(parent, p), true)
		tx.PlaceDup(parent, p, pslot)
		dups++
		start = tx.FindSlot(p, tx.DataReady(t, p), dur, true)
		if start < best.Start {
			best = DupResult{Start: start, Finish: start + dur, Dups: dups}
			bestMark = tx.Mark()
		}
	}
	tx.Undo(bestMark)
	return best
}

const slackEps = 1e-9
