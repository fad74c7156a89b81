package algo

import (
	"math"

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
	// The caller owns TopoOrder's copy: it lists the ties, then backs
	// the output.
	return greedyOrder(g, prio, g.TopoOrder(), false)
}

// ReadyOrder is OrderDescPrecedence with ties toward the lower task id:
// the sequence in which a ReadyList yields g's tasks when each pick is
// the ready task of highest priority, the first in id order on a tie.
// That pick never depends on where earlier tasks were placed, so a
// ready-list scheduler can take its whole order up front.
func ReadyOrder(g *dag.Graph, prio []float64) []dag.TaskID {
	ids := make([]dag.TaskID, g.Len())
	for i := range ids {
		ids[i] = dag.TaskID(i)
	}
	return greedyOrder(g, prio, ids, true)
}

// greedyOrder returns g's tasks in the order the greedy pick takes them:
// each time the ready task first under (priority descending, tie key
// ascending), where ties lists every task in ascending tie key (task id
// when idTies, else topological position). The result reuses ties.
//
// When every arc u→v puts u first under that key (descends), the tasks
// sorted by it are the greedy order: the sort lists every arc's tail
// before its head, so each task is ready when its turn comes, and as the
// first of all remaining tasks it is the first ready one too. The sort
// is a stable radix sort of ties, which takes O(n+e) in all. A priority
// that rises along an arc (CPOP's rank_u + rank_d, MCP's zero-cost
// corner) or is NaN leaves the greedy pick to a ready heap,
// O((n+e) log n).
func greedyOrder(g *dag.Graph, prio []float64, ties []dag.TaskID, idTies bool) []dag.TaskID {
	if descends(g, prio, idTies) {
		return sortDesc(prio, ties)
	}
	h := readyHeap{prio: prio}
	if !idTies {
		h.pos = make([]int32, len(ties))
		for i, v := range ties {
			h.pos[v] = int32(i)
		}
	}
	order := ties[:0]
	pending := make([]int32, g.Len())
	for i := range pending {
		pending[i] = int32(g.InDegree(dag.TaskID(i)))
		if pending[i] == 0 {
			h.push(dag.TaskID(i))
		}
	}
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

// descends reports whether no priority is NaN and every arc u→v puts u
// first under greedyOrder's key: prio[u] >= prio[v] on topological ties
// (u precedes v in any topological order), and prio[u] > prio[v], or
// equal priorities and u < v, on id ties. One pass over the successor
// lists, stopping at the first arc that fails.
func descends(g *dag.Graph, prio []float64, idTies bool) bool {
	for u := range g.Len() {
		pu := prio[u]
		if math.IsNaN(pu) {
			return false // an isolated task has no arc to fail
		}
		for _, a := range g.Succ(dag.TaskID(u)) {
			pv := prio[a.To]
			if !(pu > pv || pu == pv && (!idTies || dag.TaskID(u) < a.To)) {
				return false
			}
		}
	}
	return true
}

// sortDesc sorts ts by decreasing priority, stably, with an LSD radix sort
// over descKey's 8-bit digits, skipping each digit every task shares. Each
// pass recomputes the keys from prio rather than carrying them, so the
// sort needs one scratch slice; the result is ts or the scratch.
func sortDesc(prio []float64, ts []dag.TaskID) []dag.TaskID {
	n := len(ts)
	if n < 2 {
		return ts
	}
	var count [8][256]int32
	for _, t := range ts {
		k := descKey(prio[t])
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	first, buf := descKey(prio[ts[0]]), make([]dag.TaskID, n)
	for d := range count {
		c, shift := &count[d], 8*d
		if c[byte(first>>shift)] == int32(n) {
			continue
		}
		sum := int32(0)
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		for _, t := range ts {
			b := byte(descKey(prio[t]) >> shift)
			buf[c[b]] = t
			c[b]++
		}
		ts, buf = buf, ts
	}
	return ts
}

// descKey maps a priority that is not NaN to a key whose ascending order
// is the priorities' descending order, −0 and +0 one key as they tie in
// the heap's comparison.
func descKey(x float64) uint64 {
	if x == 0 {
		x = 0 // −0 to +0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		b = ^b // a negative priority: the larger its magnitude, the lower
	} else {
		b |= 1 << 63
	}
	return ^b
}

// readyHeap is a binary max-heap of ready tasks keyed by (priority,
// earlier tie position), where a nil pos ranks by task id. Either tie key
// is unique, so the order is total and the pop sequence deterministic.
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
	if h.pos == nil {
		return a < b
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
// It drives the heuristics whose pick depends on the placements so far
// (ETF's pair order, DLS, ISH's hole fill); a pick by priority alone is
// ReadyOrder.
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
// on processor p given the current plan, provided that parent has no copy
// on p already (so duplicating it could help), along with its arrival
// time. It returns (-1, 0) when t has no remote critical parent.
func CriticalParent(pl *sched.Plan, t dag.TaskID, p int) (dag.TaskID, float64) {
	in := pl.Instance()
	best := dag.TaskID(-1)
	bestArrival := 0.0
	for _, pe := range in.G.Pred(t) {
		arrival := arrivalOn(pl, pe.To, p, pe.Data)
		local := false
		for _, c := range pl.Copies(pe.To) {
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
func arrivalOn(pl *sched.Plan, m dag.TaskID, p int, data float64) float64 {
	in := pl.Instance()
	best := -1.0
	for _, c := range pl.Copies(m) {
		t := c.Finish + in.CommCost(c.Proc, p, data)
		if best < 0 || t < best {
			best = t
		}
	}
	return best
}

// DupResult reports the outcome of a duplication trial. The accepted
// duplicates stay placed in the trial's plan; the caller places the task
// at the reported start, or undoes the trial.
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
// The trial runs in pl's trial journal, opening a trial if none is
// open: accepted duplicates stay placed and journaled, rejected ones are
// undone at once. The caller undoes the whole trial to a mark taken
// before the call, or closes it with Commit to keep the duplicates. A
// trial therefore costs O(changes) — the clone-based reference semantics
// are preserved bit for bit (proven by the differential suite).
func TryDuplication(pl *sched.Plan, t dag.TaskID, p int, maxDups int) DupResult {
	in := pl.Instance()
	dur := in.Cost(t, p)
	start := pl.FindSlot(p, pl.DataReady(t, p), dur, true)
	dups := 0
	for dups < maxDups {
		parent, arrival := CriticalParent(pl, t, p)
		if parent == -1 || arrival <= start-slackEps {
			// No remote parent dominates the start time.
			break
		}
		m := pl.Mark()
		pready := pl.DataReady(parent, p)
		pslot := pl.FindSlot(p, pready, in.Cost(parent, p), true)
		pl.PlaceDup(parent, p, pslot)
		newStart := pl.FindSlot(p, pl.DataReady(t, p), dur, true)
		if newStart >= start-slackEps {
			pl.Undo(m) // duplication did not strictly help
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
// journal position of the best start seen, and rewinds pl to it. This
// recovers cases where only a combination of duplicated parents pays
// off. Like TryDuplication it is limited to direct parents and bounded
// by maxDups. Termination: every accepted duplicate makes one more
// parent local on p, and local parents are never candidates again.
func TryDuplicationChain(pl *sched.Plan, t dag.TaskID, p int, maxDups int) DupResult {
	in := pl.Instance()
	dur := in.Cost(t, p)
	start := pl.FindSlot(p, pl.DataReady(t, p), dur, true)
	best := DupResult{Start: start, Finish: start + dur}
	bestMark := pl.Mark()
	dups := 0
	for dups < maxDups {
		parent, arrival := CriticalParent(pl, t, p)
		// Unlike TryDuplication, duplicate even when the parent is not
		// strictly binding: the chain may pay off later. Stop only when
		// data already arrives at time zero.
		if parent == -1 || arrival <= 0 {
			break
		}
		pready := pl.DataReady(parent, p)
		pslot := pl.FindSlot(p, pready, in.Cost(parent, p), true)
		pl.PlaceDup(parent, p, pslot)
		dups++
		start = pl.FindSlot(p, pl.DataReady(t, p), dur, true)
		if start < best.Start {
			best = DupResult{Start: start, Finish: start + dur, Dups: dups}
			bestMark = pl.Mark()
		}
	}
	pl.Undo(bestMark)
	return best
}

const slackEps = 1e-9
