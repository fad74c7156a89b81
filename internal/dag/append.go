package dag

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Appendable is a growable builder view over the CSR Graph substrate for
// streaming workloads: tasks and edges are appended over time, every
// append is validated eagerly (the streaming engine needs a per-event
// verdict, not a deferred Build error), and acyclicity is maintained
// incrementally — a cycle-creating edge is rejected in O(affected
// region) without touching the accumulated state, instead of re-running
// Kahn over the whole graph per event.
//
// The incremental machinery follows Pearce & Kelly's dynamic topological
// order: ord[v] is v's position in a maintained topological order. An
// edge (from, to) with ord[from] < ord[to] is consistent and costs O(out
// degree) to validate; a violating edge triggers a bounded discovery of
// the affected region (the tasks ordered between to and from) and a
// permutation of only those positions. Reaching from while walking
// forward from to proves the cycle before anything is mutated.
//
// Two ways publish the accumulated structure as a *Graph. Seal batches
// it into a fresh immutable graph: one CSR fill, with the topo cache
// primed by a Kahn pass. Grow publishes it into one live graph that the
// Appendable keeps and extends in place, paying only for what was
// appended since the previous Grow; the streaming engine's flush loop
// runs on it. The PK order validates appends; the canonical Kahn order
// is what Builder.Build primes, so a sealed stream is bit-identical to a
// statically built graph (tie-breaks in the list schedulers read
// topological positions), and the live graph computes the same order
// when something first asks for it. Neither consumes the Appendable:
// appending continues.
type Appendable struct {
	name  string
	tasks []Task
	succ  [][]Adj // per-task successor lists, sorted by neighbor id
	pred  [][]Adj // per-task predecessor lists, sorted by neighbor id
	edges int

	ord   []int    // ord[v]: v's position in the maintained topological order
	byPos []TaskID // inverse permutation: byPos[ord[v]] = v

	// DFS scratch, reused across reorders: mark[v] == gen marks v visited
	// in the current pass, so clearing is O(0) per reorder.
	mark []uint32
	gen  uint32

	// The live graph Grow publishes into, with each block's capacity
	// (index 0 successor blocks, 1 predecessor blocks). keep[d][v] is the
	// unchanged prefix of a published block that took arcs since the last
	// Grow, -1 while it took none; touched lists those blocks.
	live    *Graph
	cap     [2][]int32
	keep    [2][]int32
	touched []BlockChange
	changes []BlockChange // Grow's result, reused
}

// NewAppendable returns an empty appendable graph with the given name.
func NewAppendable(name string) *Appendable { return &Appendable{name: name} }

// Len returns the number of tasks appended so far.
func (ap *Appendable) Len() int { return len(ap.tasks) }

// NumEdges returns the number of edges appended so far.
func (ap *Appendable) NumEdges() int { return ap.edges }

// Task returns the task with the given id.
func (ap *Appendable) Task(id TaskID) Task { return ap.tasks[id] }

// AddTask appends a task and returns its id. Ids are dense and assigned
// in arrival order. The weight must be finite and non-negative.
func (ap *Appendable) AddTask(name string, weight float64) (TaskID, error) {
	if weight < 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return 0, fmt.Errorf("dag: task %q has invalid weight %g", name, weight)
	}
	id := TaskID(len(ap.tasks))
	if name == "" {
		name = fmt.Sprintf("t%d", id)
	}
	ap.tasks = append(ap.tasks, Task{ID: id, Name: name, Weight: weight})
	ap.succ = append(ap.succ, nil)
	ap.pred = append(ap.pred, nil)
	// A fresh task has no edges; appending it at the end of the current
	// order is trivially consistent.
	ap.ord = append(ap.ord, len(ap.byPos))
	ap.byPos = append(ap.byPos, id)
	ap.mark = append(ap.mark, 0)
	return id, nil
}

// ErrWouldCycle reports that an appended edge would close a dependency
// cycle. It wraps ErrCycle so existing errors.Is(err, ErrCycle) checks
// also match.
var ErrWouldCycle = fmt.Errorf("%w (edge rejected)", ErrCycle)

// AddEdge appends a dependency from -> to carrying data units of
// communication. Out-of-range endpoints, self-loops, duplicate edges,
// invalid data volumes and cycle-creating edges are rejected; a rejected
// edge leaves the accumulated graph untouched.
func (ap *Appendable) AddEdge(from, to TaskID, data float64) error {
	n := len(ap.tasks)
	if from < 0 || int(from) >= n || to < 0 || int(to) >= n {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", from, to, n)
	}
	if from == to {
		return fmt.Errorf("dag: self-loop on task %d", from)
	}
	if data < 0 || math.IsNaN(data) || math.IsInf(data, 0) {
		return fmt.Errorf("dag: edge (%d,%d) has invalid data %g", from, to, data)
	}
	si := sort.Search(len(ap.succ[from]), func(k int) bool { return ap.succ[from][k].To >= to })
	if si < len(ap.succ[from]) && ap.succ[from][si].To == to {
		return fmt.Errorf("dag: duplicate edge (%d,%d)", from, to)
	}
	if ap.ord[from] > ap.ord[to] {
		if err := ap.reorder(from, to); err != nil {
			return err
		}
	}
	ap.succ[from] = insertAdj(ap.succ[from], si, Adj{To: to, Data: data})
	pi := sort.Search(len(ap.pred[to]), func(k int) bool { return ap.pred[to][k].To >= from })
	ap.pred[to] = insertAdj(ap.pred[to], pi, Adj{To: from, Data: data})
	ap.edges++
	ap.touch(from, false, si)
	ap.touch(to, true, pi)
	return nil
}

// touch records an insert at index at into a published task's block; a
// task the live graph does not have yet gets its whole block on Grow.
func (ap *Appendable) touch(v TaskID, pred bool, at int) {
	if ap.live == nil || int(v) >= ap.live.Len() {
		return
	}
	d := dir(pred)
	switch k := ap.keep[d][v]; {
	case k < 0:
		ap.keep[d][v] = int32(at)
		ap.touched = append(ap.touched, BlockChange{Task: v, Pred: pred})
	case int32(at) < k:
		ap.keep[d][v] = int32(at)
	}
}

func dir(pred bool) int {
	if pred {
		return 1
	}
	return 0
}

// insertAdj inserts a at position i, keeping the list sorted by To.
// Sorted insertion costs O(degree) per edge but lets Seal copy adjacency
// straight into CSR form with no per-seal sort — the right trade for the
// streaming flush loop, which seals once per batch.
func insertAdj(list []Adj, i int, a Adj) []Adj {
	list = append(list, Adj{})
	copy(list[i+1:], list[i:])
	list[i] = a
	return list
}

// reorder restores ord for a violating edge (from, to) — ord[from] >
// ord[to] on entry — or reports ErrWouldCycle without mutating anything.
// It discovers deltaF (tasks reachable forward from to within the
// affected position window) and deltaB (tasks reaching from backward
// within it), then reassigns the union of their positions: deltaB keeps
// its relative order and moves in front of deltaF, which also keeps its
// own. Only |deltaF| + |deltaB| positions change.
func (ap *Appendable) reorder(from, to TaskID) error {
	lb, ub := ap.ord[to], ap.ord[from]

	// Forward DFS from to, bounded above by ub. Reaching from proves
	// the new edge closes a cycle.
	ap.gen++
	deltaF := []TaskID{to}
	ap.mark[to] = ap.gen
	stack := []TaskID{to}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range ap.succ[v] {
			w := a.To
			if w == from {
				return ErrWouldCycle
			}
			if ap.mark[w] != ap.gen && ap.ord[w] < ub {
				ap.mark[w] = ap.gen
				deltaF = append(deltaF, w)
				stack = append(stack, w)
			}
		}
	}

	// Backward DFS from from, bounded below by lb. The two regions are
	// disjoint: a task in both would witness a path to -> ... -> from,
	// which the forward pass would have reported as a cycle.
	deltaB := []TaskID{from}
	ap.mark[from] = ap.gen
	stack = append(stack[:0], from)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range ap.pred[v] {
			w := a.To
			if ap.mark[w] != ap.gen && ap.ord[w] > lb {
				ap.mark[w] = ap.gen
				deltaB = append(deltaB, w)
				stack = append(stack, w)
			}
		}
	}

	// Sort both deltas by current position so each keeps its internal
	// order, pool their positions, and deal deltaB then deltaF back in.
	byOrd := func(set []TaskID) {
		sort.Slice(set, func(i, j int) bool { return ap.ord[set[i]] < ap.ord[set[j]] })
	}
	byOrd(deltaF)
	byOrd(deltaB)
	pool := make([]int, 0, len(deltaF)+len(deltaB))
	i, j := 0, 0
	for i < len(deltaB) || j < len(deltaF) {
		switch {
		case i == len(deltaB):
			pool = append(pool, ap.ord[deltaF[j]])
			j++
		case j == len(deltaF):
			pool = append(pool, ap.ord[deltaB[i]])
			i++
		case ap.ord[deltaB[i]] < ap.ord[deltaF[j]]:
			pool = append(pool, ap.ord[deltaB[i]])
			i++
		default:
			pool = append(pool, ap.ord[deltaF[j]])
			j++
		}
	}
	k := 0
	for _, v := range deltaB {
		ap.ord[v] = pool[k]
		ap.byPos[pool[k]] = v
		k++
	}
	for _, v := range deltaF {
		ap.ord[v] = pool[k]
		ap.byPos[pool[k]] = v
		k++
	}
	return nil
}

// Position returns v's position in the maintained topological order.
// Positions change as violating edges arrive; they are a valid
// topological order of the current graph at all times.
func (ap *Appendable) Position(v TaskID) int { return ap.ord[v] }

// Order returns the maintained topological order as views: pos[v] is
// v's position and order[i] the task at position i. Any
// dependency-respecting processing order may use it; the streaming
// engine's flush ranks its affected set in decreasing position and
// breaks priority ties by it. The slices are the Appendable's own: they
// change with the next AddTask or AddEdge, and callers must not modify
// them.
func (ap *Appendable) Order() (pos []int, order []TaskID) { return ap.ord, ap.byPos }

// Seal batches the accumulated structure into an immutable Graph: a
// straight CSR fill (adjacency is kept sorted on insertion) with the
// graph's topo cache primed with the canonical
// Kahn order (identical to what Builder.Build would produce for the same
// tasks and edges, so sealed streams and static builds are
// interchangeable). The Appendable stays usable; later appends are
// picked up by the next Seal.
func (ap *Appendable) Seal() (*Graph, error) {
	n := len(ap.tasks)
	if n == 0 {
		return nil, errors.New("dag: graph has no tasks")
	}
	g := &Graph{
		name:  ap.name,
		tasks: append([]Task(nil), ap.tasks...),
		edges: ap.edges,
	}
	// Adjacency is maintained sorted by neighbor id (insertAdj), so the
	// CSR fill is a straight copy.
	g.succ = pack(n, ap.edges, func(v TaskID) []Adj { return ap.succ[v] })
	g.pred = pack(n, ap.edges, func(v TaskID) []Adj { return ap.pred[v] })
	order, err := topoOrder(g)
	if err != nil {
		// The incremental order maintenance guarantees acyclicity; this
		// indicates memory corruption or misuse of package internals.
		return nil, err
	}
	g.topoOnce.Do(func() { g.topo = order })
	return g, nil
}

// BlockChange describes one arc block that Grow rewrote: the task and
// direction, the block's offset before the Grow (-1 for a task the live
// graph did not have), and Keep, the length of its prefix that is
// unchanged. The block may have moved: its current offset is SuccStart
// or PredStart. Arcs from Keep on are new or shifted.
type BlockChange struct {
	Task   TaskID
	Pred   bool
	OldOff int
	Keep   int
}

// Grow publishes everything appended since the previous call into the
// live graph and returns it with the blocks it rewrote (a slice reused
// by the next call). The graph is the same *Graph every time, extended
// in place: it is valid until the next Grow, and a caller must not share
// it. New tasks get blocks with spare capacity at the tail of the arc
// arrays. An arc into an existing block is written at its sorted
// position; a block out of capacity moves to the tail with twice the
// room, leaving its old slots unused. The traversal caches are reset, so
// the canonical Kahn order and the level sets are computed only when
// something asks for them.
func (ap *Appendable) Grow() (*Graph, []BlockChange, error) {
	n := len(ap.tasks)
	if n == 0 {
		return nil, nil, errors.New("dag: graph has no tasks")
	}
	g := ap.live
	if g == nil {
		g = &Graph{name: ap.name}
		ap.live = g
	}
	ap.changes = ap.changes[:0]
	for _, c := range ap.touched {
		d := dir(c.Pred)
		c.OldOff, c.Keep = int(g.side(c.Pred).off[c.Task]), int(ap.keep[d][c.Task])
		ap.keep[d][c.Task] = -1
		ap.writeBlock(g, c.Task, c.Pred, c.Keep)
		ap.changes = append(ap.changes, c)
	}
	ap.touched = ap.touched[:0]
	for v := TaskID(len(g.tasks)); int(v) < n; v++ {
		for d, pred := range [2]bool{false, true} {
			b := g.side(pred)
			b.off, b.end = append(b.off, 0), append(b.end, 0)
			ap.cap[d] = append(ap.cap[d], 0)
			ap.keep[d] = append(ap.keep[d], -1)
			if len(ap.list(v, pred)) > 0 {
				ap.writeBlock(g, v, pred, 0)
				ap.changes = append(ap.changes, BlockChange{Task: v, Pred: pred, OldOff: -1})
			}
		}
	}
	g.tasks = ap.tasks[:n:n]
	g.edges = ap.edges
	g.resetCaches()
	return g, ap.changes, nil
}

func (ap *Appendable) list(v TaskID, pred bool) []Adj {
	if pred {
		return ap.pred[v]
	}
	return ap.succ[v]
}

// side returns one direction of g's adjacency.
func (g *Graph) side(pred bool) *blocks {
	if pred {
		return &g.pred
	}
	return &g.succ
}

// writeBlock copies v's arc list from index keep on into its block of
// the live graph, first moving the block to the tail of the arc array
// with twice the room when the list outgrew it.
func (ap *Appendable) writeBlock(g *Graph, v TaskID, pred bool, keep int) {
	list, d, b := ap.list(v, pred), dir(pred), g.side(pred)
	if len(list) > int(ap.cap[d][v]) {
		room := max(2*len(list), 4)
		b.off[v] = int32(len(b.adj))
		b.adj = extend(b.adj, room)
		ap.cap[d][v] = int32(room)
		keep = 0
	}
	copy(b.adj[int(b.off[v])+keep:], list[keep:])
	b.end[v] = b.off[v] + int32(len(list))
}

// extend returns s with k more zeroed elements, doubling the capacity
// when it runs out, so each arc slot is re-copied O(1) times as the live
// graph grows.
func extend(s []Adj, k int) []Adj {
	if len(s)+k > cap(s) {
		grown := make([]Adj, len(s), 2*(len(s)+k))
		copy(grown, s)
		s = grown
	}
	return s[:len(s)+k]
}
