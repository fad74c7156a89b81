// Package dag provides the directed-acyclic-graph substrate used by every
// scheduling algorithm in this repository: the task-graph model, builders,
// traversals, critical-path analysis and serialization.
//
// A Graph is immutable after Build; algorithms never mutate it. The one
// exception is the live graph of an Appendable, which its Grow extends in
// place (see Appendable.Grow); a caller must not share that graph. Task and
// edge weights stored here are *nominal* costs: the per-processor execution
// cost of a task on a concrete platform is derived in package sched by
// combining the nominal weight with the platform's heterogeneity model.
package dag

import (
	"fmt"
	"sort"
	"sync"
)

// TaskID identifies a task within a single Graph. IDs are dense: a graph
// with n tasks uses IDs 0..n-1.
type TaskID int

// Task is a node of the task graph. Weight is the nominal computation cost
// (e.g. the cost on a reference processor of speed 1.0).
type Task struct {
	ID     TaskID
	Name   string
	Weight float64
}

// Adj is one adjacency entry: the neighbouring task and the data volume
// carried by the connecting edge.
type Adj struct {
	To   TaskID
	Data float64
}

// Edge is a dependency i -> j transferring Data units of communication.
type Edge struct {
	From TaskID
	To   TaskID
	Data float64
}

// Graph is an immutable weighted DAG (except the live graph that
// Appendable.Grow returns, which later Grow calls extend in place).
//
// Adjacency is stored in CSR form: one flat arc array per direction with
// a block of arcs per task, so Succ/Pred return zero-copy sub-slices and
// per-arc companion tables (package sched's mean-communication caches)
// can be flat arrays of ArcSlots entries indexed by SuccStart/PredStart —
// no per-task slice headers, no pointer chasing on the million-task hot
// paths.
type Graph struct {
	name  string
	tasks []Task
	succ  blocks // outgoing arcs, sorted by successor id within a block
	pred  blocks // incoming arcs, sorted by predecessor id
	edges int

	// Traversal caches. One topological order and the level-set
	// groupings are computed once per structure and shared (Grow resets
	// them); accessors hand out copies where callers are allowed to
	// mutate the result.
	topoOnce sync.Once
	topo     []TaskID
	lvlOnce  sync.Once
	depth    levelSets // tasks grouped by depth from the entries
	height   levelSets // tasks grouped by height from the exits
}

// blocks is one direction of a graph's adjacency: task i's arcs are
// adj[off[i]:end[i]]. A built graph packs the blocks in id order with no
// gaps, and end aliases off[1:], so it costs no memory. The live graph of
// an Appendable leaves spare slots after a block so it can take arcs in
// place.
type blocks struct {
	off, end []int32
	adj      []Adj
}

func (b *blocks) of(id TaskID) []Adj {
	lo, hi := b.off[id], b.end[id]
	return b.adj[lo:hi:hi]
}

// pack lays out n tasks' arc lists as packed blocks in id order.
func pack(n, arcs int, list func(TaskID) []Adj) blocks {
	b := blocks{off: make([]int32, n+1), adj: make([]Adj, 0, arcs)}
	for i := 0; i < n; i++ {
		b.adj = append(b.adj, list(TaskID(i))...)
		b.off[i+1] = int32(len(b.adj))
	}
	b.end = b.off[1:]
	return b
}

// levelSets is a CSR grouping of tasks by level: level l holds
// tasks[off[l]:off[l+1]], ascending task id within a level.
type levelSets struct {
	off   []int32
	tasks []TaskID
}

// Compact returns a copy of g in the built layout: blocks packed in id
// order, no spare slots. It shares nothing with g, so it stays fixed
// while a live graph keeps growing.
func (g *Graph) Compact() *Graph {
	return &Graph{
		name:  g.name,
		tasks: g.Tasks(),
		succ:  pack(len(g.tasks), g.edges, g.Succ),
		pred:  pack(len(g.tasks), g.edges, g.Pred),
		edges: g.edges,
	}
}

// replaceWith installs src's structural fields into g and clears the
// traversal caches, without copying the sync.Once fields. src must be
// freshly built and not shared; UnmarshalJSON uses this in place of a
// whole-struct assignment.
func (g *Graph) replaceWith(src *Graph) {
	g.name = src.name
	g.tasks = src.tasks
	g.succ, g.pred = src.succ, src.pred
	g.edges = src.edges
	g.resetCaches()
}

// resetCaches drops the traversal caches; the next accessor recomputes
// them from the current structure.
func (g *Graph) resetCaches() {
	g.topoOnce = sync.Once{}
	g.topo = nil
	g.lvlOnce = sync.Once{}
	g.depth = levelSets{}
	g.height = levelSets{}
}

// Name returns the human-readable name given at build time (may be empty).
func (g *Graph) Name() string { return g.name }

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.edges }

// Task returns the task with the given id. It panics if id is out of
// range, consistent with slice indexing semantics.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Tasks returns a copy of all tasks in id order.
func (g *Graph) Tasks() []Task {
	out := make([]Task, len(g.tasks))
	copy(out, g.tasks)
	return out
}

// Succ returns the successor adjacency of id. The returned slice must not
// be modified.
func (g *Graph) Succ(id TaskID) []Adj { return g.succ.of(id) }

// Pred returns the predecessor adjacency of id. The returned slice must
// not be modified.
func (g *Graph) Pred(id TaskID) []Adj { return g.pred.of(id) }

// SuccStart returns the arc offset of task id's first outgoing arc in the
// flat successor array: the j-th entry of Succ(id) is arc SuccStart(id)+j.
// Flat per-arc tables (e.g. memoized mean communication costs) are indexed
// with it.
func (g *Graph) SuccStart(id TaskID) int { return int(g.succ.off[id]) }

// PredStart is SuccStart for incoming arcs.
func (g *Graph) PredStart(id TaskID) int { return int(g.pred.off[id]) }

// ArcSlots returns the lengths of the flat successor and predecessor arc
// arrays: the size of a per-arc table indexed by SuccStart or PredStart.
// A built graph has NumEdges slots in each; the live graph also counts
// the spare slots between its blocks.
func (g *Graph) ArcSlots() (succ, pred int) { return len(g.succ.adj), len(g.pred.adj) }

// OutDegree returns the number of successors of id.
func (g *Graph) OutDegree(id TaskID) int { return int(g.succ.end[id] - g.succ.off[id]) }

// InDegree returns the number of predecessors of id.
func (g *Graph) InDegree(id TaskID) int { return int(g.pred.end[id] - g.pred.off[id]) }

// EdgeData returns the data volume on edge (from, to) and whether the edge
// exists.
func (g *Graph) EdgeData(from, to TaskID) (float64, bool) {
	adj := g.Succ(from)
	k := sort.Search(len(adj), func(i int) bool { return adj[i].To >= to })
	if k < len(adj) && adj[k].To == to {
		return adj[k].Data, true
	}
	return 0, false
}

// Edges returns all edges in (From, To) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for i := range g.tasks {
		for _, a := range g.Succ(TaskID(i)) {
			out = append(out, Edge{From: TaskID(i), To: a.To, Data: a.Data})
		}
	}
	return out
}

// Entries returns all tasks with no predecessors, in id order.
func (g *Graph) Entries() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.InDegree(TaskID(i)) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Exits returns all tasks with no successors, in id order.
func (g *Graph) Exits() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.OutDegree(TaskID(i)) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// TotalWeight returns the sum of all nominal task weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, t := range g.tasks {
		s += t.Weight
	}
	return s
}

// TotalData returns the sum of all edge data volumes.
func (g *Graph) TotalData() float64 {
	var s float64
	for i := range g.tasks {
		for _, a := range g.Succ(TaskID(i)) {
			s += a.Data
		}
	}
	return s
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("dag(%s: %d tasks, %d edges)", g.name, len(g.tasks), g.edges)
}
