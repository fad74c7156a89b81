package dag

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Builder accumulates tasks and edges and produces an immutable Graph.
// The zero value is ready to use.
type Builder struct {
	name  string
	tasks []Task
	edges []Edge
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// AddTask appends a task with the given name and nominal weight and returns
// its id. Weights must be non-negative and finite; Build reports
// violations.
func (b *Builder) AddTask(name string, weight float64) TaskID {
	id := TaskID(len(b.tasks))
	if name == "" {
		name = fmt.Sprintf("t%d", id)
	}
	b.tasks = append(b.tasks, Task{ID: id, Name: name, Weight: weight})
	return id
}

// AddEdge records a dependency from -> to carrying data units of
// communication. Validation happens in Build.
func (b *Builder) AddEdge(from, to TaskID, data float64) {
	b.edges = append(b.edges, Edge{From: from, To: to, Data: data})
}

// Len returns the number of tasks added so far.
func (b *Builder) Len() int { return len(b.tasks) }

// Build validates the accumulated structure and returns the immutable
// Graph. It fails on out-of-range endpoints, self-loops, duplicate edges,
// weights and data that are negative, NaN or +Inf, and cycles.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.tasks)
	if n == 0 {
		return nil, errors.New("dag: graph has no tasks")
	}
	for _, t := range b.tasks {
		if t.Weight < 0 {
			return nil, fmt.Errorf("dag: task %d (%s) has negative weight %g", t.ID, t.Name, t.Weight)
		}
		if math.IsNaN(t.Weight) || math.IsInf(t.Weight, 1) {
			return nil, fmt.Errorf("dag: task %d (%s) has invalid weight %g", t.ID, t.Name, t.Weight)
		}
	}
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("dag: self-loop on task %d", e.From)
		}
		if e.Data < 0 {
			return nil, fmt.Errorf("dag: edge (%d,%d) has negative data %g", e.From, e.To, e.Data)
		}
		if math.IsNaN(e.Data) || math.IsInf(e.Data, 1) {
			return nil, fmt.Errorf("dag: edge (%d,%d) has invalid data %g", e.From, e.To, e.Data)
		}
	}
	g := &Graph{
		name:  b.name,
		tasks: append([]Task(nil), b.tasks...),
		edges: len(b.edges),
	}
	// Counting pass then fill: the adjacency goes straight into the flat
	// CSR arrays, no per-task intermediate slices.
	succOff := make([]int32, n+1)
	predOff := make([]int32, n+1)
	for _, e := range b.edges {
		succOff[e.From+1]++
		predOff[e.To+1]++
	}
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
		predOff[i+1] += predOff[i]
	}
	succAdj := make([]Adj, len(b.edges))
	predAdj := make([]Adj, len(b.edges))
	sCur := append([]int32(nil), succOff[:n]...)
	pCur := append([]int32(nil), predOff[:n]...)
	for _, e := range b.edges {
		succAdj[sCur[e.From]] = Adj{To: e.To, Data: e.Data}
		sCur[e.From]++
		predAdj[pCur[e.To]] = Adj{To: e.From, Data: e.Data}
		pCur[e.To]++
	}
	for i := 0; i < n; i++ {
		adj := succAdj[succOff[i]:succOff[i+1]]
		sort.Slice(adj, func(a, b int) bool { return adj[a].To < adj[b].To })
		for k := 1; k < len(adj); k++ {
			if adj[k].To == adj[k-1].To {
				return nil, fmt.Errorf("dag: duplicate edge (%d,%d)", i, adj[k].To)
			}
		}
		p := predAdj[predOff[i]:predOff[i+1]]
		sort.Slice(p, func(a, b int) bool { return p[a].To < p[b].To })
	}
	g.succ = blocks{off: succOff, end: succOff[1:], adj: succAdj}
	g.pred = blocks{off: predOff, end: predOff[1:], adj: predAdj}
	order, err := topoOrder(g)
	if err != nil {
		return nil, err
	}
	// The acyclicity check just computed the canonical order; prime the
	// graph's traversal cache with it instead of re-running Kahn later.
	g.topoOnce.Do(func() { g.topo = order })
	return g, nil
}

// MustBuild is Build that panics on error; intended for workload generators
// whose construction is correct by design and for tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
