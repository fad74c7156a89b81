package algo

import (
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

func diamondInstance(t *testing.T) *sched.Instance {
	t.Helper()
	b := dag.NewBuilder("diamond")
	t0 := b.AddTask("a", 2)
	t1 := b.AddTask("b", 3)
	t2 := b.AddTask("c", 1)
	t3 := b.AddTask("d", 4)
	b.AddEdge(t0, t1, 1)
	b.AddEdge(t0, t2, 4)
	b.AddEdge(t1, t3, 2)
	b.AddEdge(t2, t3, 3)
	return sched.Consistent(b.MustBuild(), platform.Homogeneous(2, 0, 1))
}

// requirePrecedence fails unless order is a permutation of g's tasks
// that lists every edge's tail before its head.
func requirePrecedence(t *testing.T, g *dag.Graph, order []dag.TaskID) {
	t.Helper()
	if len(order) != g.Len() {
		t.Fatalf("order has %d tasks, graph %d: %v", len(order), g.Len(), order)
	}
	pos := map[dag.TaskID]int{}
	for i, v := range order {
		pos[v] = i
	}
	if len(pos) != g.Len() {
		t.Fatalf("order repeats a task: %v", order)
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("precedence violated on %d->%d: %v", e.From, e.To, order)
		}
	}
}

func TestOrderDescPrecedence(t *testing.T) {
	in := diamondInstance(t)
	prio := []float64{5, 5, 5, 5} // all ties: must fall back to topo order
	requirePrecedence(t, in.G, OrderDescPrecedence(in.G, prio))
	// With a priority that is monotone along edges (like upward ranks,
	// which strictly decrease towards exits), the order follows priority.
	prio = []float64{9, 5, 5, 1} // tie between 1 and 2 broken by topo pos
	order := OrderDescPrecedence(in.G, prio)
	want := []dag.TaskID{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// CPOP's rank_u + rank_d is the longest path through a task, so it
	// rises along an edge from an off-critical-path task into the
	// critical path: a descending sort would list that edge's head first.
	up, down := sched.RankUpward(in), sched.RankDownward(in)
	prio = make([]float64, in.N())
	for i := range prio {
		prio[i] = up[i] + down[i]
	}
	rises := false
	for _, e := range in.G.Edges() {
		rises = rises || prio[e.From] < prio[e.To]
	}
	if !rises {
		t.Fatalf("rank_u+rank_d %v never rises along an edge: the case tests nothing", prio)
	}
	requirePrecedence(t, in.G, OrderDescPrecedence(in.G, prio))
}

func TestReadyList(t *testing.T) {
	in := diamondInstance(t)
	rl := NewReadyList(in.G)
	if got := rl.Ready(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("initial ready = %v", got)
	}
	rl.Complete(0)
	if got := rl.Ready(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ready after 0 = %v", got)
	}
	rl.Complete(2)
	if got := rl.Ready(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ready after 2 = %v", got)
	}
	rl.Complete(1)
	if got := rl.Ready(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("ready after 1 = %v", got)
	}
	rl.Complete(3)
	if !rl.Empty() {
		t.Fatal("not empty at end")
	}
}

func TestCriticalParent(t *testing.T) {
	in := diamondInstance(t)
	pl := sched.NewPlan(in)
	pl.Place(0, 0, 0) // finish 2
	pl.Place(1, 0, 2) // finish 5
	pl.Place(2, 1, 6) // finish 7 (data arrived at 6)
	// Task 3 on P0: arrival from 1 = 5 (local), from 2 = 7 + 3 = 10
	// (remote). Critical parent is 2.
	parent, arrival := CriticalParent(pl, 3, 0)
	if parent != 2 || arrival != 10 {
		t.Fatalf("CriticalParent = %d at %g, want 2 at 10", parent, arrival)
	}
	// On P1: arrival from 1 = 5+2 = 7 (remote), from 2 = 7 (local, so not
	// a duplication candidate). Critical parent is 1.
	parent, arrival = CriticalParent(pl, 3, 1)
	if parent != 1 || arrival != 7 {
		t.Fatalf("CriticalParent = %d at %g, want 1 at 7", parent, arrival)
	}
}

func TestCriticalParentNoneWhenAllLocal(t *testing.T) {
	in := diamondInstance(t)
	pl := sched.NewPlan(in)
	pl.Place(0, 0, 0)
	pl.Place(1, 0, 2)
	pl.Place(2, 0, 5)
	parent, _ := CriticalParent(pl, 3, 0)
	if parent != -1 {
		t.Fatalf("CriticalParent = %d, want -1 (all parents local)", parent)
	}
}

func TestTryDuplicationImproves(t *testing.T) {
	// Entry task A on P1; child B considered on P0 with a big edge.
	// Duplicating A onto P0 (cost 2) beats waiting for the data.
	b := dag.NewBuilder("dup")
	a := b.AddTask("A", 2)
	c := b.AddTask("B", 2)
	b.AddEdge(a, c, 10)
	g := b.MustBuild()
	in := sched.Consistent(g, platform.Homogeneous(2, 0, 1))
	pl := sched.NewPlan(in)
	pl.Place(a, 1, 0) // A on P1, finish 2; data reaches P0 at 12
	tx := pl.Begin()
	res := TryDuplication(tx, c, 0, 4)
	if res.Dups != 1 {
		t.Fatalf("Dups = %d, want 1", res.Dups)
	}
	// Duplicate A on P0 [0,2), B can start at 2.
	if res.Start != 2 {
		t.Fatalf("Start = %g, want 2", res.Start)
	}
	// Base plan untouched until commit.
	if len(pl.Copies(a)) != 1 {
		t.Fatal("TryDuplication mutated the base plan")
	}
	// Commit and validate.
	tx.Commit()
	if len(pl.Copies(a)) != 2 {
		t.Fatalf("Copies(a) after commit = %d, want 2", len(pl.Copies(a)))
	}
	pl.Place(c, 0, res.Start)
	if err := pl.Finalize("x").Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTryDuplicationDeclinesWhenUseless(t *testing.T) {
	// Tiny edge: data arrives at 2.1 but a duplicate of A would also
	// finish at 2 — improvement 0.1; with duplication cost exceeding the
	// gain... make the duplicate strictly worse: give A a huge cost on P0.
	b := dag.NewBuilder("nodup")
	a := b.AddTask("A", 1)
	c := b.AddTask("B", 1)
	b.AddEdge(a, c, 1)
	g := b.MustBuild()
	w := [][]float64{{50, 1}, {1, 1}}
	in, err := sched.NewInstance(g, platform.Homogeneous(2, 0, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	pl := sched.NewPlan(in)
	pl.Place(a, 1, 0) // finish 1, data reaches P0 at 2
	tx := pl.Begin()
	res := TryDuplication(tx, c, 0, 4)
	if res.Dups != 0 {
		t.Fatalf("Dups = %d, want 0 (duplicate costs 50)", res.Dups)
	}
	if res.Start != 2 {
		t.Fatalf("Start = %g, want 2", res.Start)
	}
	// The rejected duplicate was rolled back inside the transaction: even
	// committing it must leave the plan unchanged.
	tx.Commit()
	if len(pl.Copies(a)) != 1 || len(pl.OnProc(0)) != 0 {
		t.Fatal("rejected duplication leaked into the plan")
	}
}

func TestFuncAdapter(t *testing.T) {
	in := diamondInstance(t)
	f := Func{AlgName: "greedy", Fn: func(in *sched.Instance) (*sched.Schedule, error) {
		pl := sched.NewPlan(in)
		for _, v := range in.G.TopoOrder() {
			p, s, _ := pl.BestEFT(v, true)
			pl.Place(v, p, s)
		}
		return pl.Finalize("greedy"), nil
	}}
	if f.Name() != "greedy" {
		t.Fatalf("Name = %q", f.Name())
	}
	s, err := f.Schedule(in)
	if err != nil || s.Validate() != nil {
		t.Fatalf("Schedule: %v / %v", err, s.Validate())
	}
}
