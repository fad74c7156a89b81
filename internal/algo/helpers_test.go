package algo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/workload"
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
	// A NaN priority takes the heap even on a task with no arc to fail.
	b := dag.NewBuilder("nan")
	x, y := b.AddTask("x", 1), b.AddTask("y", 1)
	b.AddTask("isolated", 1)
	b.AddEdge(x, y, 1)
	g := b.MustBuild()
	prio = []float64{2, 1, math.NaN()}
	for _, idTies := range []bool{false, true} {
		if descends(g, prio, idTies) {
			t.Fatalf("id ties %v: an isolated NaN priority passed the arc check", idTies)
		}
	}
	requirePrecedence(t, g, OrderDescPrecedence(g, prio))
	requirePrecedence(t, g, ReadyOrder(g, prio))
}

// TestReadyOrderMatchesReadyList: ReadyOrder and OrderDescPrecedence are
// the pick sequences of an argmax scan over a ReadyList, which on a tie
// keeps the first ready task in id order and in topological order
// respectively. Priorities are rounded to four values so that most picks
// tie, across arcs too. Static level and upward rank never rise along an
// arc, so with topological ties they take the radix sort; CPOP's rank_u +
// rank_d can rise, which leaves the pick to the heap. The upward rank's
// levels recoded as +Inf, 7, ±0 (the sign drawn per task, so −0 sits
// beside +0) and −1.5 descend just as the levels do. Each tie rule must
// meet both paths.
func TestReadyOrderMatchesReadyList(t *testing.T) {
	rng := rand.New(rand.NewSource(2007))
	topoDiffers := false
	var paths [2][2]int // [idTies][descends]
	for trial := 0; trial < 40; trial++ {
		g, err := workload.Random(workload.RandomConfig{
			N:         2 + rng.Intn(80),
			Shape:     0.5 + rng.Float64()*1.5,
			OutDegree: 1 + rng.Intn(5),
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		in := sched.Consistent(g, platform.Homogeneous(4, 0, 1))
		up, down := sched.RankUpward(in), sched.RankDownward(in)
		updown := make([]float64, in.N())
		for i := range updown {
			updown[i] = up[i] + down[i]
		}
		special := roundTo(up, 4)
		for i, level := range special {
			special[i] = []float64{-1.5, 0, 7, math.Inf(1)}[int(level)]
			if level == 1 && rng.Intn(2) == 0 {
				special[i] = math.Copysign(0, -1)
			}
		}
		for _, prio := range [][]float64{roundTo(sched.StaticLevel(in), 4), roundTo(up, 4), roundTo(updown, 4), special} {
			for _, idTies := range []bool{false, true} {
				want := scanOrder(g, prio, idTies)
				got := OrderDescPrecedence(g, prio)
				if idTies {
					got = ReadyOrder(g, prio)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, id ties %v: greedy order %v, ready-list scan %v (priorities %v)", trial, idTies, got, want, prio)
				}
				paths[b2i(idTies)][b2i(descends(g, prio, idTies))]++
			}
			topoDiffers = topoDiffers || !reflect.DeepEqual(scanOrder(g, prio, false), scanOrder(g, prio, true))
		}
	}
	if !topoDiffers {
		t.Fatal("a topological tie-break gives the same orders: the battery tests no tie rule")
	}
	for idTies, n := range paths {
		if n[0] == 0 || n[1] == 0 {
			t.Fatalf("id ties %v: %d vectors took the heap, %d the sort; the battery must take both", idTies == 1, n[0], n[1])
		}
	}
}

// FuzzGreedyOrder checks both greedy orders against their ready-list
// scans on a random DAG whose arcs follow a random permutation, so ids
// and topological positions disagree, with priorities drawn from +Inf,
// 2, 1, +0, −0, −1 and −Inf by vals (one byte per task, at most 48). An
// odd mode lowers each priority to its predecessors' smallest in
// topological order, so it never rises along an arc and the radix sort
// runs; an even mode leaves it as drawn, which mostly rises somewhere.
func FuzzGreedyOrder(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(60), []byte{3, 4, 3, 4, 0, 6, 5, 2, 1, 4})
	f.Add(int64(2), uint8(0), uint8(30), []byte{0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6})
	f.Add(int64(3), uint8(3), uint8(120), []byte{4, 3, 4, 3, 4, 3, 6, 6, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, mode, density uint8, vals []byte) {
		if len(vals) == 0 {
			return
		}
		vals = vals[:min(len(vals), 48)]
		set := []float64{math.Inf(1), 2, 1, 0, math.Copysign(0, -1), -1, math.Inf(-1)}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(vals))
		b := dag.NewBuilder("fuzz")
		for range vals {
			b.AddTask("", 1)
		}
		prio := make([]float64, len(vals))
		for i, u := range perm {
			prio[u] = set[int(vals[u])%len(set)]
			for _, v := range perm[:i] {
				if rng.Intn(256) >= int(density) {
					continue
				}
				b.AddEdge(dag.TaskID(v), dag.TaskID(u), 1)
				if mode%2 == 1 && prio[v] < prio[u] {
					prio[u] = prio[v]
				}
			}
		}
		g := b.MustBuild()
		if got, want := ReadyOrder(g, prio), scanOrder(g, prio, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadyOrder %v, ready-list scan %v (priorities %v)", got, want, prio)
		}
		if got, want := OrderDescPrecedence(g, prio), scanOrder(g, prio, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("OrderDescPrecedence %v, ready-list scan %v (priorities %v)", got, want, prio)
		}
	})
}

// scanOrder is the greedy pick by an argmax scan over a ReadyList: the
// ready task of highest priority, on a tie the first in id order, or with
// idTies false the first in topological order.
func scanOrder(g *dag.Graph, prio []float64, idTies bool) []dag.TaskID {
	rank := make([]int, g.Len())
	for i, v := range g.TopoOrder() {
		rank[v] = i
		if idTies {
			rank[v] = int(v)
		}
	}
	var order []dag.TaskID
	for rl := NewReadyList(g); !rl.Empty(); {
		pick := rl.Ready()[0]
		for _, r := range rl.Ready() {
			if prio[r] > prio[pick] || prio[r] == prio[pick] && rank[r] < rank[pick] {
				pick = r
			}
		}
		order = append(order, pick)
		rl.Complete(pick)
	}
	return order
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// roundTo maps prio onto k evenly spaced values spanning its range.
func roundTo(prio []float64, k int) []float64 {
	hi := 0.0
	for _, v := range prio {
		hi = math.Max(hi, v)
	}
	out := make([]float64, len(prio))
	for i, v := range prio {
		out[i] = math.Round(v / hi * float64(k-1))
	}
	return out
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
	m := pl.Mark()
	res := TryDuplication(pl, c, 0, 4)
	if res.Dups != 1 {
		t.Fatalf("Dups = %d, want 1", res.Dups)
	}
	// Duplicate A on P0 [0,2), B can start at 2.
	if res.Start != 2 {
		t.Fatalf("Start = %g, want 2", res.Start)
	}
	if len(pl.Copies(a)) != 2 {
		t.Fatalf("Copies(a) after the trial = %d, want 2", len(pl.Copies(a)))
	}
	// Undoing the trial takes the duplicate back.
	pl.Undo(m)
	if len(pl.Copies(a)) != 1 || len(pl.OnProc(0)) != 0 {
		t.Fatal("undone trial left its duplicate in the plan")
	}
	// Trial again, commit and validate.
	res = TryDuplication(pl, c, 0, 4)
	pl.Commit()
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
	res := TryDuplication(pl, c, 0, 4)
	if res.Dups != 0 {
		t.Fatalf("Dups = %d, want 0 (duplicate costs 50)", res.Dups)
	}
	if res.Start != 2 {
		t.Fatalf("Start = %g, want 2", res.Start)
	}
	// The rejected duplicate was undone inside the trial: committing it
	// leaves the plan unchanged.
	pl.Commit()
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
