package dag

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// checkOrderValid asserts the maintained positions form a valid
// topological order of the appended-so-far graph.
func checkOrderValid(t *testing.T, ap *Appendable) {
	t.Helper()
	n := ap.Len()
	pos, order := ap.Order()
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		p := pos[v]
		if p < 0 || p >= n || seen[p] || order[p] != TaskID(v) {
			t.Fatalf("position %d of task %d invalid or duplicated", p, v)
		}
		seen[p] = true
		for _, a := range ap.succ[v] {
			if pos[a.To] <= p {
				t.Fatalf("edge (%d,%d) violates maintained order: %d <= %d",
					v, a.To, pos[a.To], p)
			}
		}
	}
}

// sealEquals asserts a sealed appendable matches a statically built graph
// structurally and in canonical topological order.
func sealEquals(t *testing.T, ap *Appendable, want *Graph) {
	t.Helper()
	got, err := ap.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if !reflect.DeepEqual(got.Tasks(), want.Tasks()) {
		t.Fatalf("tasks differ")
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("edges differ")
	}
	if !reflect.DeepEqual(got.TopoOrder(), want.TopoOrder()) {
		t.Fatalf("canonical topo order differs:\n got %v\nwant %v", got.TopoOrder(), want.TopoOrder())
	}
	gotOff, gotTasks := got.HeightLevels()
	wantOff, wantTasks := want.HeightLevels()
	if !reflect.DeepEqual(gotOff, wantOff) || !reflect.DeepEqual(gotTasks, wantTasks) {
		t.Fatalf("height level sets differ")
	}
}

// randomGrowthEdges returns the edge list of a random DAG over n tasks,
// with edges oriented low id -> high id.
func randomGrowthEdges(rng *rand.Rand, n int) []Edge {
	var edges []Edge
	for to := 1; to < n; to++ {
		deg := 1 + rng.Intn(3)
		for k := 0; k < deg && k < to; k++ {
			from := rng.Intn(to)
			dup := false
			for _, e := range edges {
				if e.From == TaskID(from) && e.To == TaskID(to) {
					dup = true
				}
			}
			if !dup {
				edges = append(edges, Edge{From: TaskID(from), To: TaskID(to), Data: float64(rng.Intn(50))})
			}
		}
	}
	return edges
}

func TestAppendableMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		edges := randomGrowthEdges(rng, n)

		b := NewBuilder("static")
		for i := 0; i < n; i++ {
			b.AddTask("", float64(1+rng.Intn(9)))
		}
		for _, e := range edges {
			b.AddEdge(e.From, e.To, e.Data)
		}
		want := b.MustBuild()

		// Tasks must arrive in id order (ids are dense arrival positions),
		// but edges are shuffled so reorders trigger.
		ap := NewAppendable("static")
		for i := 0; i < n; i++ {
			if _, err := ap.AddTask(want.Task(TaskID(i)).Name, want.Task(TaskID(i)).Weight); err != nil {
				t.Fatalf("AddTask: %v", err)
			}
		}
		shuffled := append([]Edge(nil), edges...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, e := range shuffled {
			if err := ap.AddEdge(e.From, e.To, e.Data); err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", e.From, e.To, err)
			}
		}
		checkOrderValid(t, ap)
		sealEquals(t, ap, want)
	}
}

func TestAppendableInterleavedReseal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	edges := randomGrowthEdges(rng, n)

	ap := NewAppendable("grow")
	b := NewBuilder("grow")
	// Interleave: tasks arrive one at a time, each followed by the edges
	// whose later endpoint just arrived; re-seal after every third task.
	for i := 0; i < n; i++ {
		w := float64(1 + i%7)
		if _, err := ap.AddTask("", w); err != nil {
			t.Fatal(err)
		}
		b.AddTask("", w)
		for _, e := range edges {
			if int(e.To) == i {
				if err := ap.AddEdge(e.From, e.To, e.Data); err != nil {
					t.Fatal(err)
				}
				b.AddEdge(e.From, e.To, e.Data)
			}
		}
		if i%3 == 2 || i == n-1 {
			checkOrderValid(t, ap)
			sealEquals(t, ap, b.MustBuild())
		}
	}
}

func TestAppendableReverseTopoArrival(t *testing.T) {
	// Tasks arrive in reverse dependency order: every edge points from a
	// later arrival to an earlier one, so every AddEdge violates the
	// maintained order and triggers a reorder.
	rng := rand.New(rand.NewSource(3))
	n := 25
	edges := randomGrowthEdges(rng, n)

	// Remap id i -> n-1-i: task n-1-i arrives at position i.
	remap := func(id TaskID) TaskID { return TaskID(n-1) - id }
	ap := NewAppendable("rev")
	b := NewBuilder("rev")
	for i := 0; i < n; i++ {
		if _, err := ap.AddTask("", 1); err != nil {
			t.Fatal(err)
		}
		b.AddTask("", 1)
	}
	for _, e := range edges {
		if err := ap.AddEdge(remap(e.From), remap(e.To), e.Data); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
		b.AddEdge(remap(e.From), remap(e.To), e.Data)
		checkOrderValid(t, ap)
	}
	sealEquals(t, ap, b.MustBuild())
}

func TestAppendableCycleRejected(t *testing.T) {
	ap := NewAppendable("cyc")
	for i := 0; i < 4; i++ {
		if _, err := ap.AddTask("", 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}} {
		if err := ap.AddEdge(e.From, e.To, e.Data); err != nil {
			t.Fatal(err)
		}
	}
	err := ap.AddEdge(3, 0, 1)
	if !errors.Is(err, ErrCycle) || !errors.Is(err, ErrWouldCycle) {
		t.Fatalf("want ErrWouldCycle, got %v", err)
	}
	// Direct back-edge too.
	if err := ap.AddEdge(1, 0, 1); !errors.Is(err, ErrCycle) {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	// The rejected edges must not have poisoned any state: the graph still
	// seals to the 4-task chain and accepts further valid edges.
	if err := ap.AddEdge(0, 3, 2); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
	checkOrderValid(t, ap)
	g, err := ap.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	if got := g.TopoOrder(); !reflect.DeepEqual(got, []TaskID{0, 1, 2, 3}) {
		t.Fatalf("topo = %v", got)
	}
}

func TestAppendableValidation(t *testing.T) {
	ap := NewAppendable("bad")
	if _, err := ap.AddTask("", -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := ap.AddTask("", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ap.AddTask("", 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		from, to TaskID
		data     float64
	}{
		{0, 5, 1},  // out of range
		{-1, 1, 1}, // out of range
		{1, 1, 1},  // self loop
		{0, 1, -3}, // negative data
	}
	for _, c := range cases {
		if err := ap.AddEdge(c.from, c.to, c.data); err == nil {
			t.Fatalf("edge (%d,%d,%g) accepted", c.from, c.to, c.data)
		}
	}
	if err := ap.AddEdge(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := ap.AddEdge(0, 1, 4); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if ap.NumEdges() != 1 || ap.Len() != 2 {
		t.Fatalf("state polluted: %d tasks %d edges", ap.Len(), ap.NumEdges())
	}
}

func TestAppendableEmptySeal(t *testing.T) {
	if _, err := NewAppendable("").Seal(); err == nil {
		t.Fatal("empty seal accepted")
	}
}
