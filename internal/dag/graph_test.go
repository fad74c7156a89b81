package dag

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// diamond builds the 4-task diamond 0 -> {1,2} -> 3 used across tests.
//
//	    0 (w=2)
//	   / \
//	 d=1  d=4
//	 /     \
//	1(w=3)  2(w=1)
//	 \     /
//	 d=2  d=3
//	   \ /
//	    3 (w=4)
func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("diamond")
	t0 := b.AddTask("a", 2)
	t1 := b.AddTask("b", 3)
	t2 := b.AddTask("c", 1)
	t3 := b.AddTask("d", 4)
	b.AddEdge(t0, t1, 1)
	b.AddEdge(t0, t2, 4)
	b.AddEdge(t1, t3, 2)
	b.AddEdge(t2, t3, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// randomDAG builds a random forward-edge DAG for property tests. Edges only
// go from lower to higher ids, so acyclicity holds by construction.
func randomDAG(rng *rand.Rand, n int, edgeProb float64) *Graph {
	b := NewBuilder("random")
	for i := 0; i < n; i++ {
		b.AddTask("", 1+rng.Float64()*9)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < edgeProb {
				b.AddEdge(TaskID(i), TaskID(j), rng.Float64()*10)
			}
		}
	}
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := diamond(t)
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.Name() != "diamond" {
		t.Fatalf("Name = %q", g.Name())
	}
	if got := g.Task(1).Name; got != "b" {
		t.Fatalf("Task(1).Name = %q, want b", got)
	}
	if got := g.Task(3).Weight; got != 4 {
		t.Fatalf("Task(3).Weight = %g, want 4", got)
	}
	if w := g.TotalWeight(); w != 10 {
		t.Fatalf("TotalWeight = %g, want 10", w)
	}
	if d := g.TotalData(); d != 10 {
		t.Fatalf("TotalData = %g, want 10", d)
	}
	if !strings.Contains(g.String(), "4 tasks") {
		t.Fatalf("String = %q", g.String())
	}
}

func TestBuilderDefaultNames(t *testing.T) {
	b := NewBuilder("")
	id := b.AddTask("", 1)
	g := b.MustBuild()
	if g.Task(id).Name != "t0" {
		t.Fatalf("default name = %q, want t0", g.Task(id).Name)
	}
}

func TestAdjacency(t *testing.T) {
	g := diamond(t)
	if got := g.OutDegree(0); got != 2 {
		t.Fatalf("OutDegree(0) = %d", got)
	}
	if got := g.InDegree(3); got != 2 {
		t.Fatalf("InDegree(3) = %d", got)
	}
	succ := g.Succ(0)
	if len(succ) != 2 || succ[0].To != 1 || succ[1].To != 2 {
		t.Fatalf("Succ(0) = %v", succ)
	}
	pred := g.Pred(3)
	if len(pred) != 2 || pred[0].To != 1 || pred[1].To != 2 {
		t.Fatalf("Pred(3) = %v", pred)
	}
	if d, ok := g.EdgeData(0, 2); !ok || d != 4 {
		t.Fatalf("EdgeData(0,2) = %g,%v", d, ok)
	}
	if _, ok := g.EdgeData(1, 2); ok {
		t.Fatal("EdgeData(1,2) should not exist")
	}
	if _, ok := g.EdgeData(3, 0); ok {
		t.Fatal("EdgeData(3,0) should not exist")
	}
}

func TestEntriesExits(t *testing.T) {
	g := diamond(t)
	if e := g.Entries(); len(e) != 1 || e[0] != 0 {
		t.Fatalf("Entries = %v", e)
	}
	if x := g.Exits(); len(x) != 1 || x[0] != 3 {
		t.Fatalf("Exits = %v", x)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := diamond(t)
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("Edges len = %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("edges not sorted: %v before %v", a, b)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name  string
		setup func(b *Builder)
	}{
		{"empty", func(b *Builder) {}},
		{"negative weight", func(b *Builder) { b.AddTask("", -1) }},
		{"edge out of range", func(b *Builder) {
			b.AddTask("", 1)
			b.AddEdge(0, 5, 1)
		}},
		{"negative edge", func(b *Builder) {
			a := b.AddTask("", 1)
			c := b.AddTask("", 1)
			b.AddEdge(a, c, -2)
		}},
		{"self loop", func(b *Builder) {
			a := b.AddTask("", 1)
			b.AddEdge(a, a, 1)
		}},
		{"duplicate edge", func(b *Builder) {
			a := b.AddTask("", 1)
			c := b.AddTask("", 1)
			b.AddEdge(a, c, 1)
			b.AddEdge(a, c, 2)
		}},
		{"cycle", func(b *Builder) {
			a := b.AddTask("", 1)
			c := b.AddTask("", 1)
			d := b.AddTask("", 1)
			b.AddEdge(a, c, 1)
			b.AddEdge(c, d, 1)
			b.AddEdge(d, a, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("bad")
			tc.setup(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("Build succeeded, want error")
			}
		})
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic on empty graph")
		}
	}()
	NewBuilder("").MustBuild()
}

func TestTasksReturnsCopy(t *testing.T) {
	g := diamond(t)
	tasks := g.Tasks()
	tasks[0].Weight = 999
	if g.Task(0).Weight == 999 {
		t.Fatal("Tasks() leaked internal storage")
	}
}

// TestBuildRefusesNonFinite: Build refuses every weight and data volume
// that Appendable refuses, so no graph it returns carries a cost that
// poisons the instance built over it.
func TestBuildRefusesNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name         string
		weight, data float64
		want         string
	}{
		{"NaN weight", math.NaN(), 1, "weight NaN"},
		{"+Inf weight", math.Inf(1), 1, "weight +Inf"},
		{"-Inf weight", math.Inf(-1), 1, "negative weight -Inf"},
		{"NaN data", 1, math.NaN(), "data NaN"},
		{"+Inf data", 1, math.Inf(1), "data +Inf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("bad")
			a := b.AddTask("", tc.weight)
			c := b.AddTask("", 1)
			b.AddEdge(a, c, tc.data)
			_, err := b.Build()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
