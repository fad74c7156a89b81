package dag

import (
	"math/rand"
	"reflect"
	"testing"
)

// growChecker replays Grow calls against Seal: after every Grow the
// live graph must equal a fresh seal of the same appends, and each
// block Grow did not report, and each reported block's kept prefix,
// must hold the arcs it held at the previous Grow.
type growChecker struct {
	ap   *Appendable
	live *Graph
	prev *Graph // compact copy of the live graph at the previous Grow
	off  [2][]int
}

func (c *growChecker) grow(t *testing.T) {
	t.Helper()
	g, changes, err := c.ap.Grow()
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if c.live != nil && g != c.live {
		t.Fatal("Grow returned a different graph")
	}
	c.live = g
	want, err := c.ap.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	graphMatches(t, g, want)

	reported := map[[2]int]BlockChange{}
	for _, ch := range changes {
		k := [2]int{int(ch.Task), dir(ch.Pred)}
		if _, dup := reported[k]; dup {
			t.Fatalf("block %v reported twice", k)
		}
		reported[k] = ch
	}
	for d, pred := range [2]bool{false, true} {
		arcs := func(g *Graph, v TaskID) []Adj { return g.side(pred).of(v) }
		for v := 0; v < g.Len(); v++ {
			id := TaskID(v)
			ch, ok := reported[[2]int{v, d}]
			isNew := c.prev == nil || v >= c.prev.Len()
			switch {
			case isNew && ok && (ch.OldOff != -1 || ch.Keep != 0):
				t.Fatalf("new task %d dir %d: change %+v, want OldOff -1 Keep 0", v, d, ch)
			case isNew && !ok && len(arcs(g, id)) > 0:
				t.Fatalf("new task %d dir %d: %d arcs not reported", v, d, len(arcs(g, id)))
			case isNew:
			case !ok && !sameArcs(arcs(g, id), arcs(c.prev, id)):
				t.Fatalf("task %d dir %d changed without a report", v, d)
			case ok && ch.OldOff != c.off[d][v]:
				t.Fatalf("task %d dir %d: OldOff %d, was at %d", v, d, ch.OldOff, c.off[d][v])
			case ok && (ch.Keep > len(arcs(c.prev, id)) ||
				!sameArcs(arcs(g, id)[:ch.Keep], arcs(c.prev, id)[:ch.Keep])):
				t.Fatalf("task %d dir %d: kept prefix %d differs", v, d, ch.Keep)
			}
		}
	}
	c.prev = g.Compact()
	for d, pred := range [2]bool{false, true} {
		c.off[d] = c.off[d][:0]
		for v := 0; v < g.Len(); v++ {
			c.off[d] = append(c.off[d], int(g.side(pred).off[v]))
		}
	}
}

// sameArcs compares arc lists by content (a nil and an empty block are
// the same block).
func sameArcs(a, b []Adj) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// graphMatches asserts two graphs agree on every accessor a scheduler
// reads.
func graphMatches(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.Len() != want.Len() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size %d/%d, want %d/%d", got.Len(), got.NumEdges(), want.Len(), want.NumEdges())
	}
	if !reflect.DeepEqual(got.Tasks(), want.Tasks()) {
		t.Fatal("tasks differ")
	}
	for v := 0; v < want.Len(); v++ {
		id := TaskID(v)
		if !sameArcs(got.Succ(id), want.Succ(id)) {
			t.Fatalf("Succ(%d) = %v, want %v", v, got.Succ(id), want.Succ(id))
		}
		if !sameArcs(got.Pred(id), want.Pred(id)) {
			t.Fatalf("Pred(%d) = %v, want %v", v, got.Pred(id), want.Pred(id))
		}
	}
	if !reflect.DeepEqual(got.TopoOrder(), want.TopoOrder()) {
		t.Fatalf("TopoOrder = %v, want %v", got.TopoOrder(), want.TopoOrder())
	}
	if !reflect.DeepEqual(got.Levels(), want.Levels()) {
		t.Fatal("Levels differ")
	}
	if got.TotalData() != want.TotalData() {
		t.Fatalf("TotalData %v, want %v", got.TotalData(), want.TotalData())
	}
	if c := got.Compact(); !reflect.DeepEqual(c.Edges(), want.Edges()) || c.NumEdges() != want.NumEdges() {
		t.Fatal("Compact differs from Seal")
	}
}

// TestAppendableGrowMatchesSeal streams random DAGs in topological,
// reverse and shuffled arrival, growing the live graph every few events.
// A third of the edges arrive some tasks after both endpoints, so blocks
// take arcs mid-block, and full blocks move; the cycle-closing edges
// tried along the way are rejected without touching the graph.
func TestAppendableGrowMatchesSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(60)
		edges := randomGrowthEdges(rng, n)
		arrival := rng.Perm(n)
		switch trial % 3 {
		case 0:
			for i := range arrival {
				arrival[i] = i
			}
		case 1:
			for i := range arrival {
				arrival[i] = n - 1 - i
			}
		}
		pos := make([]int, n) // arrival id of each task
		for i, v := range arrival {
			pos[v] = i
		}
		c := &growChecker{ap: NewAppendable("grow")}
		every := 1 + rng.Intn(6)
		events := 0
		var deferred []Edge
		for i, v := range arrival {
			if _, err := c.ap.AddTask("", float64(1+v%5)); err != nil {
				t.Fatal(err)
			}
			for _, e := range edges {
				from, to := pos[e.From], pos[e.To]
				if (from == i && to < i) || (to == i && from < i) {
					deferred = append(deferred, Edge{TaskID(from), TaskID(to), e.Data})
				}
			}
			kept := deferred[:0]
			for _, e := range deferred {
				if i < n-1 && rng.Intn(3) == 0 {
					kept = append(kept, e)
					continue
				}
				if err := c.ap.AddEdge(e.From, e.To, e.Data); err != nil {
					t.Fatalf("AddEdge(%d,%d): %v", e.From, e.To, err)
				}
				// The reverse arc closes a cycle.
				if err := c.ap.AddEdge(e.To, e.From, 1); err == nil {
					t.Fatalf("cycle edge (%d,%d) accepted", e.To, e.From)
				}
				events++
			}
			deferred = kept
			events++
			if events >= every {
				c.grow(t)
				events = 0
			}
		}
		c.grow(t)
		c.grow(t) // a Grow with nothing appended changes nothing
	}
}

// FuzzAppendableGrow drives random AddTask/AddEdge/Grow sequences,
// including rejected edges, and checks every Grow against Seal.
func FuzzAppendableGrow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 3, 0, 1, 1, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 3, 1, 3, 0, 1, 2, 0, 1, 1, 0, 3, 1, 2, 1, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 4, 0, 1, 4, 1, 1, 4, 2, 1, 4, 3, 3, 1, 0, 1, 1, 0, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		c := &growChecker{ap: NewAppendable("fuzz")}
		next := func(i *int) int {
			if *i >= len(ops) {
				return 0
			}
			*i++
			return int(ops[*i-1])
		}
		for i := 0; i < len(ops); {
			switch next(&i) % 4 {
			case 0:
				if _, err := c.ap.AddTask("", float64(next(&i)%8)); err != nil {
					t.Fatal(err)
				}
			case 1, 2:
				if n := c.ap.Len(); n > 0 {
					from, to := TaskID(next(&i)%n), TaskID(next(&i)%n)
					edges := c.ap.NumEdges()
					if err := c.ap.AddEdge(from, to, float64(next(&i)%16)); err != nil && c.ap.NumEdges() != edges {
						t.Fatalf("rejected edge (%d,%d) changed the edge count", from, to)
					}
				}
			case 3:
				if c.ap.Len() > 0 {
					c.grow(t)
				}
			}
		}
		if c.ap.Len() > 0 {
			c.grow(t)
		}
	})
}
