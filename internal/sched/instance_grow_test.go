package sched

import (
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

// TestInstanceGrowMatchesFresh streams a random DAG into a
// dag.Appendable in topological, reverse and shuffled arrival, growing
// one instance in place at every batch, and checks every cached
// statistic bit-identical to a fresh NewInstance of the sealed graph.
// A third of the arcs arrive some batches after both their endpoints,
// so blocks take arcs mid-block; full blocks move, so kept prefixes move
// and shifted arcs are recomputed.
func TestInstanceGrowMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys, err := platform.Generate(platform.GenConfig{Procs: 4, Latency: 1.5, TimePerUnit: 0.5, LinkSpread: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	type arc struct{ from, to int }
	var arcs []arc
	for to := 1; to < n; to++ {
		for k := 0; k < 3; k++ {
			arcs = append(arcs, arc{rng.Intn(to), to})
		}
	}
	for _, order := range []string{"topo", "reverse", "shuffled"} {
		arrival := rng.Perm(n)
		for i := range arrival {
			switch order {
			case "topo":
				arrival[i] = i
			case "reverse":
				arrival[i] = n - 1 - i
			}
		}
		pos := make([]int, n)
		for i, v := range arrival {
			pos[v] = i
		}
		ap := dag.NewAppendable("grow")
		var w [][]float64
		var grown *Instance
		var deferred []arc
		moved, midBlock := 0, 0
		for i := range arrival {
			if _, err := ap.AddTask("", float64(1+rng.Intn(9))); err != nil {
				t.Fatal(err)
			}
			row := make([]float64, sys.Len())
			for p := range row {
				row[p] = float64(1+rng.Intn(9)) * (0.5 + rng.Float64())
			}
			w = append(w, row)
			for _, a := range arcs {
				from, to := pos[a.from], pos[a.to]
				if (from == i && to < i) || (to == i && from < i) {
					deferred = append(deferred, arc{from, to})
				}
			}
			kept := deferred[:0]
			for _, a := range deferred {
				if i == n-1 || rng.Intn(3) > 0 {
					// Ignore duplicates: the random draw may repeat an arc.
					_ = ap.AddEdge(dag.TaskID(a.from), dag.TaskID(a.to), float64(rng.Intn(20)))
				} else {
					kept = append(kept, a)
				}
			}
			deferred = kept
			if i%8 != 7 && i != n-1 {
				continue
			}
			g, changes, err := ap.Grow()
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range changes {
				off, arcs := g.SuccStart(c.Task), g.OutDegree(c.Task)
				if c.Pred {
					off, arcs = g.PredStart(c.Task), g.InDegree(c.Task)
				}
				if c.OldOff >= 0 && c.Keep > 0 && c.OldOff != off {
					moved++
				}
				if c.Keep < arcs-1 {
					midBlock++
				}
			}
			if grown == nil {
				grown, err = NewInstance(g, sys, w)
			} else {
				err = grown.Grow(w, changes)
			}
			if err != nil {
				t.Fatal(err)
			}
			sealed, err := ap.Seal()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewInstance(sealed, sys, w)
			if err != nil {
				t.Fatal(err)
			}
			instancesMatch(t, order, i, grown, fresh)
		}
		if moved == 0 || midBlock == 0 {
			t.Fatalf("%s: %d moved blocks, %d mid-block rewrites; want both", order, moved, midBlock)
		}
	}
}

// instancesMatch asserts every cached statistic of got, the smallest
// cost included, is bit-identical to want's, and so are the upward ranks
// that read them.
func instancesMatch(t *testing.T, order string, step int, got, want *Instance) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s step %d: %d tasks, want %d", order, step, got.N(), want.N())
	}
	if got.minW != want.minW {
		t.Fatalf("%s step %d: smallest cost %x, want %x", order, step, got.minW, want.minW)
	}
	for i := 0; i < want.N(); i++ {
		v := dag.TaskID(i)
		if got.MeanCost(v) != want.MeanCost(v) || got.SigmaCost(v) != want.SigmaCost(v) {
			t.Fatalf("%s step %d task %d: stats differ: mean %x/%x sigma %x/%x", order, step, i,
				got.MeanCost(v), want.MeanCost(v), got.SigmaCost(v), want.SigmaCost(v))
		}
		for p := 0; p < want.P(); p++ {
			if got.Cost(v, p) != want.Cost(v, p) {
				t.Fatalf("%s step %d task %d proc %d: cost differs", order, step, i, p)
			}
		}
		for j := range want.G.Succ(v) {
			if got.MeanCommSucc(v, j) != want.MeanCommSucc(v, j) {
				t.Fatalf("%s step %d task %d succ arc %d: mean comm %x != %x", order, step, i, j,
					got.MeanCommSucc(v, j), want.MeanCommSucc(v, j))
			}
		}
		for j := range want.G.Pred(v) {
			if got.MeanCommPred(v, j) != want.MeanCommPred(v, j) {
				t.Fatalf("%s step %d task %d pred arc %d: mean comm %x != %x", order, step, i, j,
					got.MeanCommPred(v, j), want.MeanCommPred(v, j))
			}
		}
	}
	gr, fr := RankUpward(got), RankUpward(want)
	for i := range fr {
		if gr[i] != fr[i] {
			t.Fatalf("%s step %d: rank[%d] %x != %x", order, step, i, gr[i], fr[i])
		}
	}
}

func TestInstanceGrowValidates(t *testing.T) {
	ap := dag.NewAppendable("g")
	ap.AddTask("", 1)
	g, _, err := ap.Grow()
	if err != nil {
		t.Fatal(err)
	}
	sys := platform.Homogeneous(2, 0, 1)
	in, err := NewInstance(g, sys, [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ap.AddTask("", 2)
	if err := ap.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	_, changes, err := ap.Grow()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][][]float64{
		{{1, 2}},          // short cost matrix
		{{1, 2}, {3}},     // ragged row
		{{1, 2}, {3, -1}}, // negative cost
	} {
		if err := in.Grow(w, changes); err == nil {
			t.Fatalf("cost matrix %v accepted", w)
		}
		if len(in.W) != 1 || len(in.meanW) != 1 {
			t.Fatalf("rejected grow changed the instance: %d rows", len(in.W))
		}
	}
	if err := in.Grow([][]float64{{1, 2}, {3, 4}}, changes); err != nil {
		t.Fatal(err)
	}
	if in.MeanCost(1) != 3.5 || in.MeanCommSucc(0, 0) != in.MeanCommData(3) {
		t.Fatalf("grown task: mean %v, arc %v", in.MeanCost(1), in.MeanCommSucc(0, 0))
	}
	if err := in.Grow([][]float64{{1, 2}, {3, 4}}, nil); err != nil {
		t.Fatalf("no-op grow rejected: %v", err)
	}
}
