package algo

import (
	"fmt"
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// growthStep is one batch of appends: tasks then edges.
type growthStep struct {
	weights []float64
	edges   []dag.Edge
}

// randomGrowth builds a random DAG arrival sequence: tasks arrive in
// batches, each followed by random edges into the already-present
// prefix (both directions relative to arrival, so rank repair sees new
// arcs between old tasks too).
func randomGrowth(rng *rand.Rand, batches, perBatch int) []growthStep {
	var steps []growthStep
	n := 0
	seen := map[[2]int]bool{}
	for b := 0; b < batches; b++ {
		var st growthStep
		base := n
		for k := 0; k < perBatch; k++ {
			st.weights = append(st.weights, float64(1+rng.Intn(9)))
			n++
		}
		for k := 0; k < perBatch*2 && n > 1; k++ {
			from := rng.Intn(n)
			to := rng.Intn(n)
			if from == to {
				continue
			}
			// Orient by id so the accumulated graph stays acyclic; new
			// arcs still land between two old tasks when both ids < base.
			if from > to {
				from, to = to, from
			}
			if from >= base && rng.Intn(2) == 0 {
				continue
			}
			if seen[[2]int{from, to}] {
				continue
			}
			seen[[2]int{from, to}] = true
			st.edges = append(st.edges, dag.Edge{From: dag.TaskID(from), To: dag.TaskID(to), Data: float64(rng.Intn(40))})
		}
		steps = append(steps, st)
	}
	return steps
}

// replayGrowth drives an Appendable and a RankTracker through the
// steps, asserting after every batch that the tracker's ranks are
// bit-identical to a full sched.RankUpward on the grown instance and
// its invariants hold (checkTracker). It counts the batches that
// recomputed every rank and those that repaired a part.
func replayGrowth(t *testing.T, steps []growthStep, procs int) (whole, partial int) {
	t.Helper()
	sys := platform.Homogeneous(procs, 1, 0.5)
	ap := dag.NewAppendable("grow")
	rt := NewRankTracker()
	rng := rand.New(rand.NewSource(99))
	var w [][]float64
	oldN := 0
	for si, st := range steps {
		for _, wt := range st.weights {
			if _, err := ap.AddTask("", wt); err != nil {
				t.Fatal(err)
			}
			row := make([]float64, procs)
			for p := range row {
				row[p] = wt * (0.5 + rng.Float64())
			}
			w = append(w, row)
		}
		var added []dag.Edge
		for _, e := range st.edges {
			if err := ap.AddEdge(e.From, e.To, e.Data); err != nil {
				t.Fatalf("step %d AddEdge(%d,%d): %v", si, e.From, e.To, err)
			}
			added = append(added, e)
		}
		g, err := ap.Seal()
		if err != nil {
			t.Fatal(err)
		}
		in, err := sched.NewInstance(g, sys, w)
		if err != nil {
			t.Fatal(err)
		}
		pos, order := ap.Order()
		rt.Update(in, oldN, added, pos, order)
		oldN = ap.Len()
		if err := checkTracker(rt, in); err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		if rt.Repaired == in.N() {
			whole++
		} else {
			partial++
		}
	}
	return whole, partial
}

// checkTracker checks the tracker after an Update on in: ranks
// bit-identical to sched.RankUpward, the dirty bitmap cleared, and at
// most every task recomputed.
func checkTracker(rt *RankTracker, in *sched.Instance) error {
	want := sched.RankUpward(in)
	got := rt.Ranks()
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("rank[%d] = %x, want %x (repaired %d of %d)", v, got[v], want[v], rt.Repaired, in.N())
		}
	}
	for i, word := range rt.dirty {
		if word != 0 {
			return fmt.Errorf("dirty word %d = %#x after Update", i, word)
		}
	}
	if rt.Repaired < 0 || rt.Repaired > in.N() {
		return fmt.Errorf("repaired %d of %d tasks", rt.Repaired, in.N())
	}
	return nil
}

func TestRankTrackerMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		steps := randomGrowth(rng, 10, 4)
		replayGrowth(t, steps, 3)
	}
}

func TestRankTrackerIncrementalPathTaken(t *testing.T) {
	// Tasks arriving in dependency order with edges only into the recent
	// suffix keep the dirty set small: most batches must repair only a
	// part of the graph.
	rng := rand.New(rand.NewSource(17))
	var steps []growthStep
	n := 0
	for b := 0; b < 30; b++ {
		var st growthStep
		for k := 0; k < 3; k++ {
			st.weights = append(st.weights, float64(1+rng.Intn(5)))
			n++
		}
		for k := 0; k < 4 && n > 3; k++ {
			to := n - 1 - rng.Intn(3)
			lo := to - 6
			if lo < 0 {
				lo = 0
			}
			from := lo + rng.Intn(to-lo)
			st.edges = append(st.edges, dag.Edge{From: dag.TaskID(from), To: dag.TaskID(to), Data: 2})
		}
		// Dedup within the step.
		seen := map[[2]dag.TaskID]bool{}
		uniq := st.edges[:0]
		for _, e := range st.edges {
			if !seen[[2]dag.TaskID{e.From, e.To}] {
				seen[[2]dag.TaskID{e.From, e.To}] = true
				uniq = append(uniq, e)
			}
		}
		st.edges = uniq
		steps = append(steps, st)
	}
	whole, partial := replayGrowth(t, steps, 4)
	if partial < len(steps)/2 {
		t.Fatalf("%d of %d batches repaired a part of the graph (%d recomputed it whole)", partial, len(steps), whole)
	}
}

func TestRankTrackerWholeGraphDirty(t *testing.T) {
	// A heavy new task behind every sink lengthens every path to a sink,
	// so the last batch changes every rank: the repair propagates from
	// the sinks to the whole graph and recomputes every task once.
	rng := rand.New(rand.NewSource(23))
	steps := randomGrowth(rng, 6, 5)
	n, hasSucc := 0, map[dag.TaskID]bool{}
	for _, st := range steps {
		n += len(st.weights)
		for _, e := range st.edges {
			hasSucc[e.From] = true
		}
	}
	last := growthStep{weights: []float64{1000}}
	for v := 0; v < n; v++ {
		if !hasSucc[dag.TaskID(v)] {
			last.edges = append(last.edges, dag.Edge{From: dag.TaskID(v), To: dag.TaskID(n), Data: 1})
		}
	}
	steps = append(steps, last)
	sys := platform.Homogeneous(2, 1, 0.5)
	ap := dag.NewAppendable("whole")
	rt := NewRankTracker()
	var w [][]float64
	oldN := 0
	for si, st := range steps {
		for _, wt := range st.weights {
			if _, err := ap.AddTask("", wt); err != nil {
				t.Fatal(err)
			}
			w = append(w, []float64{wt, 2 * wt})
		}
		for _, e := range st.edges {
			if err := ap.AddEdge(e.From, e.To, e.Data); err != nil {
				t.Fatal(err)
			}
		}
		g, err := ap.Seal()
		if err != nil {
			t.Fatal(err)
		}
		in, err := sched.NewInstance(g, sys, w)
		if err != nil {
			t.Fatal(err)
		}
		before := append([]float64(nil), rt.Ranks()...)
		pos, order := ap.Order()
		rt.Update(in, oldN, st.edges, pos, order)
		oldN = ap.Len()
		if err := checkTracker(rt, in); err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		if si > 0 && si < len(steps)-1 {
			continue
		}
		// The first batch is all new; the last changes every rank.
		if rt.Repaired != in.N() {
			t.Fatalf("step %d repaired %d of %d tasks, want all", si, rt.Repaired, in.N())
		}
		for v, r := range before {
			if rt.Ranks()[v] == r {
				t.Fatalf("rank[%d] unchanged at %g by the heavy sink", v, r)
			}
		}
	}
}

// FuzzRankTracker grows a graph from fuzz bytes: tasks, arcs in either
// direction between any two tasks (so arcs between old tasks, and new
// tasks arriving ahead of old ones, which reorders the maintained
// positions), and Updates at arbitrary points. After every Update the
// ranks are bit-identical to sched.RankUpward, the bitmap is clear, and
// the recomputed count is at most the task count.
func FuzzRankTracker(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 1, 0, 1, 7, 3, 0, 2, 1, 2, 0, 4, 3})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 4, 1, 3, 0, 9, 2, 3, 1, 5, 3})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 3, 1, 1, 0, 2, 3, 0, 6, 2, 4, 1, 1, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		const procs = 3
		sys := platform.Homogeneous(procs, 1, 0.5)
		ap := dag.NewAppendable("fuzz")
		rt := NewRankTracker()
		var w [][]float64
		var added []dag.Edge
		oldN := 0
		next := func(i *int) int {
			if *i >= len(ops) {
				return 0
			}
			*i++
			return int(ops[*i-1])
		}
		update := func() {
			g, err := ap.Seal()
			if err != nil {
				t.Fatal(err)
			}
			in, err := sched.NewInstance(g, sys, w)
			if err != nil {
				t.Fatal(err)
			}
			pos, order := ap.Order()
			rt.Update(in, oldN, added, pos, order)
			if err := checkTracker(rt, in); err != nil {
				t.Fatal(err)
			}
			if oldN == 0 && rt.Repaired != in.N() {
				t.Fatalf("first Update recomputed %d of %d ranks", rt.Repaired, in.N())
			}
			oldN, added = ap.Len(), added[:0]
		}
		for i := 0; i < len(ops); {
			switch next(&i) % 4 {
			case 0:
				wt := float64(next(&i) % 8)
				if _, err := ap.AddTask("", wt); err != nil {
					t.Fatal(err)
				}
				w = append(w, []float64{wt, 1.5 * wt, 0.25 * wt})
			case 1, 2:
				if n := ap.Len(); n > 0 {
					e := dag.Edge{From: dag.TaskID(next(&i) % n), To: dag.TaskID(next(&i) % n), Data: float64(next(&i) % 16)}
					if ap.AddEdge(e.From, e.To, e.Data) == nil {
						added = append(added, e)
					}
				}
			case 3:
				if ap.Len() > 0 {
					update()
				}
			}
		}
		if ap.Len() > 0 {
			update()
		}
	})
}
