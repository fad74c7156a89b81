package algo

import (
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
// bit-identical to a full sched.RankUpward on the grown instance.
func replayGrowth(t *testing.T, steps []growthStep, procs int, dirtyFrac float64) (fallbacks, repairs int) {
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
		rt.Update(in, oldN, added, pos, order, dirtyFrac)
		oldN = ap.Len()

		want := sched.RankUpward(in)
		got := rt.Ranks()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("step %d: rank[%d] = %x, want %x (full=%v repaired=%d)",
					si, v, got[v], want[v], rt.Full, rt.Repaired)
			}
		}
		if rt.Full {
			fallbacks++
		} else {
			repairs++
		}
	}
	return fallbacks, repairs
}

func TestRankTrackerMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		steps := randomGrowth(rng, 10, 4)
		replayGrowth(t, steps, 3, 0) // default dirty fraction
	}
}

func TestRankTrackerIncrementalPathTaken(t *testing.T) {
	// Tasks arriving in dependency order with edges only into the recent
	// suffix keep the dirty set small: the incremental path must actually
	// run (not just fall back every batch).
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
	fallbacks, repairs := replayGrowth(t, steps, 4, 0)
	if repairs == 0 {
		t.Fatalf("incremental path never taken (%d fallbacks)", fallbacks)
	}
}

func TestRankTrackerFallbackForced(t *testing.T) {
	// A tiny dirty fraction forces the fallback; results must still be
	// bit-identical (it is the full kernel).
	rng := rand.New(rand.NewSource(23))
	steps := randomGrowth(rng, 6, 5)
	fallbacks, _ := replayGrowth(t, steps, 2, 0.0001)
	if fallbacks != len(steps) {
		t.Fatalf("fallbacks = %d, want %d", fallbacks, len(steps))
	}
}
