package sched

import (
	"math"
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched/timeline"
)

// replanInstance builds a random layered instance for the suffix
// re-planning tests.
func replanInstance(t *testing.T, seed int64, n, procs int) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dag.NewBuilder("replan")
	for i := 0; i < n; i++ {
		b.AddTask("", float64(1+rng.Intn(9)))
	}
	for to := 1; to < n; to++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			from := rng.Intn(to)
			b.AddEdge(dag.TaskID(from), dag.TaskID(to), float64(rng.Intn(20)))
		}
	}
	g, err := b.Build()
	if err != nil {
		// Duplicate edges from the random draw: retry with the next seed.
		return replanInstance(t, seed+1000, n, procs)
	}
	return Consistent(g, platform.Homogeneous(procs, 1, 0.25))
}

// heftPlan schedules the instance with a plain EFT list pass (upward
// rank order), returning the plan.
func heftPlan(in *Instance) *Plan {
	pl := NewPlan(in)
	order := in.G.TopoOrder()
	for _, t := range order {
		p, s, _ := pl.BestEFT(t, true)
		pl.Place(t, p, s)
	}
	return pl
}

func TestSeedPlanRoundTrip(t *testing.T) {
	in := replanInstance(t, 1, 40, 3)
	pl := heftPlan(in)
	s := pl.Finalize("seed")

	var as []Assignment
	for i := 0; i < in.N(); i++ {
		as = append(as, pl.Copies(dag.TaskID(i))...)
	}
	re := SeedPlan(in, as)
	if re.Makespan() != pl.Makespan() {
		t.Fatalf("makespan %v != %v", re.Makespan(), pl.Makespan())
	}
	for i := 0; i < in.N(); i++ {
		if re.Primary(dag.TaskID(i)) != pl.Primary(dag.TaskID(i)) {
			t.Fatalf("task %d moved: %+v != %+v", i, re.Primary(dag.TaskID(i)), pl.Primary(dag.TaskID(i)))
		}
	}
	if err := re.Finalize("seed").Validate(); err != nil {
		t.Fatalf("reseeded schedule invalid: %v", err)
	}
	_ = s
}

// TestGrowReadmitsShortGaps grows a plan, whose timeline holds a gap
// shorter than every cost, with a cheaper task that fits it. The gap
// index left that gap out; Grow must rebuild it so the index itself
// answers the cheaper task's query with the linear scan's answer.
func TestGrowReadmitsShortGaps(t *testing.T) {
	b := dag.NewBuilder("grow")
	b.AddTask("", 4)
	b.AddTask("", 4)
	small, err := NewInstance(b.MustBuild(), platform.Homogeneous(1, 0, 1), [][]float64{{4}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(small)
	pl.Place(0, 0, 0)
	pl.Place(1, 0, 5) // leaves the idle gap [4, 5), shorter than any cost
	if got := len(pl.gaps[0].Gaps()); got != 1 {
		t.Fatalf("index holds %d gaps before the cheaper task, want only the tail", got)
	}

	b = dag.NewBuilder("grow")
	b.AddTask("", 4)
	b.AddTask("", 4)
	b.AddTask("", 1)
	grown, err := NewInstance(b.MustBuild(), platform.Homogeneous(1, 0, 1), [][]float64{{4}, {4}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Grow(grown); err != nil {
		t.Fatal(err)
	}
	want := scanSlot(pl.OnProc(0), 0, 1)
	if want != 4 {
		t.Fatalf("linear scan answers %v, want 4", want)
	}
	if got := pl.FindSlot(0, 0, 1, true); got != want {
		t.Fatalf("FindSlot = %v, linear scan %v", got, want)
	}
	if got, ok := pl.gaps[0].EarliestFit(0, 1); !ok || got != want {
		t.Fatalf("gap index answers %v (ok %v), want %v from the index itself", got, ok, want)
	}
}

// scanSlot is the linear reference slot scan FindSlot falls back to.
func scanSlot(t []Assignment, ready, dur float64) float64 {
	prevFinish := 0.0
	for _, a := range t {
		start := math.Max(ready, prevFinish)
		if start+dur <= a.Start+timeline.Eps {
			return start
		}
		prevFinish = math.Max(prevFinish, a.Finish)
	}
	return math.Max(ready, prevFinish)
}
