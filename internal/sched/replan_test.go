package sched

import (
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
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

func TestEFTFlooredAtZeroMatchesEFTOn(t *testing.T) {
	in := replanInstance(t, 4, 30, 3)
	pl := NewPlan(in)
	order := in.G.TopoOrder()
	for _, task := range order {
		for p := 0; p < in.P(); p++ {
			s0, f0 := pl.EFTOn(task, p, true)
			s1, f1 := EFTFloored(pl, task, p, 0, true)
			if s0 != s1 || f0 != f1 {
				t.Fatalf("task %d proc %d: floored (%x,%x) != EFTOn (%x,%x)", task, p, s1, f1, s0, f0)
			}
		}
		p, s, _ := pl.BestEFT(task, true)
		pl.Place(task, p, s)
	}
}
