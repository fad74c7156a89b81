package suite

import (
	"math"
	"math/rand"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/workload"
)

// scaleInstance multiplies every execution cost and every data volume by
// k, which must scale any scale-invariant scheduler's makespan by exactly
// k (all decisions compare linear combinations of costs).
func scaleInstance(t *testing.T, in *sched.Instance, k float64) *sched.Instance {
	t.Helper()
	b := dag.NewBuilder(in.G.Name())
	for _, task := range in.G.Tasks() {
		b.AddTask(task.Name, task.Weight*k)
	}
	for _, e := range in.G.Edges() {
		b.AddEdge(e.From, e.To, e.Data*k)
	}
	g := b.MustBuild()
	w := make([][]float64, in.N())
	for i := range w {
		w[i] = make([]float64, in.P())
		for p := range w[i] {
			w[i][p] = in.W[i][p] * k
		}
	}
	// The system itself is unchanged (unit rates): scaling data scales
	// comm costs linearly because latency is zero in this fixture.
	in2, err := sched.NewInstance(g, in.Sys, w)
	if err != nil {
		t.Fatal(err)
	}
	return in2
}

// TestScaleInvariance: for every deterministic comparison-based scheduler,
// multiplying all costs by k multiplies the makespan by exactly k.
// PETS is excluded — its rank uses round(), which is intentionally not
// scale-invariant.
func TestScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g, err := workload.Random(workload.RandomConfig{N: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	sys := platform.Homogeneous(4, 0, 1)
	in, err := sched.Unrelated(g, sys, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3.5
	scaled := scaleInstance(t, in, k)
	for _, a := range All() {
		if a.Name() == "PETS" {
			continue
		}
		runBoth(t, a, in, scaled, k)
	}
}

func runBoth(t *testing.T, a algo.Algorithm, in, scaled *sched.Instance, k float64) {
	t.Helper()
	s1, err := a.Schedule(in)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	s2, err := a.Schedule(scaled)
	if err != nil {
		t.Fatalf("%s scaled: %v", a.Name(), err)
	}
	want := s1.Makespan() * k
	if math.Abs(s2.Makespan()-want) > 1e-6*want {
		t.Errorf("%s not scale-invariant: %g × %g = %g, got %g",
			a.Name(), s1.Makespan(), k, want, s2.Makespan())
	}
}

// TestScheduleIsPureFunctionOfInstance schedules one homogeneous
// instance twice with every registry algorithm and requires the same
// makespan: an algorithm's output depends on its instance alone, not on
// state left from an earlier run.
func TestScheduleIsPureFunctionOfInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	g, err := workload.Random(workload.RandomConfig{N: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 4, CCR: 1, Beta: 0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		s1, err1 := a.Schedule(in)
		s2, err2 := a.Schedule(in)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v/%v", a.Name(), err1, err2)
		}
		if s1.Makespan() != s2.Makespan() {
			t.Errorf("%s is not a pure function of its instance", a.Name())
		}
	}
}
