package dagsched_test

import (
	"fmt"
	"math/rand"

	"dagsched"
)

// ExampleILS schedules a hand-built graph on two processors.
func ExampleILS() {
	b := dagsched.NewGraph("example")
	a := b.AddTask("a", 2)
	c := b.AddTask("b", 3)
	d := b.AddTask("c", 1)
	b.AddEdge(a, c, 1)
	b.AddEdge(a, d, 1)
	g, _ := b.Build()
	in := dagsched.ConsistentInstance(g, dagsched.HomogeneousSystem(2, 0, 1))
	s, _ := dagsched.ILS().Schedule(in)
	fmt.Printf("makespan %.4g on %d processors\n", s.Makespan(), 2)
	// Output: makespan 5 on 2 processors
}

// ExampleEvaluate compares two algorithms on the same instance.
func ExampleEvaluate() {
	rng := rand.New(rand.NewSource(1))
	g, _ := dagsched.GaussianEliminationDAG(6)
	in, _ := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 4, CCR: 1, Beta: 1}, rng)
	for _, name := range []string{"HEFT", "ILS"} {
		a, _ := dagsched.AlgorithmByName(name)
		res, _ := dagsched.Evaluate(a, in)
		fmt.Printf("%s SLR below 3: %v\n", name, res.SLR < 3)
	}
	// Output:
	// HEFT SLR below 3: true
	// ILS SLR below 3: true
}

// ExampleSimulate replays a schedule exactly and under noise.
func ExampleSimulate() {
	rng := rand.New(rand.NewSource(2))
	g, _ := dagsched.FFTDAG(8)
	in, _ := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 3, CCR: 1, Beta: 0.5}, rng)
	s, _ := dagsched.ILS().Schedule(in)
	exact, _ := dagsched.Simulate(s, dagsched.SimConfig{})
	fmt.Printf("exact replay matches: %v\n", exact.Stretch == 1)
	noisy, _ := dagsched.Simulate(s, dagsched.SimConfig{Noise: 0.3, Seed: 7})
	fmt.Printf("noisy replay differs: %v\n", noisy.Makespan != s.Makespan())
	// Output:
	// exact replay matches: true
	// noisy replay differs: true
}

// ExampleRepair reschedules around a processor failure.
func ExampleRepair() {
	rng := rand.New(rand.NewSource(5))
	g, _ := dagsched.LaplaceDAG(4)
	in, _ := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 3, CCR: 1, Beta: 0.5}, rng)
	s, _ := dagsched.ILS().Schedule(in)
	r, out, _ := dagsched.AssessFailure(s, dagsched.RepairEvent{Proc: 0, Time: s.Makespan() / 2})
	fmt.Printf("repaired schedule valid: %v\n", r.Validate() == nil)
	fmt.Printf("repair never improves a failure-free run: %v\n", out.Repaired >= out.Nominal-1e-9)
	// Output:
	// repaired schedule valid: true
	// repair never improves a failure-free run: true
}

// ExampleAnalyze inspects a schedule's slack structure.
func ExampleAnalyze() {
	rng := rand.New(rand.NewSource(6))
	g, _ := dagsched.ForkJoinDAG(4, 2)
	in, _ := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 2, CCR: 1, Beta: 0}, rng)
	s, _ := dagsched.ILS().Schedule(in)
	an := dagsched.Analyze(s)
	fmt.Printf("critical tasks exist: %v\n", len(an.Critical) > 0)
	fmt.Printf("slack entries: %d\n", len(an.Slack))
	// Output:
	// critical tasks exist: true
	// slack entries: 10
}

// ExampleOptimal proves a tiny schedule optimal by branch and bound.
func ExampleOptimal() {
	b := dagsched.NewGraph("tiny")
	x := b.AddTask("x", 2)
	y := b.AddTask("y", 2)
	z := b.AddTask("z", 2)
	b.AddEdge(x, z, 1)
	b.AddEdge(y, z, 1)
	g, _ := b.Build()
	in := dagsched.ConsistentInstance(g, dagsched.HomogeneousSystem(2, 0, 1))
	s, err := dagsched.Optimal(in)
	fmt.Println(s.Makespan(), err)
	// Output: 5 <nil>
}
