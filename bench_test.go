package dagsched_test

// One benchmark per experiment of the reproduction suite (see DESIGN.md's
// experiment index and EXPERIMENTS.md for the recorded tables): running
// `go test -bench=.` regenerates every table/figure in quick mode and
// reports the wall time of doing so. Set -benchtime=1x for a single
// regeneration per experiment; the rendered tables of the full suite come
// from cmd/schedbench.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"dagsched"
)

// runExperiment drives one suite experiment in quick mode.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := dagsched.ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(dagsched.ExperimentConfig{Quick: true, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := dagsched.RenderExperimentMarkdown(io.Discard, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE1SLRBySize(b *testing.B)           { runExperiment(b, "E1") }
func BenchmarkE2SLRByCCR(b *testing.B)            { runExperiment(b, "E2") }
func BenchmarkE3SpeedupByProcs(b *testing.B)      { runExperiment(b, "E3") }
func BenchmarkE4SLRByHeterogeneity(b *testing.B)  { runExperiment(b, "E4") }
func BenchmarkE5SLRByShape(b *testing.B)          { runExperiment(b, "E5") }
func BenchmarkE6GaussianElimination(b *testing.B) { runExperiment(b, "E6") }
func BenchmarkE7FFT(b *testing.B)                 { runExperiment(b, "E7") }
func BenchmarkE8Laplace(b *testing.B)             { runExperiment(b, "E8") }
func BenchmarkE9WinTieLoss(b *testing.B)          { runExperiment(b, "E9") }
func BenchmarkE10Homogeneous(b *testing.B)        { runExperiment(b, "E10") }
func BenchmarkE11Ablation(b *testing.B)           { runExperiment(b, "E11") }
func BenchmarkE12OptimalityAndRuntime(b *testing.B) {
	runExperiment(b, "E12")
}
func BenchmarkE13Robustness(b *testing.B)      { runExperiment(b, "E13") }
func BenchmarkE14ExtendedLineup(b *testing.B)  { runExperiment(b, "E14") }
func BenchmarkE15SearchVsList(b *testing.B)    { runExperiment(b, "E15") }
func BenchmarkE16Contention(b *testing.B)      { runExperiment(b, "E16") }
func BenchmarkE17DupBudget(b *testing.B)       { runExperiment(b, "E17") }
func BenchmarkE18LinkSpread(b *testing.B)      { runExperiment(b, "E18") }
func BenchmarkE19FailStopRepair(b *testing.B)  { runExperiment(b, "E19") }
func BenchmarkE20CommModels(b *testing.B)      { runExperiment(b, "E20") }
func BenchmarkE21FaultRobustness(b *testing.B) { runExperiment(b, "E21") }

// benchSizeCap bounds the DAG size each algorithm is benchmarked at in
// BenchmarkAlgorithms (it mirrors scaleSizeCap in cmd/schedbench, whose
// larger caps lie beyond this sweep). ETF and DLS scan every (ready
// task, processor) pair per pick: they stop at 1k. Algorithms not
// listed default to 10000.
var benchSizeCap = map[string]int{
	"ETF": 1000,
	"DLS": 1000,
}

// BenchmarkAlgorithms times every registry algorithm on layered random
// DAGs at n ∈ {100, 1000, 10000} tasks over 8 processors. This is the
// perf-trajectory benchmark: cmd/schedbench -scale emits the same
// measurements as BENCH_sched.json.
func BenchmarkAlgorithms(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := dagsched.RandomDAG(dagsched.RandomDAGConfig{N: n}, rng)
		if err != nil {
			b.Fatal(err)
		}
		in, err := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range dagsched.Algorithms() {
			cap, ok := benchSizeCap[a.Name()]
			if ok && n > cap {
				continue
			}
			a := a
			b.Run(fmt.Sprintf("%s/n%d", a.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := a.Schedule(in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Micro-benchmarks of the schedulers themselves: time to schedule one
// random 100-task DAG on 8 processors, per algorithm.
func BenchmarkSchedulers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := dagsched.RandomDAG(dagsched.RandomDAGConfig{N: 100}, rng)
	if err != nil {
		b.Fatal(err)
	}
	in, err := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range dagsched.Algorithms() {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Schedule(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Scaling benchmark: ILS scheduling time by DAG size.
func BenchmarkILSScaling(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g, err := dagsched.RandomDAG(dagsched.RandomDAGConfig{N: n}, rng)
			if err != nil {
				b.Fatal(err)
			}
			in, err := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
			if err != nil {
				b.Fatal(err)
			}
			alg := dagsched.ILS()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Schedule(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Substrate micro-benchmarks.
func BenchmarkRandomDAGGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dagsched.RandomDAG(dagsched.RandomDAGConfig{N: 200}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateReplay(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g, _ := dagsched.RandomDAG(dagsched.RandomDAGConfig{N: 200}, rng)
	in, _ := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
	s, err := dagsched.ILS().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dagsched.Simulate(s, dagsched.SimConfig{Noise: 0.2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
