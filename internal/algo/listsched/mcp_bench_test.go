package listsched

import (
	"fmt"
	"math/rand"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/sched"
	"dagsched/internal/workload"
)

// BenchmarkMCPScaling guards MCP's near-linear ready-queue behavior: the
// per-task cost at n=10000 must stay close to the n=1000 figure. The seed
// implementation's O(ready-width) pick scan made it 4x worse per task at
// 10k (15.2µs vs 3.7µs per task); the position-heap ready queue keeps the
// ratio flat. Compare ns/op divided by n across the sub-benchmarks.
func BenchmarkMCPScaling(b *testing.B) {
	benchScaling(b, MCP{})
}

// BenchmarkReadyOrderScaling guards the ready-order grid points the same
// way: HLFET takes its whole order from a radix sort of its static
// levels, and CPOP, whose rank_u + rank_d rises along arcs, from one
// ready heap; an argmax scan over the ready list per pick made the
// per-task cost grow with the ready width. Compare ns/op divided by n
// across n.
func BenchmarkReadyOrderScaling(b *testing.B) {
	for _, a := range []algo.Algorithm{HLFET{}, CPOP{}} {
		b.Run(a.Name(), func(b *testing.B) { benchScaling(b, a) })
	}
}

// benchScaling runs a on one het instance (P=8, CCR 1, β 1) per size.
func benchScaling(b *testing.B, a algo.Algorithm) {
	for _, n := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(int64(n)))
		g, err := workload.Random(workload.RandomConfig{N: n}, rng)
		if err != nil {
			b.Fatal(err)
		}
		in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := a.Schedule(in)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = s
			}
		})
	}
}

var benchSink *sched.Schedule
