package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dagsched/internal/sched"
	"dagsched/internal/workload"
)

// benchInstance draws an n-task random DAG of the given shape on the
// given platform, seeded by n.
func benchInstance(b *testing.B, n int, shape float64, cfg workload.HetConfig) *sched.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g, err := workload.Random(workload.RandomConfig{N: n, Shape: shape}, rng)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.MakeInstance(g, cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkILSEndToEnd times the full ILS configuration (σ-rank +
// lookahead + duplication) on the scale-sweep design point (8
// processors, CCR 1, heterogeneity 1), and on 32 identical processors
// with a wide graph, where each task's P trials estimate its critical
// child on P processors. The trial journal is the hot path: allocations
// per op track how much state the trials churn.
func BenchmarkILSEndToEnd(b *testing.B) {
	type point struct {
		name string
		in   *sched.Instance
	}
	var points []point
	for _, n := range []int{100, 1000} {
		points = append(points, point{fmt.Sprintf("n%d", n), benchInstance(b, n, 0, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1})})
	}
	points = append(points, point{"homo32/n1000", benchInstance(b, 1000, 3, workload.HetConfig{Procs: 32, CCR: 1})})
	for _, pt := range points {
		b.Run(pt.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New().Schedule(pt.in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
