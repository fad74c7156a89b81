package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dagsched/internal/sched"
	"dagsched/internal/workload"
)

// benchInstance builds the same design point the repository-level scale
// sweep uses (8 processors, CCR 1, heterogeneity 1) at the given size.
func benchInstance(b *testing.B, n int) *sched.Instance {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g, err := workload.Random(workload.RandomConfig{N: n}, rng)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkILSEndToEnd times the full ILS configuration (σ-rank +
// lookahead + duplication) on the scale-sweep design point. The trial
// journal is the hot path: allocations per op track how much state the
// trials churn.
func BenchmarkILSEndToEnd(b *testing.B) {
	for _, n := range []int{100, 1000} {
		in := benchInstance(b, n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New().Schedule(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
