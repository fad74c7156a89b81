package algo

import (
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// benchFanInPlan builds a wide fan-in (width parents joining into one
// task) scheduled greedily across 8 processors, so a duplication trial
// on the join task has real work to do: several remote critical parents
// worth copying into gaps.
func benchFanInPlan(b *testing.B, width int) (*sched.Plan, dag.TaskID) {
	b.Helper()
	bld := dag.NewBuilder("fanin")
	rng := rand.New(rand.NewSource(11))
	join := dag.TaskID(-1)
	parents := make([]dag.TaskID, width)
	for i := range parents {
		parents[i] = bld.AddTask("p", 1+rng.Float64()*3)
	}
	join = bld.AddTask("j", 2)
	for _, p := range parents {
		bld.AddEdge(p, join, 2+rng.Float64()*6)
	}
	in := sched.Consistent(bld.MustBuild(), platform.Homogeneous(8, 0, 1))
	pl := sched.NewPlan(in)
	for _, t := range parents {
		p, s, _ := pl.BestEFT(t, true)
		pl.Place(t, p, s)
	}
	return pl, join
}

// BenchmarkTryDuplication measures a single duplication trial (place
// duplicates of critical parents, decide, undo) on the plan's journal —
// the inner loop of DSH and ILS-D.
func BenchmarkTryDuplication(b *testing.B) {
	pl, join := benchFanInPlan(b, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := pl.Mark()
		res := TryDuplication(pl, join, 0, 8)
		pl.Undo(m)
		if res.Finish <= 0 {
			b.Fatal("bogus trial result")
		}
	}
	pl.Commit()
}
