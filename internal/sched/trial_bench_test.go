package sched

import (
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

// benchChainPlan builds a chain of n tasks with all but the last placed
// by best EFT over 8 processors, leaving realistic gap structure for
// trials.
func benchChainPlan(b *testing.B, n int) (*Instance, *Plan) {
	b.Helper()
	bld := dag.NewBuilder("bench")
	rng := rand.New(rand.NewSource(7))
	prev := dag.TaskID(-1)
	for i := 0; i < n; i++ {
		t := bld.AddTask("t", 1+rng.Float64()*4)
		if prev != -1 {
			bld.AddEdge(prev, t, rng.Float64()*5)
		}
		prev = t
	}
	in := Consistent(bld.MustBuild(), platform.Homogeneous(8, 0, 1))
	pl := NewPlan(in)
	for i := 0; i < n-1; i++ {
		p, s, _ := pl.BestEFT(dag.TaskID(i), true)
		pl.Place(dag.TaskID(i), p, s)
	}
	return in, pl
}

// BenchmarkTrialMarkUndo measures the fixed cost of a trial that places
// one duplicate and the task and is then undone — the step the
// duplication and lookahead schedulers repeat for every processor. The
// cost must be O(changes), independent of how much schedule the plan
// already holds (compare n100 with n1000), and allocation-free once the
// journal has grown.
func BenchmarkTrialMarkUndo(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"n100", 100}, {"n1000", 1000}} {
		in, pl := benchChainPlan(b, tc.n)
		last := dag.TaskID(tc.n - 1)
		parent := dag.TaskID(tc.n - 2)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := pl.Mark()
				ps := pl.FindSlot(3, pl.DataReady(parent, 3), in.Cost(parent, 3), true)
				pl.PlaceDup(parent, 3, ps)
				s := pl.FindSlot(3, pl.DataReady(last, 3), in.Cost(last, 3), true)
				pl.Place(last, 3, s)
				pl.Undo(m)
			}
			pl.Commit()
		})
	}
}
