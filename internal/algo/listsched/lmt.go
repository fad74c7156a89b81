package listsched

import (
	"cmp"
	"context"
	"slices"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// LMT is the Levelized Min Time algorithm of Iverson, Özgüner and Follen:
// tasks are partitioned into precedence levels; within each level
// (mutually independent tasks) the tasks are considered in decreasing
// mean cost and each is assigned to the processor minimizing its finish
// time given the partial schedule — a min-time pass per level.
type LMT struct{}

// Name implements algo.Algorithm.
func (LMT) Name() string { return "LMT" }

// Schedule implements algo.Algorithm.
func (l LMT) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return l.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler.
func (LMT) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	key := make([]float64, in.N())
	for i := range key {
		key[i] = in.MeanCost(dag.TaskID(i))
	}
	return placeOrder(ctx, in, HEFTParam(), levelOrder(in, key), "LMT")
}

// levelOrder is the order PETS and LMT share: the depth levels in turn,
// each sorted by decreasing key with ids breaking ties. Both place it
// with HEFT's selection (insertion-based best EFT).
func levelOrder(in *sched.Instance, key []float64) []dag.TaskID {
	off, tasks := in.G.DepthLevels()
	order := slices.Clone(tasks)
	for l := 0; l+1 < len(off); l++ {
		slices.SortFunc(order[off[l]:off[l+1]], func(a, b dag.TaskID) int {
			if c := cmp.Compare(key[b], key[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	return order
}
