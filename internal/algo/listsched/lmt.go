package listsched

import (
	"cmp"
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
func (LMT) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	key := make([]float64, in.N())
	for i := range key {
		key[i] = in.MeanCost(dag.TaskID(i))
	}
	return levelPass(in, key, "LMT"), nil
}

// levelPass is the level-by-level list scheduler PETS and LMT share: the
// depth levels go in order, each sorted by decreasing key with ids
// breaking ties, and every task goes to its insertion-based best-EFT
// processor.
func levelPass(in *sched.Instance, key []float64, name string) *sched.Schedule {
	off, tasks := in.G.DepthLevels()
	order := slices.Clone(tasks)
	pl := sched.NewPlan(in)
	for l := 0; l+1 < len(off); l++ {
		level := order[off[l]:off[l+1]]
		slices.SortFunc(level, func(a, b dag.TaskID) int {
			if c := cmp.Compare(key[b], key[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for _, t := range level {
			p, s, _ := pl.BestEFT(t, true)
			pl.Place(t, p, s)
		}
	}
	return pl.Finalize(name)
}
