package listsched

import (
	"cmp"
	"context"
	"slices"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// HCPT is the Heterogeneous Critical Parent Trees algorithm of Hagras and
// Janeček (2003). Listing phase: tasks whose mean-cost average earliest
// start time (AEST) equals their average latest start time (ALST) form
// the critical path; critical tasks are visited in ascending ALST and,
// before each is listed, its unlisted parent tree is emitted bottom-up
// (parents in ascending ALST). Machine assignment: HEFT's selection
// (insertion-based EFT) over that list.
type HCPT struct{}

// Name implements algo.Algorithm.
func (HCPT) Name() string { return "HCPT" }

// Schedule implements algo.Algorithm.
func (h HCPT) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return h.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler.
func (HCPT) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	const eps = 1e-9
	// AEST = downward rank (mean costs); ALST = CP − (upward rank), i.e.
	// the latest mean-cost start preserving the critical-path length.
	aest := sched.RankDownward(in)
	up := sched.RankUpward(in)
	cp := 0.0
	for i := range up {
		if up[i]+aest[i] > cp {
			cp = up[i] + aest[i]
		}
	}
	alst := make([]float64, in.N())
	for i := range alst {
		alst[i] = cp - up[i]
	}

	// byALST orders tasks by ascending ALST, ids breaking ties.
	byALST := func(a, b dag.TaskID) int {
		if c := cmp.Compare(alst[a], alst[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}

	// Critical tasks in ascending ALST.
	var critical []dag.TaskID
	for i := 0; i < in.N(); i++ {
		if alst[i]-aest[i] < eps {
			critical = append(critical, dag.TaskID(i))
		}
	}
	slices.SortFunc(critical, byALST)

	listed := make([]bool, in.N())
	var list []dag.TaskID
	// emit lists t's unlisted ancestors (smaller ALST first) then t.
	var emit func(t dag.TaskID)
	emit = func(t dag.TaskID) {
		if listed[t] {
			return
		}
		var parents []dag.TaskID
		for _, pe := range in.G.Pred(t) {
			parents = append(parents, pe.To)
		}
		slices.SortFunc(parents, byALST)
		for _, p := range parents {
			emit(p)
		}
		listed[t] = true
		list = append(list, t)
	}
	for _, c := range critical {
		emit(c)
	}
	// Any task unreachable from the critical path's ancestor trees (e.g.
	// side branches feeding nothing critical) is appended in ALST order.
	var rest []dag.TaskID
	for i := 0; i < in.N(); i++ {
		if !listed[i] {
			rest = append(rest, dag.TaskID(i))
		}
	}
	slices.SortFunc(rest, byALST)
	for _, t := range rest {
		emit(t)
	}
	return placeOrder(ctx, in, HEFTParam(), list, "HCPT")
}
