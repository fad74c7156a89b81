package listsched

import (
	"context"
	"sort"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// MCP is the Modified Critical Path algorithm of Wu and Gajski (TPDS
// 1990). Each task's priority is its ALAP start time (mean execution and
// communication costs); the task list ascends by ALAP with ties broken by
// the sorted ALAP list of direct successors (a bounded variant of the
// original lexicographic descendant comparison); each task is placed on
// the processor allowing the earliest insertion-based start time, start
// ties going to the earlier finish on heterogeneous systems (Param's
// SelectESTF).
type MCP struct{}

// Name implements algo.Algorithm.
func (MCP) Name() string { return "MCP" }

// Schedule implements algo.Algorithm.
func (m MCP) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return m.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler.
func (MCP) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	alap := sched.ALAPStart(in)
	// Successor ALAP lists for lexicographic tie-breaking.
	succALAP := make([][]float64, in.N())
	for i := 0; i < in.N(); i++ {
		for _, a := range in.G.Succ(dag.TaskID(i)) {
			succALAP[i] = append(succALAP[i], alap[a.To])
		}
		sort.Float64s(succALAP[i])
	}
	topoPos := make([]int, in.N())
	for k, v := range in.G.TopoOrder() {
		topoPos[v] = k
	}
	order := make([]dag.TaskID, in.N())
	for i := range order {
		order[i] = dag.TaskID(i)
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := order[x], order[y]
		if alap[a] != alap[b] {
			return alap[a] < alap[b]
		}
		la, lb := succALAP[a], succALAP[b]
		for k := 0; k < len(la) && k < len(lb); k++ {
			if la[k] != lb[k] {
				return la[k] < lb[k]
			}
		}
		if len(la) != len(lb) {
			return len(la) < len(lb)
		}
		return topoPos[a] < topoPos[b]
	})
	// ALAP ascends along edges when costs are positive, so keyed by minus
	// the order position the keys fall along every arc, and ReadyOrder
	// returns the order itself by its radix sort. In the zero-cost corner
	// case an arc's keys can rise; ReadyOrder's ready heap then keeps the
	// order precedence-safe, picking the ready task earliest in the order
	// in O(log w) for ready width w. The keys are distinct, so no tie
	// rule applies.
	key := make([]float64, in.N())
	for k, v := range order {
		key[v] = -float64(k)
	}
	return placeOrder(ctx, in, Param{Select: SelectESTF, Insertion: true}, algo.ReadyOrder(in.G, key), "MCP")
}
