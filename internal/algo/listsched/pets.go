package listsched

import (
	"context"
	"math"

	"dagsched/internal/sched"
)

// PETS is the Performance Effective Task Scheduling algorithm of
// Ilavarasan and Thambidurai (2007, contemporaneous with this paper):
// tasks are grouped into topological levels; within a level the priority
// is rank(t) = ACC(t) + DTC(t) + RPT(t), where ACC is the mean
// computation cost, DTC the total data-transfer cost to all children
// (mean over processor pairs) and RPT the highest rank among the task's
// parents; levels are scheduled in order, each task on its insertion-EFT
// processor.
type PETS struct{}

// Name implements algo.Algorithm.
func (PETS) Name() string { return "PETS" }

// Schedule implements algo.Algorithm.
func (p PETS) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return p.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler.
func (PETS) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	// rank = ACC + DTC + RPT, computed in topological order (parents
	// before children).
	rank := make([]float64, in.N())
	for _, v := range in.G.TopoOrder() {
		acc := in.MeanCost(v)
		dtc := 0.0
		for j := range in.G.Succ(v) {
			dtc += in.MeanCommSucc(v, j)
		}
		rpt := 0.0
		for _, p := range in.G.Pred(v) {
			if rank[p.To] > rpt {
				rpt = rank[p.To]
			}
		}
		rank[v] = math.Round(acc + dtc + rpt)
	}
	return placeOrder(ctx, in, HEFTParam(), levelOrder(in, rank), "PETS")
}
