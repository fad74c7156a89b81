// Package listsched implements the classic list-scheduling baselines of
// the static-scheduling literature: HEFT, CPOP and DLS for heterogeneous
// systems, MCP, ETF, HLFET and ISH, which originate in the homogeneous
// literature but are implemented here against the general heterogeneous
// cost model (on a homogeneous system they reduce to their original
// definitions), and the duplication-based DSH and BTDH. Param is the one
// list-scheduling placement loop: HEFT, CPOP, HLFET, ETF, DLS, DSH and
// BTDH are its points, and HCPT, PETS, LMT and MCP compute their own
// order and place it with Param.PlaceOrder. ISH alone keeps its own
// loop: its hole fill takes ready tasks out of pick order.
package listsched

import (
	"context"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// baselines maps each canonical baseline's name to its grid point.
var baselines = map[string]Param{
	"HEFT":  HEFTParam(),
	"CPOP":  CPOPParam(),
	"HLFET": HLFETParam(),
	"ETF":   ETFParam(),
	"DLS":   {Priority: PrioStaticLevel, Order: OrderDynamicLevel, Select: SelectEFT},
	"DSH":   {Priority: PrioStaticLevel, Order: OrderReady, Select: SelectEFT, Insertion: true, Duplication: DupGreedy},
	"BTDH":  {Priority: PrioStaticLevel, Order: OrderReady, Select: SelectEFT, Insertion: true, Duplication: DupChain},
}

// Baseline returns the grid point of the named canonical baseline —
// HEFT, CPOP, HLFET, ETF, DLS, DSH or BTDH — carrying the name, so its
// schedules do too.
func Baseline(name string) (Param, bool) {
	pm, ok := baselines[name]
	if ok {
		pm.DisplayName = name
	}
	return pm, ok
}

func baseline(name string) Param {
	pm, _ := Baseline(name)
	return pm
}

// placeOrder schedules in by placing order, a precedence-safe order of
// all its tasks, under pm's selection rule, and names the schedule. It
// is the placement of HCPT, PETS, LMT and MCP, which keep only their
// order code.
func placeOrder(ctx context.Context, in *sched.Instance, pm Param, order []dag.TaskID, name string) (*sched.Schedule, error) {
	pm.DisplayName = name
	pl := sched.NewPlan(in)
	if err := pm.PlaceOrder(ctx, pl, nil, order, 0); err != nil {
		return nil, err
	}
	return pl.Finalize(name), nil
}

// HEFT is the Heterogeneous Earliest Finish Time algorithm of Topcuoglu,
// Hariri and Wu (TPDS 2002): tasks ordered by decreasing upward rank, each
// placed on the processor minimizing its insertion-based earliest finish
// time.
type HEFT struct{}

// Name implements algo.Algorithm.
func (HEFT) Name() string { return "HEFT" }

// Schedule implements algo.Algorithm.
func (HEFT) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return baseline("HEFT").Schedule(in)
}

// ScheduleContext implements algo.CtxScheduler.
func (HEFT) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	return baseline("HEFT").ScheduleContext(ctx, in)
}

// CPOP is the Critical-Path-On-a-Processor algorithm of Topcuoglu et al.:
// task priority is rank_u + rank_d; every critical-path task is pinned to
// the single processor that minimizes the critical path's total execution
// cost, all other tasks use insertion-based best EFT; tasks are consumed
// from a ready queue in priority order.
type CPOP struct{}

// Name implements algo.Algorithm.
func (CPOP) Name() string { return "CPOP" }

// Schedule implements algo.Algorithm.
func (CPOP) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return baseline("CPOP").Schedule(in)
}

// ScheduleContext implements algo.CtxScheduler.
func (CPOP) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	return baseline("CPOP").ScheduleContext(ctx, in)
}

// HLFET is Highest Level First with Estimated Times (Adam, Chandy, Dickson
// 1974), the archetypal list scheduler: ready tasks are consumed in
// decreasing static level and placed on the processor giving the earliest
// start time, without insertion.
type HLFET struct{}

// Name implements algo.Algorithm.
func (HLFET) Name() string { return "HLFET" }

// Schedule implements algo.Algorithm.
func (HLFET) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return baseline("HLFET").Schedule(in)
}

// ScheduleContext implements algo.CtxScheduler.
func (HLFET) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	return baseline("HLFET").ScheduleContext(ctx, in)
}

// ETF is the Earliest Time First algorithm of Hwang, Chow, Anger and Lee
// (SIAM J. Comput. 1989): at each step, among all ready tasks and all
// processors, schedule the pair with the smallest earliest start time,
// breaking ties by the higher static level. Non-insertion, per the
// original definition.
type ETF struct{}

// Name implements algo.Algorithm.
func (ETF) Name() string { return "ETF" }

// Schedule implements algo.Algorithm.
func (ETF) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return baseline("ETF").Schedule(in)
}

// ScheduleContext implements algo.CtxScheduler.
func (ETF) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	return baseline("ETF").ScheduleContext(ctx, in)
}

// DLS is the Dynamic Level Scheduling algorithm of Sih and Lee (TPDS
// 1993). At every step it schedules the ready (task, processor) pair with
// the highest dynamic level
//
//	DL(i,p) = SL(i) − EST(i,p) + Δ(i,p),   Δ(i,p) = w̄(i) − w(i,p),
//
// where SL is the static level (mean computation costs, no communication)
// and EST uses the non-insertion policy of the original paper. The Δ term
// is the generalized-heterogeneity adjustment from the original paper; on
// homogeneous systems it vanishes.
type DLS struct{}

// Name implements algo.Algorithm.
func (DLS) Name() string { return "DLS" }

// Schedule implements algo.Algorithm.
func (DLS) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return baseline("DLS").Schedule(in)
}

// ScheduleContext implements algo.CtxScheduler.
func (DLS) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	return baseline("DLS").ScheduleContext(ctx, in)
}

// DSH is the Duplication Scheduling Heuristic of Kruatrachue and Lewis
// (1988): ready tasks in decreasing static level; on every candidate
// processor the start time is improved by greedily duplicating the
// critical parent into the idle slot in front of the task, keeping a
// duplicate only when the start time strictly improves; the processor
// with the smallest resulting finish time wins.
type DSH struct{}

// Name implements algo.Algorithm.
func (DSH) Name() string { return "DSH" }

// Schedule implements algo.Algorithm.
func (DSH) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return baseline("DSH").Schedule(in)
}

// ScheduleContext implements algo.CtxScheduler.
func (DSH) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	return baseline("DSH").ScheduleContext(ctx, in)
}

// BTDH is bottom-up top-down duplication, the earlier heuristic of the
// paper's own authors. It extends DSH: it keeps duplicating remote
// parents even when one duplicate alone does not improve the start time,
// and keeps the best configuration seen. This recovers cases where only
// a combination of duplicated parents pays off. Duplication is limited
// to direct parents, matching DSH's search space.
type BTDH struct{}

// Name implements algo.Algorithm.
func (BTDH) Name() string { return "BTDH" }

// Schedule implements algo.Algorithm.
func (BTDH) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return baseline("BTDH").Schedule(in)
}

// ScheduleContext implements algo.CtxScheduler.
func (BTDH) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	return baseline("BTDH").ScheduleContext(ctx, in)
}
