// reference.go preserves superseded implementations as semantic oracles.
// The clone-per-trial duplication family (DSH, BTDH, and the ILS
// placement loop) ships exactly as it did before the transactional trial
// layer replaced it: deliberately slow — every trial deep-copies the
// plan — and the transactional implementations must reproduce its
// schedules bit for bit on every instance. The dedicated HEFT, CPOP,
// HLFET and ETF loops ship exactly as they did before listsched.Param
// became the one placement loop: Param's grid points must reproduce them
// bit for bit. The static-order oracles (RefHEFT, RefILS) order tasks
// with refOrderDescPrecedence, the global sort that
// algo.OrderDescPrecedence's ready heap replaced, so they check the heap
// too.
package testfix

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// PlanFingerprint returns a stable string of every placement in a partial
// plan (per processor in start order, exact float64 bits). Differential
// tests use it to assert that rolled-back speculative trials left the
// base plan untouched.
func PlanFingerprint(pl *sched.Plan) string {
	var b strings.Builder
	for p := 0; p < pl.Instance().P(); p++ {
		fmt.Fprintf(&b, "P%d:", p)
		for _, a := range pl.OnProc(p) {
			fmt.Fprintf(&b, "%d@%x..%x", a.Task, a.Start, a.Finish)
			if a.Dup {
				b.WriteString("d")
			}
			b.WriteString(";")
		}
		b.WriteString("|")
	}
	return b.String()
}

const (
	refSlackEps = 1e-9
	refMaxDups  = 64
)

// RefDupResult reports the outcome of a clone-based duplication trial.
type RefDupResult struct {
	// Plan is the tentative plan including any accepted duplicates; the
	// candidate task itself is NOT yet placed.
	Plan *sched.Plan
	// Start and Finish are the candidate task's achievable window on the
	// trial processor after duplication.
	Start, Finish float64
	// Dups counts accepted duplicate copies.
	Dups int
}

// RefTryDuplication is the clone-based DSH duplication trial: keep a
// duplicate of the critical parent only when the start time strictly
// improves, rejecting by discarding the trial clone.
func RefTryDuplication(pl *sched.Plan, t dag.TaskID, p int, maxDups int) RefDupResult {
	in := pl.Instance()
	work := pl.Clone()
	dur := in.Cost(t, p)
	start := work.FindSlot(p, work.DataReady(t, p), dur, true)
	dups := 0
	for dups < maxDups {
		parent, arrival := algo.CriticalParent(work, t, p)
		if parent == -1 || arrival <= start-refSlackEps {
			break
		}
		trial := work.Clone()
		pready := trial.DataReady(parent, p)
		pslot := trial.FindSlot(p, pready, in.Cost(parent, p), true)
		trial.PlaceDup(parent, p, pslot)
		newStart := trial.FindSlot(p, trial.DataReady(t, p), dur, true)
		if newStart >= start-refSlackEps {
			break
		}
		work, start = trial, newStart
		dups++
	}
	return RefDupResult{Plan: work, Start: start, Finish: start + dur, Dups: dups}
}

// RefTryDuplicationBTDH is the clone-based BTDH trial: duplicate the
// chain of remote critical parents unconditionally, snapshotting the best
// configuration seen.
func RefTryDuplicationBTDH(pl *sched.Plan, t dag.TaskID, p int) RefDupResult {
	in := pl.Instance()
	dur := in.Cost(t, p)

	work := pl.Clone()
	start := work.FindSlot(p, work.DataReady(t, p), dur, true)
	best := RefDupResult{Plan: work.Clone(), Start: start, Finish: start + dur}

	dups := 0
	for dups < refMaxDups {
		parent, arrival := algo.CriticalParent(work, t, p)
		if parent == -1 {
			break
		}
		if arrival <= 0 {
			break
		}
		pready := work.DataReady(parent, p)
		pslot := work.FindSlot(p, pready, in.Cost(parent, p), true)
		work.PlaceDup(parent, p, pslot)
		dups++
		start = work.FindSlot(p, work.DataReady(t, p), dur, true)
		if start < best.Start {
			best = RefDupResult{Plan: work.Clone(), Start: start, Finish: start + dur, Dups: dups}
		}
	}
	return best
}

// refDuplicationSchedule is the clone-based shared driver of DSH/BTDH.
func refDuplicationSchedule(in *sched.Instance, name string, try func(*sched.Plan, dag.TaskID, int) RefDupResult) *sched.Schedule {
	sl := sched.StaticLevel(in)
	pl := sched.NewPlan(in)
	rl := algo.NewReadyList(in.G)
	for !rl.Empty() {
		var pick dag.TaskID = -1
		for _, r := range rl.Ready() {
			if pick == -1 || sl[r] > sl[pick] {
				pick = r
			}
		}
		bestFinish := math.Inf(1)
		var best RefDupResult
		bestProc := -1
		for p := 0; p < in.P(); p++ {
			res := try(pl, pick, p)
			if res.Finish < bestFinish {
				bestFinish, best, bestProc = res.Finish, res, p
			}
		}
		pl = best.Plan
		pl.Place(pick, bestProc, best.Start)
		rl.Complete(pick)
	}
	return pl.Finalize(name)
}

// RefDSH is the clone-based DSH scheduler.
func RefDSH(in *sched.Instance) *sched.Schedule {
	return refDuplicationSchedule(in, "DSH", func(pl *sched.Plan, t dag.TaskID, p int) RefDupResult {
		return RefTryDuplication(pl, t, p, refMaxDups)
	})
}

// RefBTDH is the clone-based BTDH scheduler.
func RefBTDH(in *sched.Instance) *sched.Schedule {
	return refDuplicationSchedule(in, "BTDH", RefTryDuplicationBTDH)
}

// RefILSOptions mirrors core.Options for the clone-based reference ILS.
type RefILSOptions struct {
	SigmaRank   bool
	Lookahead   bool
	Duplication bool
	MaxDups     int
}

// RefILS is the clone-based ILS placement loop (σ-rank, one-step
// critical-child lookahead, critical-parent duplication), preserved
// verbatim from the pre-transactional implementation.
func RefILS(in *sched.Instance, name string, opts RefILSOptions) *sched.Schedule {
	maxDups := opts.MaxDups
	if maxDups <= 0 {
		maxDups = 8
	}
	var rank []float64
	if opts.SigmaRank {
		rank = sched.RankUpwardSigma(in)
	} else {
		rank = sched.RankUpward(in)
	}
	order := refOrderDescPrecedence(in.G, rank)

	var critChild []dag.TaskID
	var estFinish []float64
	if opts.Lookahead {
		critChild = make([]dag.TaskID, in.N())
		for i := 0; i < in.N(); i++ {
			critChild[i] = -1
			for _, s := range in.G.Succ(dag.TaskID(i)) {
				if critChild[i] == -1 || rank[s.To] > rank[critChild[i]] {
					critChild[i] = s.To
				}
			}
		}
		down := sched.RankDownward(in)
		estFinish = make([]float64, in.N())
		for i := range estFinish {
			estFinish[i] = down[i] + in.MeanCost(dag.TaskID(i))
		}
	}

	pl := sched.NewPlan(in)
	for _, t := range order {
		bestScore := math.Inf(1)
		bestFinish := math.Inf(1)
		bestProc := -1
		bestStart := 0.0
		var bestPlan *sched.Plan
		for p := 0; p < in.P(); p++ {
			cand := pl
			var start, finish float64
			if opts.Duplication {
				res := RefTryDuplication(pl, t, p, maxDups)
				cand, start, finish = res.Plan, res.Start, res.Finish
			} else {
				start, finish = pl.EFTOn(t, p, true)
			}
			score := finish
			if opts.Lookahead && critChild[t] != -1 {
				work := cand.Clone()
				work.Place(t, p, start)
				score = refEstimateChildEFT(work, critChild[t], estFinish)
			}
			if score < bestScore-1e-12 || (math.Abs(score-bestScore) <= 1e-12 && finish < bestFinish) {
				bestScore, bestFinish, bestProc, bestStart, bestPlan = score, finish, p, start, cand
			}
		}
		pl = bestPlan
		pl.Place(t, bestProc, bestStart)
	}
	return pl.Finalize(name)
}

func refEstimateChildEFT(pl *sched.Plan, c dag.TaskID, estFinish []float64) float64 {
	in := pl.Instance()
	best := math.Inf(1)
	for q := 0; q < in.P(); q++ {
		ready := 0.0
		for j, pe := range in.G.Pred(c) {
			var arrival float64
			if pl.Scheduled(pe.To) {
				arrival = math.Inf(1)
				for _, cp := range pl.Copies(pe.To) {
					if t := cp.Finish + in.Sys.CommCost(cp.Proc, q, pe.Data); t < arrival {
						arrival = t
					}
				}
			} else {
				arrival = estFinish[pe.To] + in.MeanCommPred(c, j)
			}
			if arrival > ready {
				ready = arrival
			}
		}
		start := pl.FindSlot(q, ready, in.Cost(c, q), true)
		if f := start + in.Cost(c, q); f < best {
			best = f
		}
	}
	return best
}

// refOrderDescPrecedence sorts the tasks by decreasing priority, ties by
// topological position. For priorities that never increase along an
// edge the result is precedence-valid; for others it need not be.
func refOrderDescPrecedence(g *dag.Graph, prio []float64) []dag.TaskID {
	topo := g.TopoOrder()
	pos := make([]int, g.Len())
	for i, v := range topo {
		pos[v] = i
	}
	order := append([]dag.TaskID(nil), topo...)
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		if prio[ta] != prio[tb] {
			return prio[ta] > prio[tb]
		}
		return pos[ta] < pos[tb]
	})
	return order
}

// RefHEFT is the dedicated HEFT loop: tasks ordered by decreasing upward
// rank, each placed on the processor minimizing its insertion-based
// earliest finish time.
func RefHEFT(in *sched.Instance) *sched.Schedule {
	order := refOrderDescPrecedence(in.G, sched.RankUpward(in))
	pl := sched.NewPlan(in)
	for _, t := range order {
		p, s, _ := pl.BestEFT(t, true)
		pl.Place(t, p, s)
	}
	return pl.Finalize("HEFT")
}

// RefCPOP is the dedicated CPOP loop: priority rank_u + rank_d, every
// critical-path task pinned to the processor minimizing the critical
// path's total execution cost, the rest on insertion-based best EFT,
// tasks consumed from a ready queue in priority order.
func RefCPOP(in *sched.Instance) *sched.Schedule {
	up := sched.RankUpward(in)
	down := sched.RankDownward(in)
	prio := make([]float64, in.N())
	for i := range prio {
		prio[i] = up[i] + down[i]
	}
	cpPath, _ := sched.CriticalPathMean(in)
	onCP := make([]bool, in.N())
	for _, v := range cpPath {
		onCP[v] = true
	}
	// The critical-path processor minimizes the CP's total execution cost.
	cpProc, bestCost := 0, math.Inf(1)
	for p := 0; p < in.P(); p++ {
		var sum float64
		for _, v := range cpPath {
			sum += in.Cost(v, p)
		}
		if sum < bestCost {
			cpProc, bestCost = p, sum
		}
	}

	pl := sched.NewPlan(in)
	rl := algo.NewReadyList(in.G)
	for !rl.Empty() {
		// Highest-priority ready task; ascending-id ready list breaks ties.
		var pick dag.TaskID = -1
		for _, r := range rl.Ready() {
			if pick == -1 || prio[r] > prio[pick] {
				pick = r
			}
		}
		if onCP[pick] {
			s, _ := pl.EFTOn(pick, cpProc, true)
			pl.Place(pick, cpProc, s)
		} else {
			p, s, _ := pl.BestEFT(pick, true)
			pl.Place(pick, p, s)
		}
		rl.Complete(pick)
	}
	return pl.Finalize("CPOP")
}

// RefHLFET is the dedicated HLFET loop: ready tasks consumed in
// decreasing static level, each placed on the processor giving the
// earliest start time, without insertion.
func RefHLFET(in *sched.Instance) *sched.Schedule {
	sl := sched.StaticLevel(in)
	pl := sched.NewPlan(in)
	rl := algo.NewReadyList(in.G)
	for !rl.Empty() {
		var pick dag.TaskID = -1
		for _, r := range rl.Ready() {
			if pick == -1 || sl[r] > sl[pick] {
				pick = r
			}
		}
		bestP, bestS := -1, 0.0
		for p := 0; p < in.P(); p++ {
			s, _ := pl.EFTOn(pick, p, false)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
			}
		}
		pl.Place(pick, bestP, bestS)
		rl.Complete(pick)
	}
	return pl.Finalize("HLFET")
}

// RefETF is the dedicated ETF loop: at each step, among all ready tasks
// and all processors, the pair with the smallest earliest start time,
// ties to the higher static level. Non-insertion.
func RefETF(in *sched.Instance) *sched.Schedule {
	sl := sched.StaticLevel(in)
	pl := sched.NewPlan(in)
	rl := algo.NewReadyList(in.G)
	for !rl.Empty() {
		bestStart := math.Inf(1)
		var bestTask dag.TaskID = -1
		bestProc := 0
		for _, t := range rl.Ready() {
			for p := 0; p < in.P(); p++ {
				start, _ := pl.EFTOn(t, p, false)
				better := start < bestStart ||
					(start == bestStart && bestTask != -1 && sl[t] > sl[bestTask])
				if better {
					bestStart, bestTask, bestProc = start, t, p
				}
			}
		}
		pl.Place(bestTask, bestProc, bestStart)
		rl.Complete(bestTask)
	}
	return pl.Finalize("ETF")
}
