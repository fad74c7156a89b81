package listsched

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// This file factors the classic list schedulers into their orthogonal
// components, following the decomposition of the parameterized-scheduler
// literature (arXiv:2403.07112): a list scheduler is a priority metric ×
// a consumption order × a processor-selection rule × an insertion policy
// × a duplication policy. Param composes one scheduler per point of that
// grid. It is the only list-scheduling placement loop: HEFT, CPOP, HLFET
// and ETF are its grid points HEFTParam, CPOPParam, HLFETParam and
// ETFParam (param_test.go pins them to the committed goldens and to the
// dedicated loops kept in testfix); DSH and BTDH are the baselines of
// the same names, and ILS with its ablations are the σ-rank, lookahead
// and duplication points package core names. The streaming engine
// re-plans through Replan and PlaceOrder. The adversarial harness and
// the E23 ablation attack components rather than whole algorithms.

// Priority selects the task-priority metric.
type Priority int

const (
	// PrioUpward is the upward rank rank_u of HEFT.
	PrioUpward Priority = iota
	// PrioStaticLevel is the communication-free static level of HLFET/ETF.
	PrioStaticLevel
	// PrioUpDown is rank_u + rank_d, the CPOP priority.
	PrioUpDown
	// PrioSigma is the σ-augmented upward rank of ILS
	// (sched.RankUpwardSigma): tasks whose cost varies strongly across
	// processors come first. On a homogeneous system it is rank_u.
	PrioSigma
)

// Order selects how tasks are consumed.
type Order int

const (
	// OrderStatic fixes the full order up front: tasks sorted by
	// decreasing priority with precedence-safe tie-breaks (HEFT).
	OrderStatic Order = iota
	// OrderReady repeatedly takes the highest-priority ready task
	// (CPOP, HLFET); ties break toward the lower task id.
	OrderReady
	// OrderPair jointly picks the (ready task, processor) pair with the
	// earliest start time, breaking start ties by the higher priority
	// (ETF). The Select component is ignored: pair order *is* the
	// selection rule.
	OrderPair
)

// Select selects the processor-selection rule.
type Select int

const (
	// SelectEFT places on the processor minimizing the earliest finish
	// time (HEFT, CPOP off the critical path).
	SelectEFT Select = iota
	// SelectEST places on the processor minimizing the earliest start
	// time (HLFET).
	SelectEST
	// SelectCPPin pins every critical-path task to the single processor
	// minimizing the critical path's total execution cost and uses
	// min-EFT elsewhere (CPOP).
	SelectCPPin
	// SelectLookahead places on the processor minimizing the estimated
	// earliest finish of the task's critical child, its highest-priority
	// successor, after a tentative placement of the task (ILS). Scores
	// within 1e-12 tie and break toward the lower own finish time, then
	// the lower processor id. A task without successors is scored by its
	// own finish, which makes the rule min-EFT.
	SelectLookahead
)

// Duplication selects the critical-parent duplication policy. A
// duplicating trial always uses insertion, whatever Param.Insertion says.
type Duplication int

const (
	// DupNone never duplicates.
	DupNone Duplication = iota
	// DupGreedy copies the critical parent into an idle slot of the
	// candidate processor while that strictly lowers the task's start
	// (algo.TryDuplication; DSH, ILS).
	DupGreedy
	// DupChain keeps copying remote critical parents and keeps the best
	// configuration seen (algo.TryDuplicationChain; BTDH).
	DupChain
)

// Param is one point of the component grid, itself an algo.Algorithm.
// The zero value is the HEFT setting minus insertion; use the named
// constructors for the canonical baselines.
type Param struct {
	Priority  Priority
	Order     Order
	Select    Select
	Insertion bool
	// Duplication adds critical-parent duplication to processor
	// selection: every candidate processor is evaluated in a speculative
	// transaction and the winner's duplicates are committed.
	Duplication Duplication
	// MaxDups bounds the duplicates accepted per placement; 0 means 64.
	MaxDups int
	// DisplayName overrides the canonical Name() (e.g. "HEFT*" for the
	// equivalence tests).
	DisplayName string
}

// HEFTParam is the grid point reproducing HEFT bit-identically.
func HEFTParam() Param {
	return Param{Priority: PrioUpward, Order: OrderStatic, Select: SelectEFT, Insertion: true}
}

// CPOPParam is the grid point reproducing CPOP bit-identically.
func CPOPParam() Param {
	return Param{Priority: PrioUpDown, Order: OrderReady, Select: SelectCPPin, Insertion: true}
}

// HLFETParam is the grid point reproducing HLFET bit-identically.
func HLFETParam() Param {
	return Param{Priority: PrioStaticLevel, Order: OrderReady, Select: SelectEST}
}

// ETFParam is the grid point reproducing ETF bit-identically.
func ETFParam() Param {
	return Param{Priority: PrioStaticLevel, Order: OrderPair, Select: SelectEST}
}

var prioNames = map[Priority]string{PrioUpward: "u", PrioStaticLevel: "sl", PrioUpDown: "ud", PrioSigma: "sigma"}
var orderNames = map[Order]string{OrderStatic: "static", OrderReady: "ready", OrderPair: "pair"}
var selNames = map[Select]string{SelectEFT: "eft", SelectEST: "est", SelectCPPin: "cppin", SelectLookahead: "look"}
var insNames = map[bool]string{true: "ins", false: "noins"}
var dupNames = map[Duplication]string{DupNone: "nodup", DupGreedy: "dup", DupChain: "chain"}

// String returns the canonical grid-point name, e.g.
// "LS/u/static/eft/ins/nodup". A duplicating point with a budget other
// than the default carries it in its last token, e.g. "dup8".
func (pm Param) String() string {
	dup := dupNames[pm.Duplication]
	if pm.Duplication != DupNone && pm.MaxDups != 0 {
		dup += strconv.Itoa(pm.MaxDups)
	}
	return fmt.Sprintf("LS/%s/%s/%s/%s/%s",
		prioNames[pm.Priority], orderNames[pm.Order], selNames[pm.Select], insNames[pm.Insertion], dup)
}

// Name implements algo.Algorithm.
func (pm Param) Name() string {
	if pm.DisplayName != "" {
		return pm.DisplayName
	}
	return pm.String()
}

// ParseParam parses a canonical grid-point name produced by String:
// "LS/<u|sl|ud|sigma>/<static|ready|pair>/<eft|est|cppin|look>/<ins|noins>/<nodup|dup[N]|chain[N]>",
// where N, a positive budget, overrides the default MaxDups.
func ParseParam(name string) (Param, error) {
	parts := strings.Split(name, "/")
	if len(parts) != 6 || parts[0] != "LS" {
		return Param{}, fmt.Errorf("listsched: bad param name %q (want LS/prio/order/select/ins/dup)", name)
	}
	var pm Param
	var err error
	if pm.Priority, err = token(prioNames, parts[1], "priority"); err != nil {
		return Param{}, err
	}
	if pm.Order, err = token(orderNames, parts[2], "order"); err != nil {
		return Param{}, err
	}
	if pm.Select, err = token(selNames, parts[3], "selection"); err != nil {
		return Param{}, err
	}
	if pm.Insertion, err = token(insNames, parts[4], "insertion flag"); err != nil {
		return Param{}, err
	}
	policy := strings.TrimRight(parts[5], "0123456789")
	if pm.Duplication, err = token(dupNames, policy, "duplication policy"); err != nil {
		return Param{}, err
	}
	if budget := parts[5][len(policy):]; budget != "" {
		n, err := strconv.Atoi(budget)
		if pm.Duplication == DupNone || err != nil || n <= 0 || strconv.Itoa(n) != budget {
			return Param{}, fmt.Errorf("listsched: bad duplication budget in %q (want a positive count after dup or chain)", parts[5])
		}
		pm.MaxDups = n
	}
	return pm, nil
}

// token returns the key names maps to tok.
func token[K comparable](names map[K]string, tok, what string) (K, error) {
	for k, v := range names {
		if v == tok {
			return k, nil
		}
	}
	want := make([]string, 0, len(names))
	for _, v := range names {
		want = append(want, v)
	}
	sort.Strings(want)
	var zero K
	return zero, fmt.Errorf("listsched: unknown %s %q (want %s)", what, tok, strings.Join(want, "|"))
}

// Grid returns the component grid swept by the E23 ablation: the full
// factorial over the baselines' priorities × {static, ready} order ×
// {EFT, EST} selection × insertion × greedy duplication, plus the
// coupled selection rules at their meaningful settings — pair order per
// priority and critical-path pinning at the CPOP priority. Duplication
// trials always insert, so a duplicating point without insertion would
// be its insertion twin under another name and is left out. Every
// returned Param is a valid scheduler; HEFT, CPOP, HLFET, ETF and DSH
// are among them.
func Grid() []Param {
	var out []Param
	for _, pr := range []Priority{PrioUpward, PrioStaticLevel, PrioUpDown} {
		for _, ord := range []Order{OrderStatic, OrderReady} {
			for _, sel := range []Select{SelectEFT, SelectEST} {
				out = append(out,
					Param{Priority: pr, Order: ord, Select: sel, Insertion: true},
					Param{Priority: pr, Order: ord, Select: sel, Insertion: true, Duplication: DupGreedy},
					Param{Priority: pr, Order: ord, Select: sel})
			}
		}
		out = append(out, Param{Priority: pr, Order: OrderPair, Select: SelectEST})
	}
	out = append(out,
		CPOPParam(),
		Param{Priority: PrioUpDown, Order: OrderReady, Select: SelectCPPin, Insertion: true, Duplication: DupGreedy},
	)
	return out
}

// Schedule implements algo.Algorithm.
func (pm Param) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return pm.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler: Replan with no frozen
// prefix at clock zero. Each grid point follows exactly the code path of
// the algorithm it generalizes, so the points of HEFT, CPOP, HLFET, ETF,
// DSH, BTDH and the ILS configurations are bit-identical to the
// reference loops in testfix.
func (pm Param) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	pl, err := pm.Replan(ctx, in, pm.priorities(in), nil, 0)
	if err != nil {
		return nil, err
	}
	return pl.Finalize(pm.Name()), nil
}

// Replan schedules every task of in that the frozen prefix does not
// hold, under the grid point's components with prio as the priority
// vector, and starts none of them before clock. The frozen assignments
// are seeded first and never move; they must be ancestor-closed. A zero
// clock leaves every start where the static scheduler puts it, so with
// no prefix Replan is the static scheduler itself (DESIGN.md invariant
// 13). Speculative grid points re-plan only at clock zero: their trials
// take no floor.
func (pm Param) Replan(ctx context.Context, in *sched.Instance, prio []float64, frozen []sched.Assignment, clock float64) (*sched.Plan, error) {
	pl := sched.SeedPlan(in, frozen)
	cp, ds, err := pm.selection(pl, prio, clock)
	if err != nil {
		return nil, err
	}
	if ds != nil {
		defer ds.Close()
	}
	check := algo.NewCheckpoint(ctx, 64)
	switch pm.Order {
	case OrderStatic:
		for _, t := range algo.OrderDescPrecedence(in.G, prio) {
			if err := check.Check(); err != nil {
				return nil, fmt.Errorf("%s: %w", pm.Name(), err)
			}
			if !pl.Scheduled(t) {
				pm.place(pl, ds, cp, t, clock)
			}
		}
	case OrderReady:
		rl := algo.NewReadyList(in.G)
		for !rl.Empty() {
			if err := check.Check(); err != nil {
				return nil, fmt.Errorf("%s: %w", pm.Name(), err)
			}
			var pick dag.TaskID = -1
			for _, r := range rl.Ready() {
				if pick == -1 || prio[r] > prio[pick] {
					pick = r
				}
			}
			if !pl.Scheduled(pick) {
				pm.place(pl, ds, cp, pick, clock)
			}
			rl.Complete(pick)
		}
	case OrderPair:
		rl := algo.NewReadyList(in.G)
		for !rl.Empty() {
			if err := check.Check(); err != nil {
				return nil, fmt.Errorf("%s: %w", pm.Name(), err)
			}
			// Retire a ready frozen task first: it is placed already and
			// must not enter the pair competition.
			if r := firstScheduled(pl, rl.Ready()); r != -1 {
				rl.Complete(r)
				continue
			}
			bestStart := math.Inf(1)
			var bestTask dag.TaskID = -1
			bestProc := 0
			for _, t := range rl.Ready() {
				for p := 0; p < in.P(); p++ {
					start, _ := sched.EFTFloored(pl, t, p, clock, pm.Insertion)
					better := start < bestStart ||
						(start == bestStart && bestTask != -1 && prio[t] > prio[bestTask])
					if better {
						bestStart, bestTask, bestProc = start, t, p
					}
				}
			}
			if ds != nil {
				ds.placeOn(pl, bestTask, bestProc)
			} else {
				pl.Place(bestTask, bestProc, bestStart)
			}
			rl.Complete(bestTask)
		}
	default:
		return nil, fmt.Errorf("listsched: unknown order %d", pm.Order)
	}
	return pl, nil
}

// PlaceOrder places the tasks of order into pl one after another under
// the grid point's selection rule, none starting before clock. The order
// replaces the consumption-order component and must be precedence-safe:
// every predecessor of a task is placed already or earlier in it. The
// streaming engine passes the affected suffix of an incremental re-plan.
func (pm Param) PlaceOrder(pl *sched.Plan, order []dag.TaskID, clock float64) error {
	cp, ds, err := pm.selection(pl, nil, clock)
	if err != nil {
		return err
	}
	if ds != nil {
		defer ds.Close()
	}
	for _, t := range order {
		pm.place(pl, ds, cp, t, clock)
	}
	return nil
}

// firstScheduled returns the first of ts that pl has placed, or -1.
func firstScheduled(pl *sched.Plan, ts []dag.TaskID) dag.TaskID {
	for _, t := range ts {
		if pl.Scheduled(t) {
			return t
		}
	}
	return -1
}

// PriorityVector exposes the configured priority metric for Replan
// callers that do not keep their own.
func (pm Param) PriorityVector(in *sched.Instance) []float64 {
	return pm.priorities(in)
}

// priorities computes the configured priority vector.
func (pm Param) priorities(in *sched.Instance) []float64 {
	switch pm.Priority {
	case PrioStaticLevel:
		return sched.StaticLevel(in)
	case PrioSigma:
		return sched.RankUpwardSigma(in)
	case PrioUpDown:
		up := sched.RankUpward(in)
		down := sched.RankDownward(in)
		prio := make([]float64, in.N())
		for i := range prio {
			prio[i] = up[i] + down[i]
		}
		return prio
	default:
		return sched.RankUpward(in)
	}
}

// Speculative reports whether processor selection runs a speculative
// trial per processor: the grid point duplicates or looks ahead. Such
// trials take no clock floor, so a speculative point places only at
// clock zero.
func (pm Param) Speculative() bool {
	return pm.Duplication != DupNone || pm.Select == SelectLookahead
}

// selection returns a placement pass's selection state: CPOP's pin and
// the speculative trials, each only when the grid point uses it. prio
// picks the lookahead's critical children; nil means the grid point's
// own metric. The caller closes the trials.
func (pm Param) selection(pl *sched.Plan, prio []float64, clock float64) (*cpState, *dupState, error) {
	if pm.Speculative() && clock > 0 {
		return nil, nil, fmt.Errorf("%s: speculative grid point cannot place at clock %g", pm.Name(), clock)
	}
	var cp *cpState
	if pm.Select == SelectCPPin {
		cp = newCPState(pl.Instance())
	}
	var ds *dupState
	if pm.Speculative() {
		ds = pm.newDupState(pl, prio)
	}
	return cp, ds, nil
}

// place chooses a processor for t under the configured selection rule,
// with readiness floored at the clock, and places it (with speculative
// trials when enabled). At clock zero the floor is a no-op.
func (pm Param) place(pl *sched.Plan, ds *dupState, cp *cpState, t dag.TaskID, clock float64) {
	if cp != nil && cp.onCP[t] {
		// Critical-path task: pinned to the CP processor.
		if ds != nil {
			ds.placeOn(pl, t, cp.proc)
			return
		}
		s, _ := sched.EFTFloored(pl, t, cp.proc, clock, pm.Insertion)
		pl.Place(t, cp.proc, s)
		return
	}
	if ds != nil {
		ds.placeBest(pl, t, pm.Select)
		return
	}
	switch {
	case pm.Select == SelectEST:
		bestP, bestS := -1, 0.0
		for p := 0; p < pl.Instance().P(); p++ {
			s, _ := sched.EFTFloored(pl, t, p, clock, pm.Insertion)
			if bestP == -1 || s < bestS {
				bestP, bestS = p, s
			}
		}
		pl.Place(t, bestP, bestS)
	case clock == 0:
		// SelectEFT, and SelectCPPin off the critical path: Plan.BestEFT
		// with its pruned fast paths. Above zero, the floored scan below.
		p, s, _ := pl.BestEFT(t, pm.Insertion)
		pl.Place(t, p, s)
	default:
		bestP, bestS, bestF := -1, 0.0, 0.0
		for p := 0; p < pl.Instance().P(); p++ {
			s, f := sched.EFTFloored(pl, t, p, clock, pm.Insertion)
			if bestP == -1 || f < bestF {
				bestP, bestS, bestF = p, s, f
			}
		}
		pl.Place(t, bestP, bestS)
	}
}

// cpState carries the CPOP critical-path pinning state, computed exactly
// as CPOP computes it.
type cpState struct {
	onCP []bool
	proc int
}

func newCPState(in *sched.Instance) *cpState {
	cpPath, _ := sched.CriticalPathMean(in)
	st := &cpState{onCP: make([]bool, in.N())}
	for _, v := range cpPath {
		st.onCP[v] = true
	}
	bestCost := math.Inf(1)
	for p := 0; p < in.P(); p++ {
		var sum float64
		for _, v := range cpPath {
			sum += in.Cost(v, p)
		}
		if sum < bestCost {
			st.proc, bestCost = p, sum
		}
	}
	return st
}

// dupState runs the per-processor trials of a speculative grid point:
// one reusable Txn per processor, trials on a bounded worker group. A
// trial duplicates under the policy or, without duplication, takes the
// plain EFT; under lookahead it then places the task tentatively,
// estimates its critical child's finish and rewinds. The winner's
// transaction is committed only when duplicating.
type dupState struct {
	group   *algo.TrialGroup
	txs     []*sched.Txn
	results []trial
	dup     Duplication
	maxDups int
	ins     bool
	// child and estFinish are set under lookahead only: each task's
	// highest-priority successor (-1 for an exit task), and each task's
	// estimated finish (downward rank plus mean cost), which stands in
	// for a child's unscheduled parents.
	child     []dag.TaskID
	estFinish []float64
}

// trial is one processor's outcome: the task's window and its score,
// which is the finish time unless the grid point looks ahead.
type trial struct{ start, finish, score float64 }

func (pm Param) newDupState(pl *sched.Plan, prio []float64) *dupState {
	in := pl.Instance()
	ds := &dupState{
		group:   algo.NewTrialGroup(in.P(), in.N()),
		txs:     make([]*sched.Txn, in.P()),
		results: make([]trial, in.P()),
		dup:     pm.Duplication,
		maxDups: pm.MaxDups,
		ins:     pm.Insertion,
	}
	if ds.maxDups <= 0 {
		ds.maxDups = 64
	}
	if pm.Select == SelectLookahead {
		if prio == nil {
			prio = pm.priorities(in)
		}
		ds.child = make([]dag.TaskID, in.N())
		for i := range ds.child {
			ds.child[i] = -1
			for _, s := range in.G.Succ(dag.TaskID(i)) {
				if ds.child[i] == -1 || prio[s.To] > prio[ds.child[i]] {
					ds.child[i] = s.To
				}
			}
		}
		ds.estFinish = sched.RankDownward(in)
		for i := range ds.estFinish {
			ds.estFinish[i] += in.MeanCost(dag.TaskID(i))
		}
	}
	return ds
}

func (ds *dupState) Close() { ds.group.Close() }

func (ds *dupState) trial(pl *sched.Plan, t dag.TaskID, p int) {
	tx := ds.txs[p]
	if tx == nil {
		tx = pl.Begin()
		ds.txs[p] = tx
	} else {
		tx.Reset()
	}
	var r algo.DupResult
	switch ds.dup {
	case DupGreedy:
		r = algo.TryDuplication(tx, t, p, ds.maxDups)
	case DupChain:
		r = algo.TryDuplicationChain(tx, t, p, ds.maxDups)
	default:
		r.Start, r.Finish = pl.EFTOn(t, p, ds.ins)
	}
	score := r.Finish
	if ds.child != nil && ds.child[t] != -1 {
		m := tx.Mark()
		tx.Place(t, p, r.Start)
		score = estimateChildEFT(tx, ds.child[t], ds.estFinish)
		tx.Undo(m)
	}
	ds.results[p] = trial{start: r.Start, finish: r.Finish, score: score}
}

// placeBest runs a trial on every processor and places t on the winner:
// the minimum finish, or start under EST selection, or lookahead score
// under the lookahead's tie rule; remaining ties go to the lower
// processor id.
func (ds *dupState) placeBest(pl *sched.Plan, t dag.TaskID, sel Select) {
	in := pl.Instance()
	ds.group.Run(in.P(), func(p int) { ds.trial(pl, t, p) })
	best := 0
	for p := 1; p < in.P(); p++ {
		r, b := ds.results[p], ds.results[best]
		var better bool
		switch sel {
		case SelectEST:
			better = r.start < b.start
		case SelectLookahead:
			better = r.score < b.score-1e-12 || (math.Abs(r.score-b.score) <= 1e-12 && r.finish < b.finish)
		default:
			better = r.finish < b.finish
		}
		if better {
			best = p
		}
	}
	ds.place(pl, t, best)
}

// placeOn runs a single trial on the given processor and places t there.
func (ds *dupState) placeOn(pl *sched.Plan, t dag.TaskID, p int) {
	ds.trial(pl, t, p)
	ds.place(pl, t, p)
}

// place places t on p at its trial's start, first committing the trial's
// duplicates.
func (ds *dupState) place(pl *sched.Plan, t dag.TaskID, p int) {
	if ds.dup != DupNone {
		ds.txs[p].Commit()
	}
	pl.Place(t, p, ds.results[p].start)
}

// estimateChildEFT returns the smallest estimated finish time of task c
// over all processors given the current, possibly speculative, view.
// Scheduled parents contribute their real data-arrival times; unscheduled
// parents contribute estFinish plus the mean communication cost.
func estimateChildEFT(v sched.View, c dag.TaskID, estFinish []float64) float64 {
	in := v.Instance()
	best := math.Inf(1)
	for q := 0; q < in.P(); q++ {
		ready := 0.0
		for j, pe := range in.G.Pred(c) {
			var arrival float64
			if v.Scheduled(pe.To) {
				arrival = math.Inf(1)
				for _, cp := range v.Copies(pe.To) {
					if t := cp.Finish + in.CommCost(cp.Proc, q, pe.Data); t < arrival {
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
		start := v.FindSlot(q, ready, in.Cost(c, q), true)
		if f := start + in.Cost(c, q); f < best {
			best = f
		}
	}
	return best
}
