// Package sched provides the scheduling substrate shared by every
// algorithm: the problem instance (task graph × platform × execution-cost
// matrix), rank/priority computations, the mutable Plan used while
// scheduling, the immutable Schedule result and its validator.
package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

// ErrInvalidCost is the typed error wrapped by NewInstance when a task
// execution cost is NaN, infinite or negative. Validating here keeps the
// rank kernels free of per-comparison NaN checks — a NaN would otherwise
// silently lose every "cand > best" comparison and corrupt priorities
// without a trace.
var ErrInvalidCost = errors.New("sched: invalid cost")

// Instance is one scheduling problem: a task graph, a target system and
// the execution cost W[task][processor] of every task on every processor.
type Instance struct {
	G   *dag.Graph
	Sys *platform.System
	// W is the row view of the cost matrix. NewInstance re-backs the rows
	// onto one flat row-major array (wFlat), so row i is the contiguous
	// block wFlat[i*P:(i+1)*P] and scanning a task's costs walks memory
	// linearly.
	W [][]float64

	// comm is the pluggable communication model; nil means the classic
	// contention-free model backed directly by Sys — the default every
	// constructor produces, with code paths bit-identical to the
	// pre-CommModel implementation. Set via WithComm.
	comm platform.CommModel

	wFlat  []float64
	meanW  []float64
	sigmaW []float64
	// minW is the smallest execution cost in W (+Inf with no tasks): no
	// task fits an idle gap an interval of length minW does not, so the
	// plan's gap indexes leave such gaps out.
	minW float64
	// Per-edge mean communication costs, memoized per arc in flat arrays
	// indexed by the DAG's CSR arc offsets: the cost of the j-th outgoing
	// edge of task i is meanCommSucc[G.SuccStart(i)+j]. System.MeanCommCost
	// is O(p²) per call; the rank computations and lookahead estimators
	// consult these tables instead, with bit-identical values.
	meanCommSucc []float64
	meanCommPred []float64
}

// NewInstance validates the cost matrix and builds an Instance. W must
// have one row per task and one column per processor; all execution
// costs must be non-negative and finite (violations report
// ErrInvalidCost), as dag's builders already hold edge data to be. The
// matrix values are copied onto a flat instance-owned backing array;
// the caller's rows are not retained.
func NewInstance(g *dag.Graph, sys *platform.System, w [][]float64) (*Instance, error) {
	if g == nil || sys == nil {
		return nil, fmt.Errorf("sched: nil graph or system")
	}
	if len(w) != g.Len() {
		return nil, fmt.Errorf("sched: cost matrix has %d rows, want %d", len(w), g.Len())
	}
	n, p := g.Len(), sys.Len()
	for i, row := range w {
		if err := checkRow(i, row, p); err != nil {
			return nil, err
		}
	}
	inst := &Instance{G: g, Sys: sys, minW: math.Inf(1)}
	inst.wFlat = make([]float64, n*p)
	inst.W = make([][]float64, n)
	for i, row := range w {
		dst := inst.wFlat[i*p : (i+1)*p : (i+1)*p]
		copy(dst, row)
		inst.W[i] = dst
		for _, v := range row {
			inst.minW = math.Min(inst.minW, v)
		}
	}
	inst.cacheStats()
	return inst, nil
}

// checkRow validates task i's cost row: p finite, non-negative costs.
func checkRow(i int, row []float64, p int) error {
	if len(row) != p {
		return fmt.Errorf("sched: cost row %d has %d cols, want %d", i, len(row), p)
	}
	for q, v := range row {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: W[%d][%d] = %g", ErrInvalidCost, i, q, v)
		}
	}
	return nil
}

func (in *Instance) cacheStats() {
	n := in.G.Len()
	in.meanW = make([]float64, n)
	in.sigmaW = make([]float64, n)
	for i := 0; i < n; i++ {
		in.meanW[i], in.sigmaW[i] = rowStats(in.W[i])
	}
	// One MeanCommData call per arc fills both tables. Sources are
	// visited in id order and each task's predecessor arcs are sorted by
	// source id, so arc i→t is always the next unfilled slot of t's
	// predecessor row: a per-target cursor places it.
	succSlots, predSlots := in.G.ArcSlots()
	in.meanCommSucc = make([]float64, succSlots)
	in.meanCommPred = make([]float64, predSlots)
	next := make([]int32, n)
	for i := 0; i < n; i++ {
		base := in.G.SuccStart(dag.TaskID(i))
		for j, a := range in.G.Succ(dag.TaskID(i)) {
			c := in.MeanCommData(a.Data)
			in.meanCommSucc[base+j] = c
			in.meanCommPred[in.G.PredStart(a.To)+int(next[a.To])] = c
			next[a.To]++
		}
	}
}

// rowStats returns the mean and (population) standard deviation of one
// task's cost row.
func rowStats(row []float64) (mean, sigma float64) {
	var sum float64
	for _, v := range row {
		sum += v
	}
	mean = sum / float64(len(row))
	var varSum float64
	for _, v := range row {
		d := v - mean
		varSum += d * d
	}
	return mean, math.Sqrt(varSum / float64(len(row)))
}

// Consistent builds the related-machines instance: W[i][p] equals the
// task's nominal weight divided by the processor speed. On a homogeneous
// system every row is constant.
func Consistent(g *dag.Graph, sys *platform.System) *Instance {
	w := make([][]float64, g.Len())
	for i := range w {
		w[i] = make([]float64, sys.Len())
		for p := range w[i] {
			w[i][p] = g.Task(dag.TaskID(i)).Weight / sys.Speed(p)
		}
	}
	inst, err := NewInstance(g, sys, w)
	if err != nil {
		// Construction is correct by design: weights and speeds were
		// validated by their own builders.
		panic(err)
	}
	return inst
}

// Unrelated builds the inconsistent-heterogeneity instance of Topcuoglu et
// al.: W[i][p] is drawn uniformly from [w̄·(1−β/2), w̄·(1+β/2)] around the
// task's nominal weight w̄, independently per processor. beta must lie in
// [0, 2); beta = 0 degenerates to a homogeneous matrix.
func Unrelated(g *dag.Graph, sys *platform.System, beta float64, rng *rand.Rand) (*Instance, error) {
	if beta < 0 || beta >= 2 {
		return nil, fmt.Errorf("sched: heterogeneity beta %g out of [0,2)", beta)
	}
	w := make([][]float64, g.Len())
	for i := range w {
		w[i] = make([]float64, sys.Len())
		nominal := g.Task(dag.TaskID(i)).Weight
		for p := range w[i] {
			w[i][p] = nominal * (1 + beta*(rng.Float64()-0.5))
		}
	}
	return NewInstance(g, sys, w)
}

// P returns the processor count.
func (in *Instance) P() int { return in.Sys.Len() }

// N returns the task count.
func (in *Instance) N() int { return in.G.Len() }

// Cost returns the execution time of task i on processor p.
func (in *Instance) Cost(i dag.TaskID, p int) float64 { return in.W[i][p] }

// MeanCost returns the mean execution time of task i over all processors.
func (in *Instance) MeanCost(i dag.TaskID) float64 { return in.meanW[i] }

// SigmaCost returns the (population) standard deviation of task i's
// execution time over all processors. It is zero on homogeneous matrices.
func (in *Instance) SigmaCost(i dag.TaskID) float64 { return in.sigmaW[i] }

// MinCost returns the smallest execution time of task i and the processor
// achieving it (first such processor on ties).
func (in *Instance) MinCost(i dag.TaskID) (float64, int) {
	best, arg := in.W[i][0], 0
	for p := 1; p < in.P(); p++ {
		if in.W[i][p] < best {
			best, arg = in.W[i][p], p
		}
	}
	return best, arg
}

// WithComm returns a shallow copy of the instance scheduled under the
// given communication model (nil restores the default contention-free
// model). The graph, system and cost matrix are shared; the mean-comm
// caches are rebuilt through the model so rank computations see its
// costs.
func (in *Instance) WithComm(m platform.CommModel) *Instance {
	cp := *in
	cp.comm = m
	cp.cacheStats()
	return &cp
}

// CommModel returns the instance's communication model, nil when it is
// the default contention-free model.
func (in *Instance) CommModel() platform.CommModel { return in.comm }

// CommKind returns the registry kind of the instance's communication
// model ("contention-free" for the nil default).
func (in *Instance) CommKind() string {
	if in.comm == nil {
		return platform.KindContentionFree
	}
	return in.comm.Kind()
}

// CommCost returns the idle-network time to move data units from
// processor p to q under the instance's communication model.
func (in *Instance) CommCost(p, q int, data float64) float64 {
	if in.comm == nil {
		return in.Sys.CommCost(p, q, data)
	}
	return in.comm.Cost(p, q, data)
}

// Comm returns the communication cost of edge (from, to) when the tasks
// run on processors p and q: zero if p == q or no such edge exists.
func (in *Instance) Comm(from, to dag.TaskID, p, q int) float64 {
	if p == q {
		return 0
	}
	data, ok := in.G.EdgeData(from, to)
	if !ok {
		return 0
	}
	return in.CommCost(p, q, data)
}

// MeanComm returns the average communication cost of edge (from, to) over
// all distinct processor pairs — the c̄(i,j) used by rank computations.
func (in *Instance) MeanComm(from, to dag.TaskID) float64 {
	data, ok := in.G.EdgeData(from, to)
	if !ok {
		return 0
	}
	return in.MeanCommData(data)
}

// MeanCommData returns the average communication cost of moving data units
// between two distinct processors.
func (in *Instance) MeanCommData(data float64) float64 {
	if in.comm == nil {
		return in.Sys.MeanCommCost(data)
	}
	return in.comm.MeanCost(data)
}

// MeanCommSucc returns the mean communication cost of the j-th outgoing
// edge of task i (parallel to G.Succ(i)), from the precomputed per-arc
// table — identical to MeanCommData(G.Succ(i)[j].Data) without the O(p²)
// pair scan.
func (in *Instance) MeanCommSucc(i dag.TaskID, j int) float64 {
	return in.meanCommSucc[in.G.SuccStart(i)+j]
}

// MeanCommPred is MeanCommSucc for the j-th incoming edge of task i
// (parallel to G.Pred(i)).
func (in *Instance) MeanCommPred(i dag.TaskID, j int) float64 {
	return in.meanCommPred[in.G.PredStart(i)+j]
}

// meanCommSuccRow returns the flat mean-comm entries for task i's outgoing
// arcs, parallel to G.Succ(i). Rank kernels use it to hoist the offset
// lookup out of their inner loops.
func (in *Instance) meanCommSuccRow(i dag.TaskID) []float64 {
	lo := in.G.SuccStart(i)
	return in.meanCommSucc[lo : lo+in.G.OutDegree(i)]
}

// meanCommPredRow is meanCommSuccRow for incoming arcs.
func (in *Instance) meanCommPredRow(i dag.TaskID) []float64 {
	lo := in.G.PredStart(i)
	return in.meanCommPred[lo : lo+in.G.InDegree(i)]
}

// CCR returns the realized communication-to-computation ratio: the mean
// edge communication cost (over distinct processor pairs) divided by the
// mean task execution cost.
func (in *Instance) CCR() float64 {
	var comm float64
	edges := in.G.Edges()
	if len(edges) == 0 {
		return 0
	}
	for _, e := range edges {
		comm += in.MeanComm(e.From, e.To)
	}
	comm /= float64(len(edges))
	var comp float64
	for i := 0; i < in.N(); i++ {
		comp += in.meanW[i]
	}
	comp /= float64(in.N())
	if comp == 0 {
		return math.Inf(1)
	}
	return comm / comp
}

// SeqTime returns the best single-processor execution time: the minimum
// over processors of the total load when every task runs there. It is the
// numerator of the standard speedup metric.
func (in *Instance) SeqTime() float64 {
	best := math.Inf(1)
	for p := 0; p < in.P(); p++ {
		var sum float64
		for i := 0; i < in.N(); i++ {
			sum += in.W[i][p]
		}
		if sum < best {
			best = sum
		}
	}
	return best
}

// CPMin returns the critical-path lower bound used by the SLR metric: the
// maximum over paths of the sum of minimum execution costs along the path
// (communication excluded, as both endpoints of any edge could share a
// processor).
func (in *Instance) CPMin() float64 {
	n := in.N()
	down := make([]float64, n)
	for _, v := range in.G.ReverseTopoOrder() {
		best := 0.0
		for _, a := range in.G.Succ(v) {
			if down[a.To] > best {
				best = down[a.To]
			}
		}
		mc, _ := in.MinCost(v)
		down[v] = mc + best
	}
	cp := 0.0
	for _, v := range down {
		if v > cp {
			cp = v
		}
	}
	return cp
}

// String implements fmt.Stringer.
func (in *Instance) String() string {
	return fmt.Sprintf("instance(%s on %s, CCR=%.2f)", in.G, in.Sys, in.CCR())
}
