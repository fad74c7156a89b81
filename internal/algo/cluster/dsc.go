// Package cluster implements clustering-based scheduling: a dominant-
// sequence clustering pass in the style of Yang and Gerasoulis (DSC, TPDS
// 1994) on an unbounded clique of mean-cost processors, followed by
// load-balanced merging of clusters onto the bounded processor set and a
// final rank-ordered insertion scheduling pass ("DSC-LLB").
package cluster

import (
	"context"
	"fmt"
	"sort"

	"dagsched/internal/algo"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// DSC is the dominant-sequence clustering scheduler.
type DSC struct{}

// Name implements algo.Algorithm.
func (DSC) Name() string { return "DSC" }

// Schedule implements algo.Algorithm.
func (d DSC) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return d.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements algo.CtxScheduler: the final pass checks ctx
// before each placement.
func (DSC) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	assign := Assignments(in)
	// Final pass: list schedule with processor choice fixed by the
	// clustering, upward-rank order, insertion-based slots, real costs.
	order := algo.OrderDescPrecedence(in.G, sched.RankUpward(in))
	pl := sched.NewPlan(in)
	for _, t := range order {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("DSC: %w", err)
		}
		s, _ := pl.EFTOn(t, assign[t], true)
		pl.Place(t, assign[t], s)
	}
	return pl.Finalize("DSC"), nil
}

// Clusters runs phase 1 — clustering on an unbounded clique with mean
// costs — and returns the cluster index of every task. A task joins its
// critical parent's cluster (zeroing the same-cluster edges) whenever that
// does not delay its mean-cost start time; otherwise it opens a fresh
// cluster. Tasks inside a cluster execute sequentially in absorption
// order.
func Clusters(in *sched.Instance) []int {
	n := in.N()
	cluster := make([]int, n)
	var clusterReady []float64 // finish time of each cluster's last task
	finish := make([]float64, n)
	nextCluster := 0
	for _, v := range in.G.TopoOrder() {
		// Start time in a fresh cluster: every incoming edge pays mean
		// communication.
		freshStart := 0.0
		critParent := dag.TaskID(-1)
		critArrival := -1.0
		for j, pe := range in.G.Pred(v) {
			arr := finish[pe.To] + in.MeanCommPred(v, j)
			if arr > freshStart {
				freshStart = arr
			}
			if arr > critArrival {
				critArrival, critParent = arr, pe.To
			}
		}
		start := freshStart
		chosen := -1
		if critParent != -1 {
			// Absorb v into the critical parent's cluster: same-cluster
			// edges are zeroed but v queues behind the cluster's last task.
			c := cluster[critParent]
			mergedStart := clusterReady[c]
			for j, pe := range in.G.Pred(v) {
				arr := finish[pe.To]
				if cluster[pe.To] != c {
					arr += in.MeanCommPred(v, j)
				}
				if arr > mergedStart {
					mergedStart = arr
				}
			}
			if mergedStart <= freshStart {
				start, chosen = mergedStart, c
			}
		}
		if chosen == -1 {
			chosen = nextCluster
			nextCluster++
			clusterReady = append(clusterReady, 0)
		}
		cluster[v] = chosen
		finish[v] = start + in.MeanCost(v)
		clusterReady[chosen] = finish[v]
	}
	return cluster
}

// Assignments maps every task to a processor: phase-1 clusters are merged
// onto the bounded processor set in decreasing total work, each onto the
// least-loaded processor.
func Assignments(in *sched.Instance) []int {
	n := in.N()
	cluster := Clusters(in)
	numClusters := 0
	for _, c := range cluster {
		if c+1 > numClusters {
			numClusters = c + 1
		}
	}
	work := make([]float64, numClusters)
	for v := 0; v < n; v++ {
		work[cluster[v]] += in.MeanCost(dag.TaskID(v))
	}
	ids := make([]int, numClusters)
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return work[ids[a]] > work[ids[b]] })
	load := make([]float64, in.P())
	clusterProc := make([]int, numClusters)
	for _, c := range ids {
		best := 0
		for p := 1; p < in.P(); p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		clusterProc[c] = best
		load[best] += work[c]
	}
	assign := make([]int, n)
	for v := 0; v < n; v++ {
		assign[v] = clusterProc[cluster[v]]
	}
	return assign
}
