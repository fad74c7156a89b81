package sched

import (
	"math"

	"dagsched/internal/dag"
)

// Rank and priority computations shared by the list-scheduling heuristics.
// All ranks use platform-mean execution costs and platform-mean
// communication costs, the standard convention of the literature.

// RankUpward returns rank_u(i) = w̄(i) + max over successors j of
// (c̄(i,j) + rank_u(j)), the HEFT upward rank. Exit tasks have rank equal
// to their mean cost.
func RankUpward(in *Instance) []float64 {
	return rankUpwardWith(in, in.meanW)
}

// RankUpwardSigma returns the σ-augmented upward rank used by ILS:
// identical to RankUpward but with per-task cost estimate w̄(i) + σ(i).
// On homogeneous cost matrices σ = 0 and the result equals RankUpward.
func RankUpwardSigma(in *Instance) []float64 {
	comp := make([]float64, in.N())
	for i := range comp {
		comp[i] = in.meanW[i] + in.sigmaW[i]
	}
	return rankUpwardWith(in, comp)
}

// rankUpwardWith runs the upward-rank recurrence over the exit-anchored
// height levels: every successor of a task lives in a strictly earlier
// level, so a sweep in level order finds each successor's rank final.
func rankUpwardWith(in *Instance, comp []float64) []float64 {
	ranks := make([]float64, in.N())
	_, tasks := in.G.HeightLevels()
	for _, v := range tasks {
		best := 0.0
		comm := in.meanCommSuccRow(v)
		for j, a := range in.G.Succ(v) {
			if cand := comm[j] + ranks[a.To]; cand > best {
				best = cand
			}
		}
		ranks[v] = comp[v] + best
	}
	return ranks
}

// RankDownward returns rank_d(i) = max over predecessors m of
// (rank_d(m) + w̄(m) + c̄(m,i)); entry tasks have rank 0. rank_d is the
// length of the longest mean-cost path from an entry up to (excluding) i.
// It sweeps the entry-anchored depth levels, mirroring rankUpwardWith.
func RankDownward(in *Instance) []float64 {
	ranks := make([]float64, in.N())
	_, tasks := in.G.DepthLevels()
	for _, v := range tasks {
		best := 0.0
		comm := in.meanCommPredRow(v)
		for j, p := range in.G.Pred(v) {
			if cand := ranks[p.To] + in.meanW[p.To] + comm[j]; cand > best {
				best = cand
			}
		}
		ranks[v] = best
	}
	return ranks
}

// StaticLevel returns SL(i): the largest sum of mean execution costs along
// any path from i to an exit, communication excluded (Sih & Lee's static
// level, also HLFET's priority). Like the upward rank it sweeps the
// height levels.
func StaticLevel(in *Instance) []float64 {
	sl := make([]float64, in.N())
	_, tasks := in.G.HeightLevels()
	for _, v := range tasks {
		best := 0.0
		for _, a := range in.G.Succ(v) {
			if sl[a.To] > best {
				best = sl[a.To]
			}
		}
		sl[v] = in.meanW[v] + best
	}
	return sl
}

// ALAPStart returns the as-late-as-possible start time of every task under
// mean execution and mean communication costs (MCP's priority measure):
// alap[i] = CP − bl(i), where bl is the comm-inclusive mean-cost bottom
// level and CP its maximum.
func ALAPStart(in *Instance) []float64 {
	bl := RankUpward(in) // comm-inclusive mean-cost bottom level
	cp := 0.0
	for _, v := range bl {
		if v > cp {
			cp = v
		}
	}
	out := make([]float64, len(bl))
	for i, v := range bl {
		out[i] = cp - v
	}
	return out
}

// CriticalPathMean returns the set of tasks on a longest mean-cost
// comm-inclusive path (the CPOP critical path) and its length. The path is
// traced greedily from the highest-priority entry task, breaking ties by
// smaller task id.
func CriticalPathMean(in *Instance) ([]dag.TaskID, float64) {
	up := RankUpward(in)
	down := RankDownward(in)
	cp := 0.0
	for i := range up {
		if s := up[i] + down[i]; s > cp {
			cp = s
		}
	}
	// The trace tolerance must scale with the path length: up+down along
	// the true critical path differs from cp only by float association
	// dust, which is proportional to cp's magnitude (~ulp(cp) per term),
	// not an absolute constant. A fixed 1e-9 band loses the path entirely
	// once costs reach ~1e12, where a single ulp already exceeds it. The
	// absolute floor keeps the band no tighter than before on small
	// instances, so existing traces are unchanged.
	tol := 1e-9
	if rel := cp * 1e-12; rel > tol {
		tol = rel
	}
	// Start from the entry task whose up+down equals the CP length.
	var start dag.TaskID = -1
	for _, e := range in.G.Entries() {
		if up[e]+down[e] >= cp-tol {
			start = e
			break
		}
	}
	if start == -1 {
		// Rounding pushed every entry below the band; fall back to the
		// entry with the largest up+down (smallest id on ties), which is
		// on a true longest path up to float error.
		bestSum := math.Inf(-1)
		for _, e := range in.G.Entries() {
			if s := up[e] + down[e]; s > bestSum {
				bestSum, start = s, e
			}
		}
	}
	path := []dag.TaskID{start}
	cur := start
	for in.G.OutDegree(cur) > 0 {
		next := dag.TaskID(-1)
		for _, a := range in.G.Succ(cur) {
			if up[a.To]+down[a.To] >= cp-tol {
				next = a.To
				break
			}
		}
		if next == -1 {
			// Same fallback mid-trace: pick the max-sum successor so the
			// path always reaches an exit task instead of silently
			// truncating (CPOP treats the last element as the exit).
			bestSum := math.Inf(-1)
			for _, a := range in.G.Succ(cur) {
				if s := up[a.To] + down[a.To]; s > bestSum {
					bestSum, next = s, a.To
				}
			}
		}
		path = append(path, next)
		cur = next
	}
	return path, cp
}
