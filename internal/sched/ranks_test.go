package sched

import (
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

func TestRankUpwardDiamond(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, platform.Homogeneous(2, 0, 1)) // mean comm = data
	r := RankUpward(in)
	// rank(3)=4; rank(1)=3+2+4=9; rank(2)=1+3+4=8; rank(0)=2+max(1+9,4+8)=14.
	want := []float64{14, 9, 8, 4}
	for i := range want {
		if !almostEqual(r[i], want[i]) {
			t.Fatalf("RankUpward = %v, want %v", r, want)
		}
	}
}

func TestRankDownwardDiamond(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, platform.Homogeneous(2, 0, 1))
	r := RankDownward(in)
	// rank_d(0)=0; rank_d(1)=0+2+1=3; rank_d(2)=0+2+4=6; rank_d(3)=max(3+3+2, 6+1+3)=10.
	want := []float64{0, 3, 6, 10}
	for i := range want {
		if !almostEqual(r[i], want[i]) {
			t.Fatalf("RankDownward = %v, want %v", r, want)
		}
	}
}

func TestRankSigmaEqualsRankUOnHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := dag.NewBuilder("g")
	for i := 0; i < 20; i++ {
		b.AddTask("", 1+rng.Float64()*5)
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if rng.Float64() < 0.2 {
				b.AddEdge(dag.TaskID(i), dag.TaskID(j), rng.Float64()*5)
			}
		}
	}
	in := Consistent(b.MustBuild(), platform.Homogeneous(4, 0, 1))
	ru := RankUpward(in)
	rs := RankUpwardSigma(in)
	for i := range ru {
		if !almostEqual(ru[i], rs[i]) {
			t.Fatalf("sigma rank differs on homogeneous system at %d: %g vs %g", i, ru[i], rs[i])
		}
	}
}

func TestRankSigmaDominatesOnHeterogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomInstance(t, rng, 25, 4)
	ru := RankUpward(in)
	rs := RankUpwardSigma(in)
	for i := range ru {
		if rs[i] < ru[i]-eps {
			t.Fatalf("sigma rank %g below plain rank %g at task %d", rs[i], ru[i], i)
		}
	}
}

func TestStaticLevel(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, platform.Homogeneous(2, 0, 1))
	sl := StaticLevel(in)
	want := []float64{9, 7, 5, 4}
	for i := range want {
		if !almostEqual(sl[i], want[i]) {
			t.Fatalf("StaticLevel = %v, want %v", sl, want)
		}
	}
}

func TestALAPStart(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, platform.Homogeneous(2, 0, 1))
	alap := ALAPStart(in)
	// CP(mean, comm) = 14; alap = 14 - rank_u.
	want := []float64{0, 5, 6, 10}
	for i := range want {
		if !almostEqual(alap[i], want[i]) {
			t.Fatalf("ALAPStart = %v, want %v", alap, want)
		}
	}
}

func TestCriticalPathMean(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, platform.Homogeneous(2, 0, 1))
	path, cp := CriticalPathMean(in)
	if !almostEqual(cp, 14) {
		t.Fatalf("cp = %g, want 14", cp)
	}
	want := []dag.TaskID{0, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// The path is contiguous in the graph.
	for i := 0; i+1 < len(path); i++ {
		if _, ok := g.EdgeData(path[i], path[i+1]); !ok {
			t.Fatalf("path step %d->%d not an edge", path[i], path[i+1])
		}
	}
}

func TestCriticalPathMeanRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(t, rng, 3+rng.Intn(30), 3)
		path, cp := CriticalPathMean(in)
		up := RankUpward(in)
		down := RankDownward(in)
		for _, v := range path {
			if !almostEqual(up[v]+down[v], cp) {
				t.Fatalf("task %d on path has up+down = %g, cp = %g", v, up[v]+down[v], cp)
			}
		}
		// CP length matches the max up-rank over entries.
		maxUp := 0.0
		for _, e := range in.G.Entries() {
			if up[e] > maxUp {
				maxUp = up[e]
			}
		}
		if !almostEqual(maxUp, cp) {
			t.Fatalf("cp = %g, max entry rank = %g", cp, maxUp)
		}
	}
}

// TestCriticalPathMeanLargeMagnitude is the regression test for the trace
// tolerance. On a long chain of ~1e12-cost tasks the critical path length
// reaches ~1e15, where one ulp is 0.125: up[v]+down[v] recomputes the same
// path sum in a different association order than cp, so the two differ by
// float dust far above the old absolute 1e-9 band. The old trace then found
// no successor inside the band and silently truncated the path; the scaled
// tolerance must keep the full chain and end at the exit task.
func TestCriticalPathMeanLargeMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 1000
	b := dag.NewBuilder("huge-chain")
	for i := 0; i < n; i++ {
		b.AddTask("", 1e12*(1+rng.Float64()))
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(dag.TaskID(i), dag.TaskID(i+1), 1e12*rng.Float64())
	}
	g := b.MustBuild()
	in := Consistent(g, platform.Homogeneous(3, 0, 1))
	path, cp := CriticalPathMean(in)
	if cp < 1e15 {
		t.Fatalf("cp = %g, expected ~1e15 magnitude", cp)
	}
	if len(path) != n {
		t.Fatalf("path truncated: %d of %d chain tasks", len(path), n)
	}
	last := path[len(path)-1]
	if in.G.OutDegree(last) != 0 {
		t.Fatalf("path ends at task %d which is not an exit", last)
	}
	for i := 0; i+1 < len(path); i++ {
		if _, ok := g.EdgeData(path[i], path[i+1]); !ok {
			t.Fatalf("path step %d->%d not an edge", path[i], path[i+1])
		}
	}
}

// TestCriticalPathMeanAlwaysReachesExit extends the exit guarantee to
// random branched graphs with large magnitudes: regardless of rounding,
// the traced path must be edge-contiguous and terminate at an exit task.
func TestCriticalPathMeanAlwaysReachesExit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		b := dag.NewBuilder("huge-rand")
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			b.AddTask("", 1e11*(1+rng.Float64()*9))
		}
		added := make(map[[2]int]bool)
		for i := 1; i < n; i++ {
			for k := 0; k < 1+rng.Intn(3); k++ {
				from := rng.Intn(i)
				if !added[[2]int{from, i}] {
					added[[2]int{from, i}] = true
					b.AddEdge(dag.TaskID(from), dag.TaskID(i), 1e11*rng.Float64())
				}
			}
		}
		g := b.MustBuild()
		in := Consistent(g, platform.Homogeneous(4, 0.5, 1))
		path, _ := CriticalPathMean(in)
		last := path[len(path)-1]
		if in.G.OutDegree(last) != 0 {
			t.Fatalf("trial %d: path ends at non-exit task %d", trial, last)
		}
		for i := 0; i+1 < len(path); i++ {
			if _, ok := g.EdgeData(path[i], path[i+1]); !ok {
				t.Fatalf("trial %d: path step %d->%d not an edge", trial, path[i], path[i+1])
			}
		}
	}
}

func TestRankUpwardRespectsTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(t, rng, 3+rng.Intn(30), 4)
		r := RankUpward(in)
		// rank_u(from) >= mean cost(from) + mean comm + rank_u(to), so in
		// particular it exceeds rank_u(to) by at least the task's own cost.
		for _, e := range in.G.Edges() {
			if r[e.From] < r[e.To]+in.MeanCost(e.From)-eps {
				t.Fatalf("rank not decreasing along edge %v: %g vs %g", e, r[e.From], r[e.To])
			}
		}
	}
}
