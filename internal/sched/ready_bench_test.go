package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

var (
	rowSink  []float64
	instSink *Instance
)

// BenchmarkReadyRow measures one data-ready row of a task fed by eight
// placed predecessors: on 32 uniform processors, where the row comes from
// the largest remote arrival, and on 8 processors with per-link startups
// and rates, where each predecessor costs one CommCost call per
// processor; each with and without a second copy of one predecessor.
func BenchmarkReadyRow(b *testing.B) {
	links, err := platform.Generate(platform.GenConfig{Procs: 8, Latency: 1, TimePerUnit: 1, StartupSpread: 0.5, LinkSpread: 0.5}, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	const fanIn = 8
	bld := dag.NewBuilder("fan-in")
	for i := 0; i < fanIn; i++ {
		bld.AddTask("", float64(1+i))
	}
	sink := bld.AddTask("sink", 1)
	for i := 0; i < fanIn; i++ {
		bld.AddEdge(dag.TaskID(i), sink, float64(1+i%3))
	}
	g := bld.MustBuild()
	for _, tc := range []struct {
		name string
		sys  *platform.System
		dup  bool
	}{
		{"uniform-P32", platform.Homogeneous(32, 1, 1), false},
		{"uniform-P32-dup", platform.Homogeneous(32, 1, 1), true},
		{"links-P8", links, false},
		{"links-P8-dup", links, true},
	} {
		in := Consistent(g, tc.sys)
		pl := NewPlan(in)
		for i := 0; i < fanIn; i++ {
			pl.Place(dag.TaskID(i), i%in.P(), 0)
		}
		if tc.dup {
			pl.PlaceDup(0, in.P()-1, 0)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rowSink = pl.ReadyRow(sink)
			}
		})
	}
}

// BenchmarkInstanceBuild builds the instance of a 5001-task chain (5000
// arcs) on 32 and on 512 uniform processors through Consistent: the cost
// matrix, its per-task statistics and every arc's mean link cost, which
// rank computations read.
func BenchmarkInstanceBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bld := dag.NewBuilder("chain")
	prev := bld.AddTask("", 1)
	for i := 0; i < 5000; i++ {
		t := bld.AddTask("", 1+rng.Float64())
		bld.AddEdge(prev, t, 10*rng.Float64())
		prev = t
	}
	g := bld.MustBuild()
	for _, p := range []int{32, 512} {
		sys := platform.Homogeneous(p, 1, 0.5)
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				instSink = Consistent(g, sys)
			}
		})
	}
}
