package stream

import (
	"fmt"
	"testing"

	"dagsched/internal/platform"
)

// BenchmarkStreamAppend measures end-to-end event ingestion through the
// incremental engine. homo replays a 2000-task log on identical
// processors, auto-flushing every 32 events; events/sec is reported
// alongside. het replays topological logs on 8 heterogeneous processors
// at batch 8 and reports µs per task, which stays flat in n while a
// flush costs its batch rather than the graph.
func BenchmarkStreamAppend(b *testing.B) {
	b.Run("homo/n=2000/batch=32", func(b *testing.B) {
		in := streamInstance(b, 42, 2000, 8)
		evs, err := InstanceEvents(in, arrivalOrders(in, 0)["topo"])
		if err != nil {
			b.Fatal(err)
		}
		cfg := Config{Algorithm: "HEFT", Sys: platform.Homogeneous(8, 1, 1), BatchSize: 32}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := Replay(cfg, evs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(evs)*b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	for _, n := range []int{1000, 3000, 10000} {
		b.Run(fmt.Sprintf("het/n=%d/batch=8", n), func(b *testing.B) {
			in := hetInstance(b, int64(n), n, 8)
			evs, err := InstanceEvents(in, arrivalOrders(in, 0)["topo"])
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Algorithm: "HEFT", Sys: in.Sys, BatchSize: 8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Replay(cfg, evs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(n*b.N), "us/task")
		})
	}
}

// BenchmarkStreamAppendFullRecompute is the baseline the incremental
// engine is measured against: every flush re-plans from scratch.
func BenchmarkStreamAppendFullRecompute(b *testing.B) {
	in := streamInstance(b, 42, 2000, 8)
	evs, err := InstanceEvents(in, arrivalOrders(in, 0)["topo"])
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Algorithm: "HEFT", Sys: platform.Homogeneous(8, 1, 1), BatchSize: 32, FullRecompute: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Replay(cfg, evs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(evs)*b.N)/b.Elapsed().Seconds(), "events/sec")
}
