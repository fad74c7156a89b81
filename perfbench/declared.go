package main

// decl declares one metric the benchmark reports: its unit and which
// direction is better. Every workload reports every declared metric;
// README.md says what each one measures on each workload.
// BENCHMARK.json lists the same metrics; a test keeps the two in step.
type decl struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEndDecls are measured with tracing off. An operation is one
// Schedule call in static, one request in service and one Apply in
// stream; p50_ms and p90_ms are its latency (in stream, of the Apply
// calls that re-plan). The tail is the 90th percentile, not the 99th:
// the 99th followed host steal (README.md, Noise and bounds).
var endToEndDecls = []decl{
	{"setup_s", "s", "lower"},
	{"tasks_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"alloc_bytes_per_task", "B", "lower"},
	{"mean_slr", "ratio", "lower"},
}

// overheadPrefix names the traced run's cost of tracing for each
// end-to-end metric, in percent of the untraced value; positive means
// tracing made the metric worse.
const overheadPrefix = "trace_overhead."

// layerDecls are reduced from the traced run's spans and counters. The
// kernel and codec layers are timed on each workload's own instances.
var layerDecls = append([]decl{
	{"workload.instance_build_ms", "ms", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"sched.rank_upward_ms", "ms", "lower"},
	{"sched.static_level_ms", "ms", "lower"},
	{"algo.order_ms", "ms", "lower"},
	{"heft.schedule_ms", "ms", "lower"},
	{"hlfet.schedule_ms", "ms", "lower"},
	{"ils.schedule_ms", "ms", "lower"},
	{"heft.alloc_bytes_per_task", "B", "lower"},
	{"hlfet.alloc_bytes_per_task", "B", "lower"},
	{"ils.alloc_bytes_per_task", "B", "lower"},
	{"codec.instance_decode_us", "us", "lower"},
	{"codec.graph_resolve_us", "us", "lower"},
	{"codec.response_encode_us", "us", "lower"},
}, overheadDecls()...)

func overheadDecls() []decl {
	out := make([]decl, len(endToEndDecls))
	for i, d := range endToEndDecls {
		out[i] = decl{overheadPrefix + d.Name, "%", "lower"}
	}
	return out
}

// declared looks a metric up by name.
func declared(name string) (decl, bool) {
	for _, ds := range [][]decl{endToEndDecls, layerDecls} {
		for _, d := range ds {
			if d.Name == name {
				return d, true
			}
		}
	}
	return decl{}, false
}
