package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/metrics"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/service"
)

// kernelAlg is one algorithm whose Schedule calls the per-layer metrics
// time, under its metric prefix.
type kernelAlg struct {
	key string // heft, hlfet or ils
	alg algo.Algorithm
}

var kernelAlgs = []kernelAlg{
	{"heft", listsched.HEFT{}},
	{"hlfet", listsched.HLFET{}},
	{"ils", core.New()},
}

// timeSchedule runs one Schedule call with only the call inside the
// timing and allocation window. With a tracer it records the call as a
// <key>.schedule span and counts its bytes and tasks.
func timeSchedule(a kernelAlg, in *sched.Instance, rec *recorder, tr *tracer) (s *sched.Schedule, secs float64, allocs uint64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	s, err = a.alg.Schedule(in)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	allocs = m1.TotalAlloc - m0.TotalAlloc
	if rec != nil {
		rec.add(a.key+".schedule", t0, t1, -1, tr.op(), float64(allocs))
		tr.count(a.key+".alloc_bytes", float64(allocs))
		tr.count(a.key+".tasks", float64(in.N()))
	}
	return s, t1.Sub(t0).Seconds(), allocs, err
}

// probe times single layers on one of a workload's own instances, each
// called on its own: the steps HEFT and HLFET start with, the kernel
// algorithms, and the wire formats a schedd request goes through, with
// HEFT's schedule as the response. Workloads run it after a traced
// block's deadline, so its calls never count in the traced end-to-end
// numbers.
func probe(in *sched.Instance, rec *recorder, tr *tracer) error {
	s, err := probeKernel(in, kernelAlgs, rec, tr)
	if err != nil {
		return err
	}
	return probeCodec(in, s, rec, tr)
}

// probeKernel times the steps HEFT and HLFET start with and the Schedule
// calls of algs on in, and returns the first call's schedule. The
// static workload passes no algs: it times its own calls.
func probeKernel(in *sched.Instance, algs []kernelAlg, rec *recorder, tr *tracer) (*sched.Schedule, error) {
	t0 := time.Now()
	rank := sched.RankUpward(in)
	t1 := time.Now()
	algo.OrderDescPrecedence(in.G, rank)
	t2 := time.Now()
	sched.StaticLevel(in)
	t3 := time.Now()
	rec.add("sched.rank_upward", t0, t1, -1, tr.op(), 0)
	rec.add("algo.order", t1, t2, -1, tr.op(), 0)
	rec.add("sched.static_level", t2, t3, -1, tr.op(), 0)
	var first *sched.Schedule
	for _, a := range algs {
		s, _, _, err := timeSchedule(a, in, rec, tr)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = s
		}
	}
	return first, nil
}

// probeCodec times the wire formats on in: decoding it as a full
// instance, resolving it as a bare graph, and encoding s, a schedule of
// it, as a response. The compact encodings, as a client sends them, are
// made untimed.
func probeCodec(in *sched.Instance, s *sched.Schedule, rec *recorder, tr *tracer) error {
	var inst, graph bytes.Buffer
	if err := in.WriteJSON(&inst); err != nil {
		return err
	}
	if err := in.G.WriteJSON(&graph); err != nil {
		return err
	}
	instJSON, graphJSON := compact(inst.Bytes()), compact(graph.Bytes())
	op := tr.op()
	t0 := time.Now()
	if _, err := sched.ReadInstanceJSON(bytes.NewReader(instJSON)); err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := resolveGraph(graphJSON, in.P()); err != nil {
		return err
	}
	t2 := time.Now()
	rec.add("codec.instance_decode", t0, t1, -1, op, 0)
	rec.add("codec.graph_resolve", t1, t2, -1, op, 0)
	resp := responseOf(s)
	t0 = time.Now()
	if _, err := json.Marshal(&resp); err != nil {
		return err
	}
	rec.add("codec.response_encode", t0, time.Now(), -1, op, 0)
	return nil
}

// resolveGraph decodes a bare graph and binds it to procs identical
// unit-speed processors with consistent costs, as schedd does with a
// graph request.
func resolveGraph(graph []byte, procs int) (*sched.Instance, error) {
	g, err := dag.ReadJSON(bytes.NewReader(graph))
	if err != nil {
		return nil, err
	}
	speeds := make([]float64, procs)
	for i := range speeds {
		speeds[i] = 1
	}
	sys, err := platform.New(platform.Config{Speeds: speeds, TimePerUnit: 1})
	if err != nil {
		return nil, err
	}
	return sched.Consistent(g, sys), nil
}

// responseOf is the schedd response body for s, without the timing and
// cache fields.
func responseOf(s *sched.Schedule) service.ScheduleResponse {
	in := s.Instance()
	resp := service.ScheduleResponse{
		Algorithm: s.Algorithm(), Makespan: s.Makespan(), SLR: metrics.SLR(s),
		Speedup: metrics.Speedup(s), Efficiency: metrics.Efficiency(s), CommModel: in.CommKind(),
	}
	for q := 0; q < in.P(); q++ {
		for _, a := range s.OnProc(q) {
			resp.Assignments = append(resp.Assignments, service.AssignmentJSON{
				Task: int(a.Task), Name: in.G.Task(a.Task).Name, Proc: a.Proc, Start: a.Start, Finish: a.Finish, Dup: a.Dup,
			})
		}
	}
	return resp
}

// layerMetrics reduces the spans and counters of a traced run to the
// per-layer metrics every workload reports besides the set-up and GC
// ones: the mean wall time of one call into each layer, and the bytes
// each algorithm allocates per task.
func layerMetrics(tr *tracer) []metric {
	msOf := func(name string) float64 { return mean(tr.durations(name)) }
	out := []metric{
		{"sched.rank_upward_ms", msOf("sched.rank_upward")},
		{"sched.static_level_ms", msOf("sched.static_level")},
		{"algo.order_ms", msOf("algo.order")},
	}
	for _, a := range kernelAlgs {
		out = append(out, metric{a.key + ".schedule_ms", msOf(a.key + ".schedule")})
	}
	for _, a := range kernelAlgs {
		out = append(out, metric{a.key + ".alloc_bytes_per_task", ratio(tr.counter(a.key+".alloc_bytes"), tr.counter(a.key+".tasks"))})
	}
	return append(out,
		metric{"codec.instance_decode_us", 1000 * msOf("codec.instance_decode")},
		metric{"codec.graph_resolve_us", 1000 * msOf("codec.graph_resolve")},
		metric{"codec.response_encode_us", 1000 * msOf("codec.response_encode")},
	)
}
