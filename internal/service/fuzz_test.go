package service

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// FuzzScheduleRequest asserts the /v1/schedule request decoder never
// panics and that anything it accepts is a coherent scheduling problem:
// a resolvable algorithm, 1 to maxProcessors processors, a task, a
// registered communication-model kind, no NaN or negative communication
// cost (the decoder must reject poisoned payloads rather than hand them
// to the schedulers), and a hashable cache identity that survives the
// problem's re-encoding: written with Instance.WriteJSON and resolved
// as an instance request, it keys the same.
func FuzzScheduleRequest(f *testing.F) {
	graph := `{"tasks":[{"id":0,"weight":1},{"id":1,"weight":2}],"edges":[{"from":0,"to":1,"data":3}]}`
	// Seed corpus: valid requests under every model, plus near-misses on
	// each new field.
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `}`))
	f.Add([]byte(`{"algorithm":"ILS","graph":` + graph + `,"commModel":"one-port"}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"commModel":"contention-free"}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"commModel":"shared-link","linkBandwidth":0.5}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"commModel":"shared-link","linkBandwidth":-1}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"commModel":"shared-link","linkBandwidth":1e999}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"commModel":"one-port","linkBandwidth":2}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"commModel":"bogus"}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"processors":-3,"latency":1e308,"timePerUnit":1e308}`))
	f.Add([]byte(`{"algorithm":"HEFT","instance":{"graph":` + graph + `,"system":{"speeds":[1,1]}}}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"faults":{"rate":0.3,"samples":5,"policy":"auto"}}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"faults":{"plan":{"crashes":[{"proc":1,"at":2}]}}}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"faults":{"plan":{"crashes":[{"proc":99,"at":2}]}}}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"faults":{"rate":7,"policy":"bogus"}}`))
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `,"faults":{}}`))
	f.Add([]byte(`{"algorithm":"HEFT"}`))
	f.Add([]byte(`{"algorithm":"NOPE","graph":` + graph + `}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	s := New(Options{CacheSize: -1})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req scheduleWire
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		a, in, err := s.resolveRequest(&req)
		if err != nil {
			return
		}
		if a == nil || in == nil {
			t.Fatal("accepted request with nil parts")
		}
		if in.P() < 1 || in.P() > maxProcessors || in.N() < 1 {
			t.Fatalf("accepted degenerate or oversized problem: P=%d N=%d", in.P(), in.N())
		}
		kind := in.CommKind()
		known := false
		for _, k := range platform.ModelKinds() {
			known = known || k == kind
		}
		if !known {
			t.Fatalf("accepted unknown comm-model kind %q", kind)
		}
		for p := 0; p < in.P(); p++ {
			for q := 0; q < in.P(); q++ {
				if c := in.CommCost(p, q, 1); math.IsNaN(c) || c < 0 {
					t.Fatalf("comm cost (%d,%d) = %g under %q", p, q, c, kind)
				}
			}
		}
		if f := req.Faults; f != nil {
			if f.Plan == nil && f.Rate == 0 {
				t.Fatal("accepted empty faults block")
			}
			if f.Rate < 0 || f.Rate > 1 || f.Samples < 0 || f.Samples > maxFaultSamples {
				t.Fatalf("accepted out-of-range faults block %+v", f)
			}
		}
		key, err := cacheKey(in, a.Name(), req.Analyze, req.LinkBandwidth, req.Faults)
		if err != nil {
			t.Fatalf("cacheKey: %v", err)
		}
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted problem: %v", err)
		}
		expanded := scheduleWire{ScheduleRequest: req.ScheduleRequest, Instance: new(sched.InstanceJSON)}
		if err := json.Unmarshal(buf.Bytes(), expanded.Instance); err != nil {
			t.Fatalf("decoding the written instance: %v", err)
		}
		_, back, err := s.resolveRequest(&expanded)
		if err != nil {
			t.Fatalf("the written instance is rejected: %v", err)
		}
		if k, err := cacheKey(back, a.Name(), req.Analyze, req.LinkBandwidth, req.Faults); err != nil || k != key {
			t.Fatalf("re-encoded problem keys %s (err %v), want %s", k, err, key)
		}
	})
}

// FuzzDecodeFirst holds the miss path's decode to a json.Decoder's
// first-value semantics: for any body, decodeFirst returns the request
// and the error a Decoder returns, whether or not bytes follow the
// first value.
func FuzzDecodeFirst(f *testing.F) {
	graph := `{"tasks":[{"id":0,"weight":1}],"edges":[]}`
	f.Add([]byte(`{"algorithm":"HEFT","graph":` + graph + `}`))
	f.Add([]byte(` {"algorithm":"HEFT","graph":` + graph + `,"analyze":true}` + "\n"))
	f.Add([]byte(`{"algorithm":"HEFT"}{"algorithm":"CPOP"}`))
	f.Add([]byte(`{"algorithm":"HEFT"} trailing`))
	f.Add([]byte(`{"algorithm":"HEFT","processors":"8"}`))
	f.Add([]byte(`{"algorithm":"HEFT","instance":{"graph":` + graph + `,"system":{"speeds":[1]}}}`))
	f.Add([]byte(`7`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeFirst[scheduleWire](body)
		var want scheduleWire
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("decodeFirst error %v, Decoder error %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(*got, want) {
			t.Fatalf("decodeFirst decoded %+v, Decoder %+v", *got, want)
		}
	})
}
