package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/workload"
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

// FuzzRequestBody holds the client's request encoder to json.Marshal:
// appendRequest fails exactly when json.Marshal fails, so its validator
// accepts exactly what json.Valid accepts; otherwise its body is valid
// JSON when json.Marshal's is, the server's decode (decodeFirst into
// scheduleWire) gives the request or the error it gives on
// json.Marshal's body, and decoded as a ScheduleRequest it has equal
// scalars and raw fields equal as JSON values, or fails as
// json.Marshal's body fails.
func FuzzRequestBody(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	g, err := workload.Random(workload.RandomConfig{N: 12, Shape: 1}, rng)
	if err != nil {
		f.Fatal(err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1, LinkSpread: 0.5}, rng)
	if err != nil {
		f.Fatal(err)
	}
	var inst, graph bytes.Buffer
	if err := in.WriteJSON(&inst); err != nil {
		f.Fatal(err)
	}
	if g, err = workload.Random(workload.RandomConfig{N: 12, Shape: 3}, rng); err != nil {
		f.Fatal(err)
	}
	if err := g.WriteJSON(&graph); err != nil {
		f.Fatal(err)
	}
	compact := func(b []byte) []byte {
		var out bytes.Buffer
		if err := json.Compact(&out, b); err != nil {
			f.Fatal(err)
		}
		return out.Bytes()
	}
	small := `{"tasks":[{"id":0,"weight":1}],"edges":[]}`
	// The pool's two shapes, compact as perfbench sends them.
	f.Add(compact(inst.Bytes()), []byte{}, "HEFT", 0, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	f.Add([]byte{}, compact(graph.Bytes()), "HLFET", 32, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	// Whitespace as WriteJSON leaves it, and around a value.
	f.Add(inst.Bytes(), []byte{}, "HEFT", 0, 0.0, 0.0, "one-port", 0.0, true, 0.2, 20, int64(500), "low")
	f.Add([]byte(" \n"+small+"\t "), []byte{}, "HEFT", 0, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	// "<", "&" and U+2028 inside strings, raw and scalar.
	f.Add([]byte{}, []byte(`{"name":"a<b>&c`+"\u2028d\u2028\u2029"+`","tasks":[{"id":0,"name":"<&>","weight":1}],"edges":[]}`),
		"HE<&>FT\u2028", 4, 0.5, 2.0, "shared-link", 3.0, false, 0.0, 0, int64(0), "")
	// A raw value followed by trailing bytes, and other invalid raws.
	f.Add([]byte(small+` trailing`), []byte{}, "HEFT", 0, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	f.Add([]byte{}, []byte(small+`}`), "HEFT", 0, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	f.Add([]byte(` `), []byte(`null`), "HEFT", 0, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	// Both raws, a type error in each, and a number past float64.
	f.Add([]byte(`{"graph":7}`), []byte(`{"tasks":"x"}`), "HEFT", -3, 1e308, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	f.Add([]byte(`"x"`), []byte(`{"tasks":[{"id":0,"weight":1e999}],"edges":[]}`), "", 0, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	// The validator's edges: the nesting limit, escapes, raw bytes json.Valid
	// refuses or accepts, and numbers and literals cut short.
	for _, depth := range []int{maxNesting, maxNesting + 1} {
		nest := []byte(strings.Repeat("[", depth) + strings.Repeat("]", depth))
		f.Add(nest, []byte{}, "HEFT", 0, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	}
	for _, raw := range []string{`"\u12G4"`, "\"a\x01b\"", "{\"name\":\"\xff\xfe\"}", `-`, `01`, `1.`, `1e+`, `tru`} {
		f.Add([]byte{}, []byte(raw), "HEFT", 0, 0.0, 0.0, "", 0.0, false, 0.0, 0, int64(0), "")
	}
	f.Fuzz(func(t *testing.T, inst, graph []byte, alg string, procs int, lat, tpu float64, comm string, bw float64,
		analyze bool, rate float64, samples int, timeoutMs int64, prio string) {
		req := ScheduleRequest{Algorithm: alg, Instance: inst, Graph: graph, Processors: procs, Latency: lat,
			TimePerUnit: tpu, CommModel: comm, LinkBandwidth: bw, Analyze: analyze, TimeoutMs: timeoutMs, Priority: prio}
		if rate != 0 || samples != 0 {
			req.Faults = &FaultsRequest{Rate: rate, Samples: samples}
		}
		got, gotErr := appendRequest(nil, &req)
		want, wantErr := json.Marshal(&req)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("appendRequest error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		// A raw field nested to the limit nests the body one level past
		// it, so neither body is valid JSON, and neither decodes.
		if json.Valid(got) != json.Valid(want) {
			t.Fatalf("appendRequest wrote %.300s, valid %v; json.Marshal's body valid %v", got, json.Valid(got), json.Valid(want))
		}
		gw, gErr := decodeFirst[scheduleWire](got)
		ww, wErr := decodeFirst[scheduleWire](want)
		if (gErr == nil) != (wErr == nil) || gErr != nil && gErr.Error() != wErr.Error() {
			t.Fatalf("the server decodes the body with error %v, json.Marshal's with %v", gErr, wErr)
		}
		if gErr == nil && !reflect.DeepEqual(gw, ww) {
			t.Fatalf("the server decodes the body to %+v, json.Marshal's to %+v", gw, ww)
		}
		var gr, wr ScheduleRequest
		gErr, wErr = json.Unmarshal(got, &gr), json.Unmarshal(want, &wr)
		if (gErr == nil) != (wErr == nil) || gErr != nil && gErr.Error() != wErr.Error() {
			t.Fatalf("decoding the body: %v; json.Marshal's: %v", gErr, wErr)
		}
		if wErr != nil {
			return
		}
		for _, raw := range [][2]json.RawMessage{{gr.Instance, wr.Instance}, {gr.Graph, wr.Graph}} {
			if gv, wv := jsonValue(t, raw[0]), jsonValue(t, raw[1]); !reflect.DeepEqual(gv, wv) {
				t.Fatalf("raw field %s decodes to %v, json.Marshal's %s to %v", raw[0], gv, raw[1], wv)
			}
		}
		gr.Instance, gr.Graph, wr.Instance, wr.Graph = nil, nil, nil, nil
		if !reflect.DeepEqual(gr, wr) {
			t.Fatalf("the body's scalars decode to %+v, json.Marshal's to %+v", gr, wr)
		}
	})
}

// jsonValue decodes one raw JSON value, numbers as written; an absent
// field is nil.
func jsonValue(t *testing.T, raw json.RawMessage) any {
	if len(raw) == 0 {
		return nil
	}
	d := json.NewDecoder(bytes.NewReader(raw))
	d.UseNumber()
	var v any
	if err := d.Decode(&v); err != nil {
		t.Fatalf("decoding raw field %s: %v", raw, err)
	}
	return v
}

// FuzzDecodeAnswer holds decodeInto on a *ScheduleResponse to the
// encoding/json path it replaced: for any body it returns the error and
// the value that json.Unmarshal, then a Decoder when Unmarshal refuses
// the body, return. It decodes into a zero response and into one that
// already holds fields, which a decode keeps unless the body sets them.
// Values compare as json.Marshal writes them, which tells -0 from 0.
// The same bodies hold validJSON to json.Valid.
func FuzzDecodeAnswer(f *testing.F) {
	s := New(Options{Addr: "127.0.0.1:0", Workers: 1})
	base := startInternal(f, s)
	chain := `{"tasks":[{"id":0,"weight":2},{"id":1,"weight":3}],"edges":[{"from":0,"to":1,"data":1}]}`
	miss, hit := answerBytes(f, base, []byte(`{"algorithm":"HEFT","graph":`+chain+`,"processors":2}`))
	f.Add(miss)
	f.Add(hit)
	// A fork whose transfers cost more than its root: ILS duplicates the
	// root. The answer also carries analysis and robustness, and is marked
	// coalesced as a follower's would be.
	fork := `{"tasks":[{"id":0,"weight":1},{"id":1,"weight":4},{"id":2,"weight":4}],"edges":[{"from":0,"to":1,"data":20},{"from":0,"to":2,"data":20}]}`
	_, full := answerBytes(f, base, []byte(`{"algorithm":"ILS","graph":`+fork+`,"processors":2,"analyze":true,"faults":{"rate":0.5,"samples":2}}`))
	var r ScheduleResponse
	if err := json.Unmarshal(full, &r); err != nil {
		f.Fatal(err)
	}
	if r.Analysis == nil || r.Robustness == nil || !slices.ContainsFunc(r.Assignments, func(a AssignmentJSON) bool { return a.Dup }) {
		f.Fatalf("the fork's answer lacks a duplicate, analysis or robustness: %s", full)
	}
	r.Coalesced = true
	var coalesced bytes.Buffer
	if err := json.NewEncoder(&coalesced).Encode(&r); err != nil {
		f.Fatal(err)
	}
	f.Add(coalesced.Bytes())
	// Near misses, each a change to the hit.
	h := string(hit)
	for _, c := range [][2]string{
		{`"name":"t0"`, `"name":"t\u003c1"`}, // "<" as encoding/json writes it
		{`"name":"t0"`, `"name":"tä"`},
		{`"makespan"`, `"Makespan"`},
		{`{"algorithm"`, `{"slr":9,"algorithm"`},
		{`"assignments":[`, `"assignments":null,"x":[`},
		{`"algorithm":"HEFT"`, `"algorithm":null`},
		{`"makespan":5`, `"makespan":1e999`},
		{`"task":1`, `"task":1.0`},
		{`"start":0`, `"start":-0`},
		{`"duplicates":0`, `"duplicates":-0`},
		{"}\n", `} {"makespan":9} trailing`},
	} {
		if !strings.Contains(h, c[0]) {
			f.Fatalf("the hit %s lacks %s", h, c[0])
		}
		f.Add([]byte(strings.Replace(h, c[0], c[1], 1)))
	}
	if err := s.Shutdown(context.Background()); err != nil {
		f.Fatal(err)
	}
	prefilled := func() ScheduleResponse {
		return ScheduleResponse{Algorithm: "X", Makespan: 1, Cached: true, Assignments: []AssignmentJSON{},
			Analysis: &AnalysisJSON{Critical: []int{1}}}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, want := validJSON(body), json.Valid(body); got != want {
			t.Fatalf("validJSON %v, json.Valid %v", got, want)
		}
		for _, dst := range []func() ScheduleResponse{func() ScheduleResponse { return ScheduleResponse{} }, prefilled} {
			got, want := dst(), dst()
			gotErr := decodeInto(body, &got)
			wantErr := json.Unmarshal(body, &want)
			if wantErr != nil {
				wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&want)
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("decodeInto error %v, encoding/json error %v", gotErr, wantErr)
			}
			gj, gErr := json.Marshal(&got)
			wj, wErr := json.Marshal(&want)
			if gErr != nil || wErr != nil || !bytes.Equal(gj, wj) {
				t.Fatalf("decodeInto gave %s (%v), encoding/json %s (%v)", gj, gErr, wj, wErr)
			}
		}
	})
}

// FuzzDecodeRequest holds decodeInto on a *scheduleWire to the
// encoding/json path it replaced: for any body it returns the error text
// and the value that json.Unmarshal, then a Decoder when Unmarshal
// refuses the body, return. Values compare bit for bit (-0 is not 0, a
// nil slice is not an empty one). It decodes into a zero request, whose
// embedded raw fields must stay nil, into one whose scalars are already
// set, which a decode keeps unless the body sets them, and into one whose
// problem is set, which the scanner leaves to encoding/json.
func FuzzDecodeRequest(f *testing.F) {
	// The client's bodies for the pool's two shapes, cut to 2–3 KB: the
	// fuzzer minimises each new input, and a 30 KB one keeps it there.
	// TestRequestsTakeTheScanner runs the full size. Below 24 tasks the
	// homo graph has no edges.
	inst, _ := shapesOf(f, 6)
	_, graph := shapesOf(f, 24)
	f.Add(clientBody(f, ScheduleRequest{Algorithm: "HEFT", Instance: inst}))
	f.Add(clientBody(f, ScheduleRequest{Algorithm: "HLFET", Graph: graph, Processors: 32}))
	small := `{"name":"g","tasks":[{"id":0,"name":"t0","weight":2.5},{"id":1,"name":"t1","weight":3}],"edges":[{"from":0,"to":1,"data":1.25}]}`
	f.Add(clientBody(f, ScheduleRequest{Algorithm: "HEFT", Graph: []byte(small), Faults: &FaultsRequest{Rate: 0.5, Samples: 2}}))
	het := string(clientBody(f, ScheduleRequest{Algorithm: "HEFT", Processors: 2, Latency: 0.5, TimePerUnit: 2,
		CommModel: "shared-link", LinkBandwidth: 3, Analyze: true, TimeoutMs: 500, Priority: "low",
		Instance: []byte(`{"graph":` + small + `,"system":{"speeds":[1,2],"startup":[[0,0.5],[0.5,0]],` +
			`"invRate":[[0,1],[1,0]]},"costs":[[2.5,1.25],[3,1.5]],"version":1}`)}))
	f.Add([]byte(het))
	// Near misses, each a change to the small instance's body.
	for _, c := range [][2]string{
		{`"algorithm"`, `"Algorithm"`},
		{`"costs":`, `"costs":[[1,2]],"costs":`},
		{`{"graph":{`, `{"graph":null,"x":{`},
		{`"id":1`, `"id":1.0`},
		{`"weight":2.5`, `"weight":1e999`},
		{`"t0"`, `"t\u003c0"`},
		{`"t0"`, `"tä"`},
		{`"weight":3`, `"weight":-0`},
		{`"latency":0.5`, `"latency":-0`},
		{`"id":0`, `"id":-0`},
		{`"tasks":[{"id":0,"name":"t0","weight":2.5},{"id":1,"name":"t1","weight":3}]`, `"tasks":[]`},
		{`"costs":[[2.5,1.25],[3,1.5]]`, `"costs":[[]]`},
		{`"version":1`, `"version":1,"extra":{}`},
		{`"version":1}}`, `"version":1}} {"algorithm":"X"} trailing`},
	} {
		if !strings.Contains(het, c[0]) {
			f.Fatalf("the body %s lacks %s", het, c[0])
		}
		f.Add([]byte(strings.Replace(het, c[0], c[1], 1)))
	}
	dsts := []func() scheduleWire{
		func() scheduleWire { return scheduleWire{} },
		func() scheduleWire {
			return scheduleWire{ScheduleRequest: ScheduleRequest{Algorithm: "X", Processors: 3, Latency: math.Copysign(0, -1),
				Analyze: true, Faults: &FaultsRequest{Rate: 0.5}, Instance: json.RawMessage(`{}`)}}
		},
		func() scheduleWire { return scheduleWire{Instance: &sched.InstanceJSON{Version: 7}} },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for d, dst := range dsts {
			got, want := dst(), dst()
			gotErr := decodeInto(body, &got)
			wantErr := json.Unmarshal(body, &want)
			if wantErr != nil {
				wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&want)
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("destination %d: decodeInto error %v, encoding/json error %v", d, gotErr, wantErr)
			}
			if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Fatalf("destination %d: decodeInto gave %+v, encoding/json %+v", d, got, want)
			}
			if d == 0 && (got.ScheduleRequest.Instance != nil || got.ScheduleRequest.Graph != nil) {
				t.Fatalf("decodeInto set a raw field: %+v", got.ScheduleRequest)
			}
		}
	})
}

// sameBits reports whether a and b hold the same value bit for bit:
// floats compare by their bits, so -0 is not 0, and a nil pointer or
// slice is not a zero or empty one.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("sameBits: no comparison for " + a.Type().String())
}
