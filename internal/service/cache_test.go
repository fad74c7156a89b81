package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"dagsched/internal/sched"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// keyOf resolves one request body and returns its cache key.
func keyOf(t *testing.T, s *Server, body []byte) string {
	t.Helper()
	var req scheduleWire
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	_, in, err := s.resolveRequest(&req)
	if err != nil {
		t.Fatalf("resolving %s: %v", body, err)
	}
	key, err := cacheKey(in, req.Algorithm, req.Analyze, req.LinkBandwidth, req.Faults)
	if err != nil {
		t.Fatalf("cacheKey: %v", err)
	}
	if !validCacheKey(key) {
		t.Fatalf("cacheKey %q is not the 64-char hex form", key)
	}
	return key
}

// expanded returns the instance request a bare graph request resolves
// to, written by Instance.WriteJSON.
func expanded(t *testing.T, s *Server, graphReq []byte) []byte {
	t.Helper()
	var req scheduleWire
	if err := json.Unmarshal(graphReq, &req); err != nil {
		t.Fatal(err)
	}
	_, in, err := s.resolveRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return []byte(`{"algorithm":"HEFT","instance":` + buf.String() + `}`)
}

// TestCacheKeyIdentity pins what the cache key is a function of: the
// parsed problem and the options, not the bytes they arrived in.
func TestCacheKeyIdentity(t *testing.T) {
	s := New(Options{CacheSize: -1})
	var indented bytes.Buffer
	if err := testfix.Topcuoglu().WriteJSON(&indented); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	instReq := func(inst []byte, extra string) []byte {
		return []byte(`{"algorithm":"HEFT","instance":` + string(inst) + extra + `}`)
	}
	// mutated returns the base instance with one value changed.
	mutated := func(edit func(*sched.InstanceJSON)) []byte {
		var ij sched.InstanceJSON
		if err := json.Unmarshal(indented.Bytes(), &ij); err != nil {
			t.Fatal(err)
		}
		edit(&ij)
		out, err := json.Marshal(&ij)
		if err != nil {
			t.Fatal(err)
		}
		return instReq(out, "")
	}
	graph := `{"tasks":[{"id":0,"weight":2},{"id":1,"weight":3},{"id":2,"weight":1.5}],` +
		`"edges":[{"from":0,"to":1,"data":1},{"from":0,"to":2,"data":2.5}]}`
	graphReq := func(lat, tpu float64) []byte {
		return []byte(fmt.Sprintf(`{"algorithm":"HEFT","graph":%s,"processors":3,"latency":%v,"timePerUnit":%v}`, graph, lat, tpu))
	}

	type pair struct {
		name string
		a, b []byte
	}
	same := []pair{{"indented and compact instance", instReq(indented.Bytes(), ""), instReq(compact.Bytes(), "")}}
	for _, l := range [][2]float64{{0, 1}, {1, 0.3}, {0.7, 2.9}} {
		g := graphReq(l[0], l[1])
		same = append(same, pair{fmt.Sprintf("graph at latency %v, timePerUnit %v and its expanded instance", l[0], l[1]), g, expanded(t, s, g)})
	}
	for _, tc := range same {
		if ka, kb := keyOf(t, s, tc.a), keyOf(t, s, tc.b); ka != kb {
			t.Errorf("%s: keys differ: %s vs %s", tc.name, ka, kb)
		}
	}

	base := instReq(compact.Bytes(), "")
	baseKey := keyOf(t, s, base)
	different := []struct {
		name string
		body []byte
	}{
		{"algorithm", bytes.Replace(base, []byte(`"HEFT"`), []byte(`"CPOP"`), 1)},
		{"analyze", instReq(compact.Bytes(), `,"analyze":true`)},
		{"commModel", instReq(compact.Bytes(), `,"commModel":"one-port"`)},
		{"linkBandwidth", instReq(compact.Bytes(), `,"commModel":"shared-link","linkBandwidth":2`)},
		{"faults", instReq(compact.Bytes(), `,"faults":{"rate":0.1}`)},
		{"one task name", mutated(func(ij *sched.InstanceJSON) { ij.Graph.Tasks[3].Name = "renamed" })},
		{"one cost", mutated(func(ij *sched.InstanceJSON) { ij.Costs[2][1]++ })},
		{"one link value", mutated(func(ij *sched.InstanceJSON) { ij.System.InvRate[0][1] += 0.5 })},
	}
	for _, tc := range different {
		if k := keyOf(t, s, tc.body); k == baseKey {
			t.Errorf("changing the %s left the key unchanged", tc.name)
		}
	}
	if keyOf(t, s, instReq(compact.Bytes(), `,"commModel":"shared-link"`)) ==
		keyOf(t, s, instReq(compact.Bytes(), `,"commModel":"shared-link","linkBandwidth":2`)) {
		t.Error("changing linkBandwidth under shared-link left the key unchanged")
	}
}

// TestUniformPlatformRequestsStaySmall pins the cost of a large uniform
// platform declared by a small body: resolving and keying it stays
// O(P), and the request is served.
func TestUniformPlatformRequestsStaySmall(t *testing.T) {
	s := New(Options{Addr: "127.0.0.1:0", Workers: 1})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	graph := `{"tasks":[{"id":0,"weight":2},{"id":1,"weight":3}],"edges":[{"from":0,"to":1,"data":1}]}`
	row := func(v string) string { return "[" + v + strings.Repeat(","+v, maxProcessors-1) + "]" }
	cases := []struct{ name, body string }{
		{"graph on 512 processors", `{"algorithm":"HEFT","graph":` + graph + `,"processors":512}`},
		{"instance declaring 512 speeds and no link matrices",
			`{"algorithm":"HEFT","instance":{"graph":` + graph + `,"system":{"speeds":` + row("1") + `},"costs":[` + row("2") + `,` + row("3") + `]}}`},
	}
	for _, tc := range cases {
		var req scheduleWire
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, in, err := s.resolveRequest(&req)
		if err == nil {
			_, err = cacheKey(in, req.Algorithm, req.Analyze, req.LinkBandwidth, req.Faults)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: resolving and keying allocated %d bytes, want < 1 MiB", tc.name, alloc)
		}
		rec := httptest.NewRecorder()
		s.handleSchedule(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(tc.body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
		}
	}
}

// TestBodyLimitWithoutLength: a body sent without a Content-Length is
// held to the limit as a whole, even when its first JSON value fits.
func TestBodyLimitWithoutLength(t *testing.T) {
	const limit = 4096
	s := New(Options{Addr: "127.0.0.1:0", Workers: 1, MaxBodyBytes: limit})
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	body := `{"algorithm":"HEFT","graph":{"tasks":[{"id":0,"weight":2}],"edges":[]}}`
	for _, tc := range []struct {
		pad  int
		want int
	}{{limit - len(body), http.StatusOK}, {limit, http.StatusBadRequest}} {
		// A MultiReader has no length httptest could set.
		rd := io.MultiReader(strings.NewReader(body), strings.NewReader(strings.Repeat(" ", tc.pad)))
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", rd)
		if req.ContentLength != -1 {
			t.Fatalf("ContentLength = %d, want unknown", req.ContentLength)
		}
		rec := httptest.NewRecorder()
		s.handleSchedule(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%d bytes: status %d (%s), want %d", len(body)+tc.pad, rec.Code, rec.Body, tc.want)
		}
		if tc.want == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "decoding request: http: request body too large") {
			t.Errorf("%d bytes: %s, want request body too large", len(body)+tc.pad, rec.Body)
		}
	}
}

// TestReadBodyHeldToWhatArrives: a declared Content-Length reserves at
// most maxPresize, so a request that declares the whole limit and sends
// a few bytes costs about what it sent, while a body of the usual size
// is read into one buffer of its length. The bounds allow each buffer
// twice: under -race the compiler keeps the temporary that bytes.Buffer
// grows through.
func TestReadBodyHeldToWhatArrives(t *testing.T) {
	const limit = 32 << 20
	const usual = 192 << 10
	for _, tc := range []struct {
		name     string
		declared int64
		body     string
		maxAlloc uint64
	}{
		{"declares the limit, sends 20 bytes", limit, `{"algorithm":"HEFT"}`, 4 * maxPresize},
		{"192 KiB with its length", usual, strings.Repeat(" ", usual), 5 * usual / 2},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(tc.body))
		req.ContentLength = tc.declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readBody(httptest.NewRecorder(), req, limit, time.Second)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.body {
			t.Errorf("%s: read %d bytes, want %d", tc.name, len(got), len(tc.body))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > tc.maxAlloc {
			t.Errorf("%s: reading allocated %d bytes, want at most %d", tc.name, alloc, tc.maxAlloc)
		}
	}
}

// BenchmarkScheduleHandler serves the two request shapes of perfbench's
// service workload through handleSchedule: a heterogeneous n=100, P=8
// instance under HEFT and a bare n=100 graph on 32 processors under
// HLFET. "hit" repeats one request against a warm cache; "miss" runs
// with the cache off, so every request schedules on the worker pool.
func BenchmarkScheduleHandler(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := workload.Random(workload.RandomConfig{N: 100, Shape: 1}, rng)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1, LinkSpread: 0.5}, rng)
	if err != nil {
		b.Fatal(err)
	}
	var inst bytes.Buffer
	if err := in.WriteJSON(&inst); err != nil {
		b.Fatal(err)
	}
	if g, err = workload.Random(workload.RandomConfig{N: 100, Shape: 3}, rng); err != nil {
		b.Fatal(err)
	}
	var graph bytes.Buffer
	if err := g.WriteJSON(&graph); err != nil {
		b.Fatal(err)
	}
	bodies := []struct{ name, body string }{
		{"het-instance", `{"algorithm":"HEFT","instance":` + inst.String() + `}`},
		{"homo-graph", `{"algorithm":"HLFET","graph":` + graph.String() + `,"processors":32}`},
	}
	for _, mode := range []struct {
		name  string
		cache int
	}{{"hit", 0}, {"miss", -1}} {
		s := New(Options{Addr: "127.0.0.1:0", Workers: 1, CacheSize: mode.cache})
		if _, err := s.Start(); err != nil {
			b.Fatal(err)
		}
		for _, bd := range bodies {
			var compact bytes.Buffer
			if err := json.Compact(&compact, []byte(bd.body)); err != nil {
				b.Fatal(err)
			}
			body := compact.Bytes()
			serve := func() {
				rec := httptest.NewRecorder()
				s.handleSchedule(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			b.Run(mode.name+"/"+bd.name, func(b *testing.B) {
				serve() // warms the cache in hit mode
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serve()
				}
			})
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.Shutdown(ctx)
		cancel()
	}
}
