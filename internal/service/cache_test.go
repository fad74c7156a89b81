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
	"sync"
	"sync/atomic"
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
	inst, graph := poolShapes(b)
	bodies := []struct{ name, body string }{
		{"het-instance", `{"algorithm":"HEFT","instance":` + string(inst) + `}`},
		{"homo-graph", `{"algorithm":"HLFET","graph":` + string(graph) + `,"processors":32}`},
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
			body := []byte(bd.body)
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

// graphBody is a HLFET request for a random n-task graph on 32
// processors: perfbench's homo shape. At n=100 its answer is about 9 KB,
// more than net/http buffers before it falls back to chunking.
func graphBody(t testing.TB, n int) []byte {
	t.Helper()
	g, err := workload.Random(workload.RandomConfig{N: n, Shape: 3}, rand.New(rand.NewSource(int64(n))))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return []byte(`{"algorithm":"HLFET","graph":` + compact.String() + `,"processors":32}`)
}

// roundTrip sends one request to s and returns the whole answer.
func roundTrip(t testing.TB, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	got, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d: %s", method, url, hr.StatusCode, got)
	}
	return hr, got
}

// startInternal starts s on an ephemeral port and returns its base URL;
// s shuts down when the test ends.
func startInternal(t testing.TB, s *Server) string {
	t.Helper()
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return "http://" + addr
}

// TestHitWritesStoredBytes: a digest hit, a peer probe and a key hit
// write the bytes writeJSON writes for the same hit, in one body with
// its Content-Length.
func TestHitWritesStoredBytes(t *testing.T) {
	s := New(Options{Addr: "127.0.0.1:0", Workers: 1})
	base := startInternal(t, s)
	body := graphBody(t, 100)
	roundTrip(t, http.MethodPost, base+"/v1/schedule", body) // computes
	digestHit, digestBytes := roundTrip(t, http.MethodPost, base+"/v1/schedule", body)
	if st := s.cache.Stats(); st.bodyHits != 1 {
		t.Fatalf("cache.bodyHits = %d after a repeat, want 1", st.bodyHits)
	}
	_, keyBytes := roundTrip(t, http.MethodPost, base+"/v1/schedule", append([]byte(" "), body...))
	key := keyOf(t, s, body)
	probe, probeBytes := roundTrip(t, http.MethodGet, base+"/v1/cache/"+key, nil)

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, s.cache.Probe(key).hitResponse())
	want := rec.Body.Bytes()
	if len(want) < 4096 {
		t.Fatalf("the answer is %d bytes; the test needs one that writeJSON chunks", len(want))
	}
	for _, a := range []struct {
		name string
		hr   *http.Response
		got  []byte
	}{{"digest hit", digestHit, digestBytes}, {"probe", probe, probeBytes}, {"key hit", nil, keyBytes}} {
		if !bytes.Equal(a.got, want) {
			t.Errorf("%s wrote\n%s\nwriteJSON writes\n%s", a.name, a.got, want)
		}
		if a.hr == nil {
			continue
		}
		if a.hr.ContentLength != int64(len(want)) || len(a.hr.TransferEncoding) > 0 {
			t.Errorf("%s: Content-Length %d, transfer encoding %v; want length %d, not chunked",
				a.name, a.hr.ContentLength, a.hr.TransferEncoding, len(want))
		}
		if ct := a.hr.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", a.name, ct)
		}
	}
}

// TestHitWritesReplacedResponse: after a put replaces an entry's
// response (here a replica push over a replica copy), the next digest
// hit and probe write the new response, not the bytes of the old one.
func TestHitWritesReplacedResponse(t *testing.T) {
	s := New(Options{Addr: "127.0.0.1:0", Workers: 1})
	base := startInternal(t, s)
	body := graphBody(t, 20)
	key := keyOf(t, s, body)
	// A hit serves what the entry holds; it need not be this body's
	// schedule.
	resp := ScheduleResponse{Algorithm: "HLFET", Makespan: 5, Assignments: []AssignmentJSON{{Task: 0, Proc: 0, Start: 0, Finish: 5}}}
	push := func(runtimeMs float64) {
		resp.RuntimeMs = runtimeMs
		b, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, http.MethodPut, base+"/v1/cache/"+key, b)
	}
	answered := func(b []byte) float64 {
		var r ScheduleResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatalf("decoding %s: %v", b, err)
		}
		if !r.Cached {
			t.Errorf("a hit answered %s, not marked cached", b)
		}
		return r.RuntimeMs
	}
	push(1)
	roundTrip(t, http.MethodPost, base+"/v1/schedule", body) // a key hit attaches the digest
	for _, runtimeMs := range []float64{1, 2, 3} {
		if runtimeMs > 1 {
			push(runtimeMs)
		}
		before := s.cache.Stats().bodyHits
		_, hit := roundTrip(t, http.MethodPost, base+"/v1/schedule", body)
		if s.cache.Stats().bodyHits != before+1 {
			t.Fatal("the repeat was not answered by digest")
		}
		if got := answered(hit); got != runtimeMs {
			t.Errorf("digest hit after the put of runtimeMs %g answered runtimeMs %g", runtimeMs, got)
		}
		if _, probe := roundTrip(t, http.MethodGet, base+"/v1/cache/"+key, nil); answered(probe) != runtimeMs {
			t.Errorf("probe after the put of runtimeMs %g answered %s", runtimeMs, probe)
		}
	}
}

// TestStoredAnswerConcurrentReput hits one entry by digest and by probe
// from several goroutines while another re-puts it. Every hit writes
// the encoding of a response that was stored, no goroutine sees an
// older put after a newer one, and the hit after the last put writes
// the last.
func TestStoredAnswerConcurrentReput(t *testing.T) {
	const key, puts, readers = "k", 200, 4
	answer := func(i int) *storedAnswer {
		return &storedAnswer{resp: &ScheduleResponse{Algorithm: "HEFT", Makespan: 10, RuntimeMs: float64(i),
			Assignments: []AssignmentJSON{{Task: 0, Proc: 1, Start: 0, Finish: 10}}}}
	}
	c := newLRUCache(4)
	d := bodyDigest{1}
	c.Put(key, answer(0))
	c.AttachBody(key, d)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(byProbe bool) {
			defer wg.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				ans := c.Probe(key)
				if !byProbe {
					ans, _, _ = c.GetBody(d)
				}
				b, err := ans.hitBytes()
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := json.Marshal(ans.hitResponse())
				if !bytes.Equal(b, append(want, '\n')) {
					t.Errorf("a hit wrote %s for the stored response %s", b, want)
					return
				}
				var r ScheduleResponse
				if err := json.Unmarshal(b, &r); err != nil {
					t.Error(err)
					return
				}
				if r.RuntimeMs < last {
					t.Errorf("a hit wrote put %g after put %g", r.RuntimeMs, last)
					return
				}
				last = r.RuntimeMs
			}
		}(g%2 == 0)
	}
	for i := 1; i <= puts; i++ {
		c.Put(key, answer(i))
	}
	close(stop)
	wg.Wait()
	ans, _, _ := c.GetBody(d)
	b, err := ans.hitBytes()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`"runtimeMs":%d,`, puts); !bytes.Contains(b, []byte(want)) {
		t.Errorf("the hit after the last put wrote %s, want %s", b, want)
	}
}

// TestPutReplicaLeavesLocalEntry races replica pushes of one key
// against a local Put of it. A local entry is never replaced by a
// replica copy, so once the Put has returned, every later PutReplica
// leaves it alone, and the entry ends local however the two interleave.
func TestPutReplicaLeavesLocalEntry(t *testing.T) {
	const key, rounds = "k", 2000
	replica := &ScheduleResponse{Algorithm: "HEFT", Makespan: 2}
	for round := 0; round < rounds; round++ {
		c := newLRUCache(4)
		var stop atomic.Bool
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			c.PutReplica(key, replica)
			close(started)
			for !stop.Load() {
				c.PutReplica(key, replica)
			}
		}()
		<-started
		c.Put(key, &storedAnswer{resp: &ScheduleResponse{Algorithm: "HEFT", Makespan: 1}})
		stop.Store(true)
		<-done
		if ans, isReplica := c.lookup(key, false); isReplica || ans.resp.Makespan != 1 {
			t.Fatalf("round %d: after a local Put the entry is a replica copy (makespan %g)", round, ans.resp.Makespan)
		}
	}
}
