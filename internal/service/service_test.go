package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/sched"
	"dagsched/internal/service"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// slowAlg blocks for delay (or until cancellation) before delegating to
// HEFT, counting how many runs started and how many ran to completion.
type slowAlg struct {
	name        string
	delay       time.Duration
	starts      atomic.Int64
	completions atomic.Int64
}

func (s *slowAlg) Name() string { return s.name }

func (s *slowAlg) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return s.ScheduleContext(context.Background(), in)
}

func (s *slowAlg) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	s.starts.Add(1)
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, fmt.Errorf("%s: %w", s.name, ctx.Err())
	case <-t.C:
	}
	sch, err := listsched.HEFT{}.Schedule(in)
	if err != nil {
		return nil, err
	}
	s.completions.Add(1)
	return sch, nil
}

var _ algo.CtxScheduler = (*slowAlg)(nil)

// startServer launches a server on an ephemeral port and returns a
// client bound to it. The server is shut down when the test ends.
func startServer(t *testing.T, opts service.Options) (*service.Server, *service.Client) {
	t.Helper()
	opts.Addr = "127.0.0.1:0"
	s := service.New(opts)
	addr, err := s.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, &service.Client{BaseURL: "http://" + addr}
}

func instanceJSON(t *testing.T, in *sched.Instance) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestEndToEndConcurrentMixed hammers a 2-worker server with 40
// concurrent requests mixing algorithms, instance and graph payloads and
// the analyze option; every one must succeed. A second identical round
// must be served from the cache, and /metrics must reflect all of it.
func TestEndToEndConcurrentMixed(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 2, QueueDepth: 64, CacheSize: 128})

	inst := instanceJSON(t, testfix.Topcuoglu())
	g, err := workload.ForkJoin(3, 2)
	if err != nil {
		t.Fatalf("ForkJoin: %v", err)
	}
	var gbuf bytes.Buffer
	if err := g.WriteJSON(&gbuf); err != nil {
		t.Fatalf("graph WriteJSON: %v", err)
	}
	graph := json.RawMessage(gbuf.Bytes())

	instAlgs := []string{"HEFT", "CPOP", "ILS", "DLS", "HCPT", "PETS", "DSH", "BTDH"}
	graphAlgs := []string{"MCP", "ETF", "HLFET", "ISH"}
	var reqs []service.ScheduleRequest
	for i := 0; i < 24; i++ {
		reqs = append(reqs, service.ScheduleRequest{
			Algorithm: instAlgs[i%len(instAlgs)],
			Instance:  inst,
			Analyze:   i%3 == 0,
		})
	}
	for i := 0; i < 16; i++ {
		reqs = append(reqs, service.ScheduleRequest{
			Algorithm:  graphAlgs[i%len(graphAlgs)],
			Graph:      graph,
			Processors: 2 + i%3,
			Analyze:    i%2 == 0,
		})
	}
	if len(reqs) < 32 {
		t.Fatalf("want >= 32 mixed requests, built %d", len(reqs))
	}

	run := func() []*service.ScheduleResponse {
		out := make([]*service.ScheduleResponse, len(reqs))
		errs := make([]error, len(reqs))
		var wg sync.WaitGroup
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i], errs[i] = c.Schedule(context.Background(), reqs[i])
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("request %d (%s): %v", i, reqs[i].Algorithm, err)
			}
		}
		return out
	}

	for i, resp := range run() {
		if resp.Makespan <= 0 {
			t.Errorf("request %d: makespan %v, want > 0", i, resp.Makespan)
		}
		if len(resp.Assignments) == 0 {
			t.Errorf("request %d: no assignments", i)
		}
		if reqs[i].Analyze && resp.Analysis == nil {
			t.Errorf("request %d: analyze requested but no analysis returned", i)
		}
		if !reqs[i].Analyze && resp.Analysis != nil {
			t.Errorf("request %d: unexpected analysis", i)
		}
	}

	// Identical round: every response must now come from the cache.
	for i, resp := range run() {
		if !resp.Cached {
			t.Errorf("repeat request %d (%s): not served from cache", i, reqs[i].Algorithm)
		}
	}

	if err := c.Health(context.Background()); err != nil {
		t.Errorf("healthz: %v", err)
	}
	names, err := c.Algorithms(context.Background())
	if err != nil || len(names) == 0 {
		t.Errorf("algorithms: %v (%d names)", err, len(names))
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Requests.Total < int64(2*len(reqs)) {
		t.Errorf("requests.total = %d, want >= %d", m.Requests.Total, 2*len(reqs))
	}
	if m.Cache.Hits == 0 || m.Cache.HitRate <= 0 {
		t.Errorf("cache hits = %d, hit rate = %v; want > 0 after repeated requests", m.Cache.Hits, m.Cache.HitRate)
	}
	if m.Queue.Workers != 2 {
		t.Errorf("queue.workers = %d, want 2", m.Queue.Workers)
	}
	if m.LatencyMs.Count == 0 {
		t.Errorf("latency histogram empty")
	}
	hs, ok := m.Algorithms["HEFT"]
	if !ok || hs.Count == 0 {
		t.Fatalf("metrics missing HEFT accumulators: %+v", m.Algorithms)
	}
	if hs.Makespan.Min == nil || hs.Makespan.Max == nil {
		t.Errorf("HEFT makespan min/max should be set after %d runs", hs.Count)
	}
	// The cache-tier breakdown must account for every scheduling item:
	// first round misses, repeat round hits the local tier; this
	// unsharded node never touches the peer tier.
	if m.Cache.Tier.Local == 0 || m.Cache.Tier.Miss == 0 {
		t.Errorf("cache tier breakdown = %+v; want local and miss > 0 after a cached repeat round", m.Cache.Tier)
	}
	if m.Cache.Tier.Peer != 0 {
		t.Errorf("cache.tier.peer = %d on a single node, want 0", m.Cache.Tier.Peer)
	}
	if m.Shard.Enabled {
		t.Errorf("shard.enabled on an unsharded server")
	}
	if m.Batch.SizeHistogram.Buckets == nil {
		t.Errorf("batch size histogram absent from /metrics")
	}
}

// TestDeadlineAbortsPromptly submits a request whose deadline expires
// mid-run; the response must arrive promptly (long before the
// algorithm's natural runtime) and the run must never complete.
func TestDeadlineAbortsPromptly(t *testing.T) {
	slow := &slowAlg{name: "slow", delay: 30 * time.Second}
	_, c := startServer(t, service.Options{
		Workers: 1,
		Resolver: func(name string) (algo.Algorithm, error) {
			return slow, nil
		},
	})

	start := time.Now()
	_, err := c.Schedule(context.Background(), service.ScheduleRequest{
		Algorithm: "slow",
		Instance:  instanceJSON(t, testfix.Topcuoglu()),
		TimeoutMs: 100,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("want deadline error, got success")
	}
	if !strings.Contains(err.Error(), "HTTP 504") {
		t.Errorf("want HTTP 504, got: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("deadline response took %v, want prompt return", elapsed)
	}
	if n := slow.completions.Load(); n != 0 {
		t.Errorf("algorithm ran to completion %d times despite expired deadline", n)
	}
}

// TestExpiredWhileQueued occupies the single worker, then submits a
// short-deadline request that expires in the queue: it must be answered
// without the algorithm ever starting.
func TestExpiredWhileQueued(t *testing.T) {
	blocker := &slowAlg{name: "blocker", delay: 700 * time.Millisecond}
	victim := &slowAlg{name: "victim", delay: 0}
	algs := map[string]*slowAlg{"blocker": blocker, "victim": victim}
	_, c := startServer(t, service.Options{
		Workers: 1,
		Resolver: func(name string) (algo.Algorithm, error) {
			a, ok := algs[name]
			if !ok {
				return nil, fmt.Errorf("unknown %q", name)
			}
			return a, nil
		},
	})

	inst := instanceJSON(t, testfix.Topcuoglu())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "blocker", Instance: inst}); err != nil {
			t.Errorf("blocker request: %v", err)
		}
	}()
	// Let the blocker reach the worker before queueing the victim.
	deadline := time.Now().Add(2 * time.Second)
	for blocker.starts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "victim", Instance: inst, TimeoutMs: 50})
	if err == nil || !strings.Contains(err.Error(), "HTTP 504") {
		t.Errorf("queued victim: want HTTP 504, got: %v", err)
	}
	wg.Wait()
	if n := victim.starts.Load(); n != 0 {
		t.Errorf("victim algorithm started %d times despite expiring in the queue", n)
	}
}

// TestShutdownDrainsInFlight verifies graceful shutdown: requests in
// flight (running and queued) when Shutdown is called all complete.
func TestShutdownDrainsInFlight(t *testing.T) {
	slow := &slowAlg{name: "slow", delay: 300 * time.Millisecond}
	s, c := startServer(t, service.Options{
		Workers: 2,
		Resolver: func(name string) (algo.Algorithm, error) {
			return slow, nil
		},
		// Distinct cache keys per request come from distinct algorithm
		// names; caching stays on to exercise the full path.
	})

	inst := instanceJSON(t, testfix.Topcuoglu())
	const inflight = 4
	errs := make([]error, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Schedule(context.Background(), service.ScheduleRequest{
				Algorithm: fmt.Sprintf("slow-%d", i),
				Instance:  inst,
			})
		}(i)
	}
	// Wait until the pool is saturated (2 running, 2 queued).
	deadline := time.Now().Add(2 * time.Second)
	for slow.starts.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never picked up jobs")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight request %d failed across shutdown: %v", i, err)
		}
	}
	if n := slow.completions.Load(); n != inflight {
		t.Errorf("completions = %d, want %d (drain must finish queued work)", n, inflight)
	}
}

// TestOverloadAnswers503 floods a 1-worker, 1-deep queue: the overflow
// must be rejected immediately with 503 rather than piling up.
func TestOverloadAnswers503(t *testing.T) {
	slow := &slowAlg{name: "slow", delay: 400 * time.Millisecond}
	_, c := startServer(t, service.Options{
		Workers:    1,
		QueueDepth: 1,
		Resolver: func(name string) (algo.Algorithm, error) {
			return slow, nil
		},
	})
	// The client retries 503s by default, which would mask the raw
	// overload surface this test pins down.
	c.Retry = &service.RetryPolicy{MaxAttempts: 1}

	inst := instanceJSON(t, testfix.Topcuoglu())
	const n = 6
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Schedule(context.Background(), service.ScheduleRequest{
				Algorithm: fmt.Sprintf("slow-%d", i),
				Instance:  inst,
			})
		}(i)
	}
	wg.Wait()
	var ok, rejected int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case strings.Contains(err.Error(), "queue full"):
			rejected++
		default:
			t.Errorf("unexpected error under overload: %v", err)
		}
	}
	if rejected == 0 {
		t.Errorf("no request was rejected with queue full (%d ok)", ok)
	}
	if ok == 0 {
		t.Errorf("no request succeeded under overload")
	}
}

// TestRequestValidation covers the 4xx paths.
func TestRequestValidation(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	inst := instanceJSON(t, testfix.Topcuoglu())

	graph := json.RawMessage(`{"tasks":[{"id":0,"weight":2},{"id":1,"weight":3}],"edges":[{"from":0,"to":1,"data":1}]}`)

	cases := []struct {
		name string
		req  service.ScheduleRequest
		want string
	}{
		{"unknown algorithm", service.ScheduleRequest{Algorithm: "NOPE", Instance: inst}, "HTTP 400"},
		{"no payload", service.ScheduleRequest{Algorithm: "HEFT"}, "HTTP 400"},
		{"missing algorithm", service.ScheduleRequest{Instance: inst}, "HTTP 400"},
		// Two P×P link matrices at 4096 processors take 256 MiB: a body
		// of a few hundred bytes must not get that far.
		{"processors over the cap", service.ScheduleRequest{Algorithm: "HEFT", Graph: graph, Processors: 4096}, "HTTP 400"},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Schedule(context.Background(), tc.req)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want %s, got: %v", tc.name, tc.want, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: the request allocated %d bytes, want < 1 MiB", tc.name, alloc)
		}
	}

	resp, err := http.Get(c.BaseURL + "/v1/schedule")
	if err != nil {
		t.Fatalf("GET /v1/schedule: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/schedule: status %d, want 405", resp.StatusCode)
	}
}
