package service_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/service"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// TestBatchOrderAndPartialFailure posts a batch mixing valid items, an
// unknown algorithm and a malformed instance: the envelope answers 200,
// results come back in request order, valid items succeed and broken
// ones carry their own 400 without poisoning siblings.
func TestBatchOrderAndPartialFailure(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 2, QueueDepth: 32})
	inst := instanceJSON(t, testfix.Topcuoglu())

	breq := service.BatchRequest{Items: []service.ScheduleRequest{
		{Algorithm: "HEFT", Instance: inst},
		{Algorithm: "no-such-algorithm", Instance: inst},
		{Algorithm: "CPOP", Instance: inst, Analyze: true},
		{Algorithm: "HEFT", Instance: []byte(`{"broken":true}`)},
		{Algorithm: "HEFT", Instance: inst}, // identical to item 0: cache or coalesce
	}}
	resp, err := c.ScheduleBatch(context.Background(), breq)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	if len(resp.Items) != len(breq.Items) {
		t.Fatalf("got %d results for %d items", len(resp.Items), len(breq.Items))
	}
	for i, it := range resp.Items {
		if it.Index != i {
			t.Errorf("result %d carries index %d; order must be preserved", i, it.Index)
		}
	}
	wantStatus := []int{200, 400, 200, 400, 200}
	for i, want := range wantStatus {
		if resp.Items[i].Status != want {
			t.Errorf("item %d: status %d (error %q), want %d", i, resp.Items[i].Status, resp.Items[i].Error, want)
		}
	}
	if resp.Succeeded != 3 || resp.Failed != 2 {
		t.Errorf("succeeded/failed = %d/%d, want 3/2", resp.Succeeded, resp.Failed)
	}
	if !strings.Contains(resp.Items[1].Error, "no-such-algorithm") {
		t.Errorf("item 1 error %q does not name the unknown algorithm", resp.Items[1].Error)
	}
	if resp.Items[0].Response == nil || resp.Items[0].Response.Makespan <= 0 {
		t.Errorf("item 0 has no usable schedule: %+v", resp.Items[0].Response)
	}
	if resp.Items[2].Response.Analysis == nil {
		t.Errorf("item 2 requested analyze but got none")
	}
	if r := resp.Items[4].Response; r == nil || r.Makespan != resp.Items[0].Response.Makespan {
		t.Errorf("identical items 0 and 4 disagree: %+v vs %+v", resp.Items[0].Response, r)
	}
}

// TestBatchFansOutAcrossWorkers pins the perf property of the batch
// endpoint: independent items run concurrently on the pool, so 4 slow
// items on 4 workers take ~1 delay, not 4.
func TestBatchFansOutAcrossWorkers(t *testing.T) {
	slow := &slowAlg{name: "slow", delay: 200 * time.Millisecond}
	_, c := startServer(t, service.Options{
		Workers:    4,
		QueueDepth: 16,
		Resolver:   func(string) (algo.Algorithm, error) { return slow, nil },
	})
	inst := instanceJSON(t, testfix.Topcuoglu())
	var items []service.ScheduleRequest
	for i := 0; i < 4; i++ {
		// Distinct algorithm names make distinct cache keys, so nothing
		// coalesces and every item really runs.
		items = append(items, service.ScheduleRequest{Algorithm: fmt.Sprintf("slow-%d", i), Instance: inst})
	}
	start := time.Now()
	resp, err := c.ScheduleBatch(context.Background(), service.BatchRequest{Items: items})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("ScheduleBatch: %v", err)
	}
	if resp.Failed != 0 {
		t.Fatalf("failed items: %+v", resp.Items)
	}
	if n := slow.starts.Load(); n != 4 {
		t.Errorf("ran %d schedules, want 4 distinct", n)
	}
	if limit := 3 * slow.delay; elapsed >= limit {
		t.Errorf("4 items on 4 workers took %s, want < %s (sequential would be %s)", elapsed, limit, 4*slow.delay)
	}
}

// TestBatchValidation covers the envelope-level 400s and the size cap.
func TestBatchValidation(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1, MaxBatchItems: 4})
	inst := instanceJSON(t, testfix.Topcuoglu())

	if _, err := c.ScheduleBatch(context.Background(), service.BatchRequest{}); err == nil ||
		!strings.Contains(err.Error(), "empty batch") {
		t.Errorf("empty batch: want 400 empty-batch error, got %v", err)
	}
	var items []service.ScheduleRequest
	for i := 0; i < 5; i++ {
		items = append(items, service.ScheduleRequest{Algorithm: "HEFT", Instance: inst})
	}
	if _, err := c.ScheduleBatch(context.Background(), service.BatchRequest{Items: items}); err == nil ||
		!strings.Contains(err.Error(), "limit") {
		t.Errorf("oversized batch: want 400 limit error, got %v", err)
	}
}

// TestBatchBodyLimitCoversTrailingBytes: the body limit bounds a batch
// body as a whole, as it bounds a /v1/schedule body, whether or not the
// client declares its length; under the limit, bytes after the first
// JSON value are ignored.
func TestBatchBodyLimitCoversTrailingBytes(t *testing.T) {
	const limit = 4096
	_, c := startServer(t, service.Options{Workers: 1, MaxBodyBytes: limit})
	envelope := `{"items":[{"algorithm":"HEFT","graph":{"tasks":[{"id":0,"weight":2}],"edges":[]}}]}`
	post := func(size int, sized bool) (int, string) {
		body := envelope + strings.Repeat(" ", size-len(envelope))
		var rd io.Reader = strings.NewReader(body)
		if !sized {
			rd = io.MultiReader(rd) // no length to declare: sent chunked
		}
		resp, err := http.Post(c.BaseURL+"/v1/schedule/batch", "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(got)
	}
	for _, sized := range []bool{true, false} {
		if status, got := post(limit, sized); status != http.StatusOK {
			t.Errorf("sized=%v: a batch of exactly the limit answered %d: %s", sized, status, got)
		}
		status, got := post(8275, sized)
		if status != http.StatusBadRequest || !strings.Contains(got, "decoding batch: http: request body too large") {
			t.Errorf("sized=%v: an 8275-byte batch under a %d-byte limit answered %d: %s, want 400 request body too large", sized, limit, status, got)
		}
	}
}

// TestBatchMetrics asserts the /metrics surface the batch endpoint
// feeds: request/item counters and the size histogram.
func TestBatchMetrics(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 2})
	inst := instanceJSON(t, testfix.Topcuoglu())
	for _, size := range []int{1, 3} {
		var items []service.ScheduleRequest
		for i := 0; i < size; i++ {
			items = append(items, service.ScheduleRequest{Algorithm: "HEFT", Instance: inst, Analyze: i%2 == 0})
		}
		if _, err := c.ScheduleBatch(context.Background(), service.BatchRequest{Items: items}); err != nil {
			t.Fatalf("batch of %d: %v", size, err)
		}
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.Batch.Count != 2 || snap.Batch.Items != 4 {
		t.Errorf("batch count/items = %d/%d, want 2/4", snap.Batch.Count, snap.Batch.Items)
	}
	if len(snap.Batch.SizeHistogram.Buckets) == 0 {
		t.Fatalf("batch size histogram missing")
	}
	last := snap.Batch.SizeHistogram.Buckets[len(snap.Batch.SizeHistogram.Buckets)-1]
	if last.Count != 2 {
		t.Errorf("size histogram cumulative tail = %d, want 2", last.Count)
	}
	for i := 1; i < len(snap.Batch.SizeHistogram.Buckets); i++ {
		if snap.Batch.SizeHistogram.Buckets[i].Count < snap.Batch.SizeHistogram.Buckets[i-1].Count {
			t.Errorf("size histogram not cumulative at bucket %d: %+v", i, snap.Batch.SizeHistogram.Buckets)
		}
	}
}

// BenchmarkBatchEndpoint measures batch round-trip throughput over real
// HTTP: one 64-item batch of distinct instances per iteration.
func BenchmarkBatchEndpoint(b *testing.B) {
	opts := service.Options{Workers: 0, QueueDepth: 256, CacheSize: -1, Addr: "127.0.0.1:0"}
	s := service.New(opts)
	addr, err := s.Start()
	if err != nil {
		b.Fatalf("Start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	c := &service.Client{BaseURL: "http://" + addr}

	const items = 64
	rng := rand.New(rand.NewSource(1))
	var breq service.BatchRequest
	for i := 0; i < items; i++ {
		g, err := workload.Random(workload.RandomConfig{N: 40}, rng)
		if err != nil {
			b.Fatalf("Random: %v", err)
		}
		in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 3, CCR: 1, Beta: 0.5}, rng)
		if err != nil {
			b.Fatalf("MakeInstance: %v", err)
		}
		var sb strings.Builder
		if err := in.WriteJSON(&sb); err != nil {
			b.Fatalf("WriteJSON: %v", err)
		}
		breq.Items = append(breq.Items, service.ScheduleRequest{Algorithm: "HEFT", Instance: []byte(sb.String())})
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.ScheduleBatch(context.Background(), breq)
		if err != nil {
			b.Fatalf("ScheduleBatch: %v", err)
		}
		if resp.Failed != 0 {
			b.Fatalf("%d items failed", resp.Failed)
		}
	}
	b.ReportMetric(float64(b.N*items)/b.Elapsed().Seconds(), "items/s")
}
