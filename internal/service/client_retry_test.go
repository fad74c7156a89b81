package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dagsched/internal/service"
)

// fastRetry keeps test backoffs in the microsecond range.
func fastRetry() *service.RetryPolicy {
	return &service.RetryPolicy{
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       4 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * time.Millisecond,
	}
}

// TestClientRetries503 exercises the happy retry path: two 503s then a
// 200 must succeed transparently, having hit the server exactly three
// times.
func TestClientRetries503(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"queue full"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"algorithm":"HEFT","makespan":80,"assignments":[]}`))
	}))
	defer ts.Close()
	c := &service.Client{BaseURL: ts.URL, Retry: fastRetry()}
	resp, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "HEFT"})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if resp.Makespan != 80 {
		t.Fatalf("response %+v", resp)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("server hit %d times, want 3", n)
	}
}

// TestClientDoesNotRetryClientErrors: a 400 means the request itself is
// wrong; retrying it would just repeat the rejection.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"missing algorithm name"}`))
	}))
	defer ts.Close()
	c := &service.Client{BaseURL: ts.URL, Retry: fastRetry()}
	_, err := c.Schedule(context.Background(), service.ScheduleRequest{})
	var se *service.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("got %v, want HTTP 400", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("400 retried: server hit %d times", n)
	}
}

// decodeFlip answers its first request with an answer that does not
// decode (a string makespan) but carries an analysis, and every later
// one with a plain HEFT answer. It counts the requests in hits.
func decodeFlip(hits *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if hits.Add(1) == 1 {
			_, _ = w.Write([]byte(`{"algorithm":"OLD","makespan":"x","analysis":{"critical":[1]}}`))
			return
		}
		_, _ = w.Write([]byte(`{"algorithm":"HEFT","makespan":7,"assignments":[]}`))
	}
}

// TestClientDecodeErrorIsFinal: an answer that arrives whole but does
// not decode is returned at once. A retry would decode the next answer
// into the value the failed decode wrote to, and return a merge of the
// two answers.
func TestClientDecodeErrorIsFinal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(decodeFlip(&hits))
	defer ts.Close()
	pol := fastRetry()
	pol.MaxAttempts = 2
	c := &service.Client{BaseURL: ts.URL, Retry: pol}
	resp, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "HEFT"})
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) {
		t.Fatalf("got %+v, %v; want the decode error", resp, err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server hit %d times, want 1", n)
	}
}

// TestRingFailsOverOnDecodeError: in ring mode an answer that does not
// decode still fails over to the next peer, whose answer decodes into a
// fresh value.
func TestRingFailsOverOnDecodeError(t *testing.T) {
	var hits atomic.Int64
	a, b := httptest.NewServer(decodeFlip(&hits)), httptest.NewServer(decodeFlip(&hits))
	defer a.Close()
	defer b.Close()
	c := &service.Client{Peers: []string{a.URL, b.URL}, Retry: fastRetry()}
	resp, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "HEFT"})
	if err != nil || resp.Algorithm != "HEFT" || resp.Makespan != 7 || resp.Analysis != nil {
		t.Fatalf("got %+v, %v; want the second peer's answer alone", resp, err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("peers hit %d times, want 2", n)
	}
}

// TestClientRetryRespectsContext: cancellation during backoff must end
// the retry loop promptly with the last observed error.
func TestClientRetryRespectsContext(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"queue full"}`))
	}))
	defer ts.Close()
	c := &service.Client{BaseURL: ts.URL, Retry: &service.RetryPolicy{
		MaxAttempts: 10, BaseBackoff: time.Hour, MaxBackoff: time.Hour,
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT"})
	if err == nil {
		t.Fatal("succeeded against an always-503 server")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("retry loop ignored context cancellation (took %s)", time.Since(start))
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("server hit %d times before the deadline, want 1", n)
	}
}

// TestClientCircuitBreaker: repeated server-side failures for one
// algorithm open its circuit (fail fast, no traffic), other algorithms
// keep flowing, and the cooldown admits a probe that closes the circuit
// once the server recovers.
func TestClientCircuitBreaker(t *testing.T) {
	var hits atomic.Int64
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if healthy.Load() {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"algorithm":"HEFT","makespan":80,"assignments":[]}`))
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"scheduler exploded"}`))
	}))
	defer ts.Close()
	pol := fastRetry()
	pol.MaxAttempts = 1 // isolate the breaker from the retry loop
	c := &service.Client{BaseURL: ts.URL, Retry: pol}
	ctx := context.Background()

	for i := 0; i < pol.BreakerThreshold; i++ {
		if _, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT"}); err == nil {
			t.Fatalf("failure %d unexpectedly succeeded", i)
		}
	}
	before := hits.Load()
	_, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT"})
	if !errors.Is(err, service.ErrCircuitOpen) {
		t.Fatalf("got %v, want ErrCircuitOpen", err)
	}
	if hits.Load() != before {
		t.Fatal("open circuit still sent traffic")
	}

	// A different algorithm has its own circuit.
	healthy.Store(true)
	if _, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "ILS"}); err != nil {
		t.Fatalf("independent algorithm blocked: %v", err)
	}

	// After the cooldown, one probe goes through and closes the circuit.
	time.Sleep(pol.BreakerCooldown + 20*time.Millisecond)
	if _, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT"}); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT"}); err != nil {
		t.Fatalf("closed circuit rejected traffic: %v", err)
	}
}

// TestRingCircuitOpenOnEveryPeer: once every peer's circuit is open,
// Schedule and ScheduleBatch both fail fast with ErrCircuitOpen and send
// no scheduling traffic.
func TestRingCircuitOpenOnEveryPeer(t *testing.T) {
	var posts atomic.Int64
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	a, b := httptest.NewServer(down), httptest.NewServer(down)
	defer a.Close()
	defer b.Close()
	pol := fastRetry()
	pol.BreakerCooldown = time.Minute
	c := &service.Client{Peers: []string{a.URL, b.URL}, Retry: pol}
	ctx := context.Background()
	req := service.ScheduleRequest{Algorithm: "HEFT"}
	for i := 0; i < pol.BreakerThreshold; i++ {
		if _, err := c.Schedule(ctx, req); err == nil || errors.Is(err, service.ErrCircuitOpen) {
			t.Fatalf("call %d: got %v, want a 503 from the last peer", i, err)
		}
	}
	before := posts.Load()
	if _, err := c.Schedule(ctx, req); !errors.Is(err, service.ErrCircuitOpen) {
		t.Fatalf("Schedule: got %v, want ErrCircuitOpen", err)
	}
	if _, err := c.ScheduleBatch(ctx, service.BatchRequest{Items: []service.ScheduleRequest{req}}); !errors.Is(err, service.ErrCircuitOpen) {
		t.Fatalf("ScheduleBatch: got %v, want ErrCircuitOpen", err)
	}
	if n := posts.Load() - before; n != 0 {
		t.Fatalf("open circuits still sent %d requests", n)
	}
}
