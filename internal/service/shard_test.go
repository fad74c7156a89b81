package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestProbeOutcomes probes peers that answer 404, 500, a 200 that does
// not decode, and nothing before a 50 ms probe deadline. Every probe
// degrades to nil and raises only its own outcome counter: a miss, an
// error, an error and a timeout. Three 500s open the peer's circuit; no
// number of 404s or undecodable 200s does.
func TestProbeOutcomes(t *testing.T) {
	key := strings.Repeat("ab", 32)
	answering := func(status int, body string) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write([]byte(body))
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	stalling := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(stalling.Close)

	// Peers that answer get a deadline no loaded test host reaches.
	const answers, stall = 10 * time.Second, 50 * time.Millisecond
	for _, tc := range []struct {
		name    string
		peer    string
		timeout time.Duration
		calls   int
		outcome int
		opens   bool
	}{
		{"404", answering(http.StatusNotFound, `{"error":"not cached"}`+"\n"), answers, 6, probeMiss, false},
		{"500", answering(http.StatusInternalServerError, `{"error":"boom"}`+"\n"), answers, peerBreakerThreshold, probeError, true},
		{"undecodable 200", answering(http.StatusOK, "not json"), answers, 6, probeError, false},
		{"stall", stalling.URL, stall, 1, probeTimeout, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{ProbeTimeout: tc.timeout})
			for i := 0; i < tc.calls; i++ {
				if resp := s.probePeerCache(context.Background(), tc.peer, key); resp != nil {
					t.Fatalf("probe %d answered %+v, want nil", i, resp)
				}
			}
			s.met.mu.Lock()
			got := s.met.probes
			s.met.mu.Unlock()
			var want [numProbeOutcomes]int64
			want[tc.outcome] = int64(tc.calls)
			if got != want {
				t.Errorf("probe outcomes (hit, miss, timeout, error) = %v, want %v", got, want)
			}
			if _, open := s.peerBrk.allow(tc.peer, peerBreakerThreshold); open != tc.opens {
				t.Errorf("after %d probes the circuit is open = %v, want %v", tc.calls, open, tc.opens)
			}
		})
	}
}
