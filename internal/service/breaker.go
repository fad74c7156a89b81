package service

import (
	"errors"
	"net/http"
	"sync"
	"time"
)

// breaker is one circuit: consecutive server-side failures open it for
// a cooldown, after which one half-open probe may close it again.
type breaker struct {
	failures  int
	openUntil time.Time
}

// breakerSet is a keyed collection of circuit breakers — per algorithm
// in the single-node client, per peer in the multi-node client and in
// the server's cache probes and replica pushes. Thresholds and
// cooldowns are passed per call so a caller whose RetryPolicy is
// mutable keeps its existing semantics.
type breakerSet struct {
	mu sync.Mutex
	m  map[string]*breaker
}

// allow reports whether key's circuit admits a request. An open circuit
// returns open == true with the time left until a half-open probe is
// admitted; a circuit past its cooldown admits one probe.
func (s *breakerSet) allow(key string, threshold int) (wait time.Duration, open bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[key]
	if b == nil || b.failures < threshold {
		return 0, false
	}
	if now := time.Now(); now.Before(b.openUntil) {
		return b.openUntil.Sub(now), true
	}
	return 0, false // half-open: let one probe through
}

// observe feeds one outcome into key's circuit. Server-side failures
// (5xx, transport errors) count against it; a success or a client-side
// rejection (4xx — the far side is healthy) closes it.
func (s *breakerSet) observe(key string, threshold int, cooldown time.Duration, err error) {
	serverFault := err != nil
	var se *StatusError
	if errors.As(err, &se) && se.Status < http.StatusInternalServerError {
		serverFault = false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*breaker)
	}
	b := s.m[key]
	if b == nil {
		b = &breaker{}
		s.m[key] = b
	}
	if !serverFault {
		b.failures = 0
		return
	}
	b.failures++
	if b.failures >= threshold {
		b.openUntil = time.Now().Add(cooldown)
	}
}
