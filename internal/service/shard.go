package service

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// hdrShardOwner names the ring owner of the request's canonical hash
// on every /v1/schedule response from a ring member. It is the only
// way to learn a key's owner from outside the node.
const hdrShardOwner = "X-Shard-Owner"

// Peer circuit parameters: a peer that fails this many consecutive
// probes or replica pushes is skipped for the cooldown, so a dead node
// costs one connection timeout per cooldown instead of per request.
const (
	peerBreakerThreshold = 3
	peerBreakerCooldown  = 3 * time.Second
)

// shardState is the immutable ring view of one configuration epoch;
// Server.shard swaps it atomically so request paths read a consistent
// (self, ring) pair without locking.
type shardState struct {
	self string
	ring *hashRing
}

// shardPtr wraps the atomic pointer so a nil load means "sharding off".
type shardPtr = atomic.Pointer[shardState]

// ConfigurePeers places this node on a consistent-hash ring with
// peers (base URLs, self included). Fewer than two distinct peers
// leaves the node standalone. Safe to call while serving: in-flight
// requests finish under the configuration they started with. The
// static list is only the starting membership — once configured, the
// heartbeat loop and the /v1/ring surface let nodes join, leave, die
// and rejoin without reconfiguring anything (see member.go).
func (s *Server) ConfigurePeers(self string, peers []string) error {
	return s.member.configureStatic(self, peers)
}

// ConfigureJoin points this node at a running ring member instead of a
// static peer list: the membership loop announces the join to seed
// (retrying until it answers) and adopts the cluster view it returns.
func (s *Server) ConfigureJoin(self, seed string) error {
	return s.member.configureJoin(self, seed)
}

// probePeerCache asks one peer whether it already has key's result — a
// cheap GET against its cache, never a computation. Any failure
// (circuit open, timeout, malformed body) degrades to a miss; timeouts
// are counted separately from true misses, since a fleet whose probes
// time out needs a bigger -probe-timeout, not a warmer cache.
func (s *Server) probePeerCache(ctx context.Context, peer, key string) *ScheduleResponse {
	if _, open := s.peerBrk.allow(peer, peerBreakerThreshold); open {
		return nil
	}
	pctx, cancel := context.WithTimeout(ctx, s.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/v1/cache/"+key, nil)
	if err != nil {
		return nil
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		if pctx.Err() != nil && ctx.Err() == nil {
			s.met.ObserveProbe(probeTimeout)
		} else {
			s.met.ObserveProbe(probeError)
		}
		s.peerBrk.observe(peer, peerBreakerThreshold, peerBreakerCooldown, err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		var obs error // a 404 means healthy-but-cold, not broken
		if resp.StatusCode != http.StatusNotFound {
			obs = &StatusError{Method: http.MethodGet, Path: "/v1/cache/", Status: resp.StatusCode}
			s.met.ObserveProbe(probeError)
		} else {
			s.met.ObserveProbe(probeMiss)
		}
		s.peerBrk.observe(peer, peerBreakerThreshold, peerBreakerCooldown, obs)
		return nil
	}
	s.peerBrk.observe(peer, peerBreakerThreshold, peerBreakerCooldown, nil)
	var out *ScheduleResponse
	body, err := readAll(io.LimitReader(resp.Body, s.opts.MaxBodyBytes), resp.ContentLength)
	if err == nil {
		out, err = decodeFirst[ScheduleResponse](body)
	}
	if err != nil {
		s.met.ObserveProbe(probeError)
		return nil
	}
	s.met.ObserveProbe(probeHit)
	return out
}

// probeReplicas walks key's holder set — owner first, then its
// replication successors — probing each peer's cache until one
// answers. With replication disabled the set is just the owner; with
// it, a dead owner's keyspace is still one probe away at its
// successors.
func (s *Server) probeReplicas(ctx context.Context, sh *shardState, key string) *ScheduleResponse {
	for _, peer := range replicaHolders(sh, key, s.opts.Replication) {
		if peer == sh.self {
			continue
		}
		if resp := s.probePeerCache(ctx, peer, key); resp != nil {
			return resp
		}
		if ctx.Err() != nil {
			return nil
		}
	}
	return nil
}

// handleCache serves the peer-cache surface:
//
//	GET /v1/cache/{hash} — the probe. Only ever reads this node's LRU;
//	a probe can never trigger a computation, which is what keeps the
//	tiered lookup cheap. It counts no cache hit or miss here: the
//	probing node counted the lookup. A hit writes the entry's stored
//	answer, the bytes a digest hit writes.
//	PUT /v1/cache/{hash} — a replication push or handoff: the body (a
//	ScheduleResponse) is stored as a replica copy, its cached and
//	coalesced marks cleared. The body is read whole under MaxBodyBytes
//	and within DefaultTimeout, like a /v1/schedule body.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
	if !validCacheKey(key) {
		writeError(w, http.StatusBadRequest, "malformed cache key")
		return
	}
	switch r.Method {
	case http.MethodGet:
		if ans := s.cache.Probe(key); ans != nil {
			writeHit(w, ans)
			return
		}
		writeError(w, http.StatusNotFound, "not cached")
	case http.MethodPut:
		var resp *ScheduleResponse
		body, err := readBody(w, r, s.opts.MaxBodyBytes, s.opts.DefaultTimeout)
		if err == nil {
			resp, err = decodeFirst[ScheduleResponse](body)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "decoding replica entry: %v", err)
			return
		}
		if resp.Algorithm == "" {
			writeError(w, http.StatusBadRequest, "replica entry missing algorithm")
			return
		}
		resp.Cached, resp.Coalesced = false, false
		s.cache.PutReplica(key, resp)
		s.met.ObserveReplicaStore()
		writeJSON(w, http.StatusOK, map[string]string{"status": "stored"})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or PUT only")
	}
}

// validCacheKey recognises the sha256-hex form cacheKey produces.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
