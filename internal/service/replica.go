package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"
)

// Cache replication. Sharding (PR 8) gave every cache key one owner;
// this layer gives it R successor replicas so an owner's death no
// longer cold-starts its keyspace. Three mechanisms, all asynchronous
// and all best-effort (the cache is a cache — losing a replica costs a
// recompute, never correctness):
//
//   - push on compute: after a node computes and caches a result, it
//     PUTs the entry to the other holders of the key (the first R+1
//     nodes of the key's ring successor list). Whoever computed —
//     owner, or a non-owner that fell back when the owner was down —
//     the copies land at the nodes lookups will consult.
//   - hinted handoff: a push that fails (peer down, circuit open) is
//     queued with the target peer as the hint; a bounded retrier
//     re-delivers once the failure detector judges the peer alive
//     again, dropping entries after handoffMaxAttempts.
//   - anti-entropy sweep: when a peer joins or rises from the dead,
//     every node walks its own cache (bounded by sweepMaxEntries,
//     hottest first) and hands the rejoining node the entries it
//     should hold — so a rejoined node's keyspace is warm again within
//     one sweep instead of one cache-miss at a time.
const (
	// handoffMaxQueue bounds the hinted-handoff queue; beyond it the
	// oldest hints are dropped (counted in /metrics).
	handoffMaxQueue = 1024
	// handoffMaxAttempts bounds re-delivery tries per hint.
	handoffMaxAttempts = 8
	// sweepMaxEntries bounds one anti-entropy sweep, hottest entries
	// first (LRU order), so a giant cache cannot stall the ring.
	sweepMaxEntries = 256
)

// handoffEntry is one undelivered replica write hinted to a peer, with
// the entry's response already encoded.
type handoffEntry struct {
	peer     string
	key      string
	body     []byte
	attempts int
}

// replicator owns replica pushes, the hinted-handoff queue and the
// anti-entropy sweep of one Server.
type replicator struct {
	s *Server

	mu    sync.Mutex
	queue []handoffEntry

	startOnce sync.Once
}

func newReplicator(s *Server) *replicator {
	return &replicator{s: s}
}

// start launches the handoff retrier (idempotent; called when the
// membership loop starts — replication is meaningless standalone).
func (r *replicator) start() {
	r.startOnce.Do(func() {
		r.s.workers.Add(1)
		go r.loop()
	})
}

func (r *replicator) loop() {
	defer r.s.workers.Done()
	t := time.NewTicker(r.s.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-r.s.quit:
			return
		case <-t.C:
			r.retryHandoffs()
		}
	}
}

// replicaHolders lists the nodes that should hold key under sh's ring:
// the owner plus the next r distinct successors. With replication off
// (r == 0) that is just the owner — exactly the PR 8 probe target.
func replicaHolders(sh *shardState, key string, r int) []string {
	succ := sh.ring.successors(key)
	if len(succ) > r+1 {
		succ = succ[:r+1]
	}
	return succ
}

// replicate pushes a freshly computed entry to the other holders of
// its key. The body is the entry's hit answer, so one encoding serves
// every holder and the hits on this node; a holder stores it unmarked
// (see handleCache). Fire-and-forget: the computing request waits on
// neither the encoding nor the pushes.
func (s *Server) replicate(key string, ans *storedAnswer) {
	if s.opts.Replication <= 0 {
		return
	}
	sh := s.shard.Load()
	if sh == nil {
		return
	}
	go func() {
		body, err := ans.hitBytes()
		if err != nil {
			return // no holder could store what does not encode
		}
		for _, peer := range replicaHolders(sh, key, s.opts.Replication) {
			if peer != sh.self {
				go s.repl.pushOne(peer, key, body)
			}
		}
	}()
}

// pushOne PUTs one entry to one peer, falling back to the hinted-
// handoff queue on failure. A peer with an open circuit is not even
// dialed — the hint waits for the detector's verdict instead.
func (r *replicator) pushOne(peer, key string, body []byte) {
	if _, open := r.s.peerBrk.allow(peer, peerBreakerThreshold); open {
		r.s.met.ObserveReplicaPush(false)
		r.enqueue(peer, key, body)
		return
	}
	err := r.put(peer, key, body)
	r.s.peerBrk.observe(peer, peerBreakerThreshold, peerBreakerCooldown, err)
	r.s.met.ObserveReplicaPush(err == nil)
	if err != nil {
		r.enqueue(peer, key, body)
	}
}

// put performs one replica PUT of an encoded response, bounded by the
// probe timeout.
func (r *replicator) put(peer, key string, body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.s.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+"/v1/cache/"+key, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := r.s.peerClient.Do(req)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	_, _ = io.Copy(io.Discard, hr.Body)
	if hr.StatusCode != http.StatusOK && hr.StatusCode != http.StatusNoContent {
		return &StatusError{Method: http.MethodPut, Path: "/v1/cache/", Status: hr.StatusCode}
	}
	return nil
}

// enqueue parks one undelivered write on the handoff queue, dropping
// the oldest hint when full.
func (r *replicator) enqueue(peer, key string, body []byte) {
	r.mu.Lock()
	if len(r.queue) >= handoffMaxQueue {
		r.queue = r.queue[1:]
		r.s.met.ObserveHandoff(handoffDropped)
	}
	r.queue = append(r.queue, handoffEntry{peer: peer, key: key, body: body})
	r.mu.Unlock()
	r.s.met.ObserveHandoff(handoffQueued)
}

// retryHandoffs re-delivers hints whose peer the failure detector
// currently judges alive. Hints to still-dead peers wait (their
// attempt budget is only spent on real tries); hints that exhaust
// handoffMaxAttempts are dropped.
func (r *replicator) retryHandoffs() {
	standalone := r.s.shard.Load() == nil
	r.mu.Lock()
	pending := r.queue
	r.queue = nil
	r.mu.Unlock()
	if len(pending) == 0 {
		return
	}
	var keep []handoffEntry
	for _, h := range pending {
		if standalone || !r.s.member.isAlive(h.peer) {
			keep = append(keep, h) // wait for the detector, free of charge
			continue
		}
		err := r.put(h.peer, h.key, h.body)
		r.s.met.ObserveReplicaPush(err == nil)
		if err == nil {
			r.s.met.ObserveHandoff(handoffDelivered)
			continue
		}
		h.attempts++
		if h.attempts >= handoffMaxAttempts {
			r.s.met.ObserveHandoff(handoffDropped)
			continue
		}
		keep = append(keep, h)
	}
	if len(keep) > 0 {
		r.mu.Lock()
		r.queue = append(keep, r.queue...)
		r.mu.Unlock()
	}
}

// sweepFor reconciles a joined or rejoined peer: walk this node's
// cache (hottest first, bounded) and queue every entry the peer should
// hold under the current ring. Delivery rides the handoff retrier, so
// a sweep toward a peer that dies again simply waits.
func (r *replicator) sweepFor(peer string) {
	if r.s.opts.Replication <= 0 {
		return
	}
	sh := r.s.shard.Load()
	if sh == nil || peer == sh.self {
		return
	}
	entries := r.s.cache.Snapshot(sweepMaxEntries)
	queued := 0
	for _, e := range entries {
		if !slices.Contains(replicaHolders(sh, e.key, r.s.opts.Replication), peer) {
			continue
		}
		body, err := e.ans.hitBytes()
		if err != nil {
			continue
		}
		r.enqueue(peer, e.key, body)
		queued++
	}
	if queued > 0 {
		r.s.met.ObserveSweep(queued)
	}
}

// handoff hands this node's cache off before a graceful leave: every
// entry is queued to its owner under the post-leave ring (computed by
// the caller after the ring swap) and the queue is flushed bounded by
// ctx. Best-effort — a peer that is down just misses the parting gift.
func (r *replicator) handoffOnLeave(ctx context.Context, sh *shardState) {
	if sh == nil {
		return
	}
	for _, e := range r.s.cache.Snapshot(sweepMaxEntries) {
		if ctx.Err() != nil {
			return
		}
		owner := sh.ring.owner(e.key)
		if owner == "" || owner == sh.self {
			continue
		}
		body, err := e.ans.hitBytes()
		if err == nil {
			err = r.put(owner, e.key, body)
		}
		r.s.met.ObserveReplicaPush(err == nil)
	}
}
