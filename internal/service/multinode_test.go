package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/service"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// startCluster launches n in-process nodes on ephemeral ports and joins
// them into one consistent-hash ring. Returns the servers and their
// base URLs (ring identities).
func startCluster(t *testing.T, n int, opts service.Options) ([]*service.Server, []string) {
	t.Helper()
	servers := make([]*service.Server, n)
	urls := make([]string, n)
	for i := range servers {
		o := opts
		o.Addr = "127.0.0.1:0"
		servers[i] = service.New(o)
		addr, err := servers[i].Start()
		if err != nil {
			t.Fatalf("node %d Start: %v", i, err)
		}
		urls[i] = "http://" + addr
	}
	for i, s := range servers {
		if err := s.ConfigurePeers(urls[i], urls); err != nil {
			t.Fatalf("node %d ConfigurePeers: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = s.Shutdown(ctx)
			cancel()
		}
	})
	return servers, urls
}

// postSchedule sends one raw /v1/schedule request and decodes the body,
// returning the response headers for shard assertions.
func postSchedule(t *testing.T, base string, req service.ScheduleRequest) (*service.ScheduleResponse, http.Header) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("POST %s: HTTP %d: %s", base, resp.StatusCode, buf.String())
	}
	var out service.ScheduleResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &out, resp.Header
}

// scheduleDigest is the part of a response that must be identical no
// matter which ring node answered.
func scheduleDigest(t *testing.T, r *service.ScheduleResponse) string {
	t.Helper()
	data, err := json.Marshal(struct {
		Makespan    float64                  `json:"makespan"`
		SLR         float64                  `json:"slr"`
		Assignments []service.AssignmentJSON `json:"assignments"`
	}{r.Makespan, r.SLR, r.Assignments})
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	return string(data)
}

// TestMultiNodeRouting runs a 3-node ring: every entry node must
// answer each algorithm with the single-node reference schedule, all
// nodes must name the same owner (X-Shard-Owner), and a repeat at the
// same entry node must come back from the cache.
func TestMultiNodeRouting(t *testing.T) {
	_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32})
	_, ref := startServer(t, service.Options{Workers: 2}) // single-node reference

	inst := instanceJSON(t, testfix.Topcuoglu())
	for _, alg := range []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS"} {
		req := service.ScheduleRequest{Algorithm: alg, Instance: inst}
		refResp, err := ref.Schedule(context.Background(), req)
		if err != nil {
			t.Fatalf("reference %s: %v", alg, err)
		}
		want := scheduleDigest(t, refResp)

		var owner string
		for i, base := range urls {
			resp, hdr := postSchedule(t, base, req)
			if got := scheduleDigest(t, resp); got != want {
				t.Errorf("%s via node %d: schedule differs from single-node reference", alg, i)
			}
			o := hdr.Get("X-Shard-Owner")
			if o == "" {
				t.Fatalf("%s via node %d: no X-Shard-Owner header", alg, i)
			}
			if owner == "" {
				owner = o
			} else if o != owner {
				t.Errorf("%s: node %d names owner %q, earlier nodes %q — ring views disagree", alg, i, o, owner)
			}
			again, _ := postSchedule(t, base, req)
			if !again.Cached {
				t.Errorf("%s via node %d: repeat not served from cache", alg, i)
			}
			if scheduleDigest(t, again) != want {
				t.Errorf("%s via node %d: cached repeat differs from single-node reference", alg, i)
			}
		}
	}
}

// TestMultiNodePeerCacheHit pins the middle cache tier: a query whose
// key another node owns and has cached is answered from that node's
// cache via the /v1/cache probe instead of recomputing, whether it
// arrives as a single request or as a batch item. Replication is
// disabled: a pushed replica would turn the probe into a local hit,
// which is exactly what this test must not conflate (replica.go has
// its own tests).
func TestMultiNodePeerCacheHit(t *testing.T) {
	inst := instanceJSON(t, testfix.Topcuoglu())
	for _, tc := range []struct {
		name  string
		query func(t *testing.T, c *service.Client, req service.ScheduleRequest) *service.ScheduleResponse
	}{
		{"single", func(t *testing.T, c *service.Client, req service.ScheduleRequest) *service.ScheduleResponse {
			resp, _ := postSchedule(t, c.BaseURL, req)
			return resp
		}},
		{"batch item", func(t *testing.T, c *service.Client, req service.ScheduleRequest) *service.ScheduleResponse {
			bresp, err := c.ScheduleBatch(context.Background(), service.BatchRequest{Items: []service.ScheduleRequest{req}})
			if err != nil {
				t.Fatalf("batch via %s: %v", c.BaseURL, err)
			}
			if bresp.Failed != 0 {
				t.Fatalf("batch item failed: %+v", bresp.Items)
			}
			return bresp.Items[0].Response
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32, Replication: -1})
			req := service.ScheduleRequest{Algorithm: "HEFT", Instance: inst}

			// Learn the owner through node 0, then warm the owner itself
			// (a no-op when node 0 is the owner). The probe node is one
			// that has never seen the key.
			_, hdr := postSchedule(t, urls[0], req)
			owner := hdr.Get("X-Shard-Owner")
			warm, _ := postSchedule(t, owner, req)
			probe := ""
			for _, u := range urls {
				if u != owner && u != urls[0] && probe == "" {
					probe = u
				}
			}
			if probe == "" {
				t.Fatalf("owner %q not among cluster URLs %v", owner, urls)
			}

			c := &service.Client{BaseURL: probe}
			resp := tc.query(t, c, req)
			if !resp.Cached {
				t.Errorf("answer not served from cache (cached=%v)", resp.Cached)
			}
			if scheduleDigest(t, resp) != scheduleDigest(t, warm) {
				t.Errorf("peer-cache schedule differs from the owner's")
			}
			snap, err := c.Metrics(context.Background())
			if err != nil {
				t.Fatalf("Metrics: %v", err)
			}
			if snap.Cache.Tier.Peer != 1 {
				t.Errorf("probe node cache.tier.peer = %d, want 1 (the query must have probed the owner)", snap.Cache.Tier.Peer)
			}
			if n := computeCount(snap); n != 0 {
				t.Errorf("probe node computed %d schedules, want 0", n)
			}
			if !snap.Shard.Enabled || snap.Shard.Self != probe {
				t.Errorf("shard snapshot = %+v, want enabled with self %q", snap.Shard, probe)
			}
		})
	}
}

// TestPeerProbeCountsOneLookup: a request answered from a peer's cache
// counts one cache lookup over the whole ring, the miss on the node it
// entered. The probe it sends counts neither a hit nor a miss on the
// holder, so the ring's hit rate counts requests, not probes.
func TestPeerProbeCountsOneLookup(t *testing.T) {
	_, urls := startCluster(t, 2, service.Options{Workers: 1, Replication: -1})
	lookups := func() int64 {
		var n int64
		for _, u := range urls {
			snap := snapshot(t, u)
			n += snap.Cache.Hits + snap.Cache.Misses
		}
		return n
	}
	// Find a request node 0 owns, computing it there; node 1 has never
	// seen it. Each seed is a different instance, so a different key.
	var req service.ScheduleRequest
	for seed := int64(0); ; seed++ {
		if seed == 64 {
			t.Fatal("node 0 owns none of 64 keys")
		}
		rng := rand.New(rand.NewSource(seed))
		g, err := workload.Random(workload.RandomConfig{N: 12}, rng)
		if err != nil {
			t.Fatal(err)
		}
		in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 2, CCR: 1, Beta: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		req = service.ScheduleRequest{Algorithm: "HEFT", Instance: instanceJSON(t, in)}
		if _, hdr := postSchedule(t, urls[0], req); hdr.Get("X-Shard-Owner") == urls[0] {
			break
		}
	}
	before := lookups()
	resp, _ := postSchedule(t, urls[1], req)
	if !resp.Cached || snapshot(t, urls[1]).Cache.Tier.Peer != 1 {
		t.Fatalf("node 1 did not answer from node 0's cache (cached=%v)", resp.Cached)
	}
	if got := lookups() - before; got != 1 {
		t.Errorf("one peer-cache answer counted %d lookups over the ring, want 1", got)
	}
}

// TestMultiNodeFailover kills a key's owner: a surviving node must keep
// answering that key by computing locally after its probe of the owner
// fails, and the failure must surface in its probe metrics. Replication
// is disabled so the probe genuinely fails instead of the key being
// served from a local replica (the replicated path is cluster_test.go's
// job).
func TestMultiNodeFailover(t *testing.T) {
	servers, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 32, Replication: -1})
	inst := instanceJSON(t, testfix.Topcuoglu())

	// Find an algorithm whose key is NOT owned by node 0.
	algs := []string{"HEFT", "CPOP", "DLS", "HCPT", "PETS", "MCP", "ISH"}
	var req service.ScheduleRequest
	var owner string
	for _, alg := range algs {
		r := service.ScheduleRequest{Algorithm: alg, Instance: inst}
		_, hdr := postSchedule(t, urls[0], r)
		if o := hdr.Get("X-Shard-Owner"); o != urls[0] {
			req, owner = r, o
			break
		}
	}
	if owner == "" {
		t.Fatalf("all %d probe algorithms hash to node 0; cannot exercise failover", len(algs))
	}
	want, _ := postSchedule(t, urls[0], req)

	// Kill the owner.
	for i, u := range urls {
		if u == owner {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := servers[i].Shutdown(ctx); err != nil {
				t.Fatalf("shutting down owner: %v", err)
			}
			cancel()
		}
	}

	// Entry node 0 holds a local copy from the warm-up round, so ask
	// the node that never saw the request and does not own it.
	var probe string
	for _, u := range urls {
		if u != owner && u != urls[0] {
			probe = u
		}
	}
	resp, _ := postSchedule(t, probe, req)
	if scheduleDigest(t, resp) != scheduleDigest(t, want) {
		t.Errorf("failover answer differs from pre-failure schedule")
	}

	c := &service.Client{BaseURL: probe}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if failed := snap.Shard.Probe.Errors + snap.Shard.Probe.Timeouts; failed < 1 {
		t.Errorf("shard.probe errors + timeouts = %d, want >= 1 (the probe of the dead owner must fail)", failed)
	}

	// The multi-node client fails over too: owner-first, then survivors.
	mc := &service.Client{Peers: urls, Retry: &service.RetryPolicy{MaxAttempts: 1}}
	mresp, err := mc.Schedule(context.Background(), req)
	if err != nil {
		t.Fatalf("multi-node client with dead owner: %v", err)
	}
	if scheduleDigest(t, mresp) != scheduleDigest(t, want) {
		t.Errorf("multi-node client answer differs from pre-failure schedule")
	}
}

// TestMultiNodeColdBurst pins the recompute bound of per-node
// singleflight: 8 callers on each node of a 3-node ring send the same
// cold request at once. Every answer must be the single-node reference
// schedule, and no node may compute it more than once — so the ring
// computes it at most once per entry node. With no delay, late callers
// race the first computations' finish; with one, every request arrives
// while they still run, which is the worst case of one run per node.
func TestMultiNodeColdBurst(t *testing.T) {
	for _, delay := range []time.Duration{0, 50 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			slow := &slowAlg{name: "slow", delay: delay}
			resolve := func(string) (algo.Algorithm, error) { return slow, nil }
			_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 64, Resolver: resolve})
			_, ref := startServer(t, service.Options{Workers: 2, Resolver: resolve})
			req := service.ScheduleRequest{Algorithm: "slow", Instance: instanceJSON(t, testfix.Topcuoglu())}
			refResp, err := ref.Schedule(context.Background(), req)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			want := scheduleDigest(t, refResp)

			const perNode = 8
			start := make(chan struct{})
			digests := make([]string, perNode*len(urls))
			errs := make([]error, len(digests))
			var wg sync.WaitGroup
			for i := range digests {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := &service.Client{BaseURL: urls[i%len(urls)], Retry: &service.RetryPolicy{MaxAttempts: 1}}
					<-start
					resp, err := c.Schedule(context.Background(), req)
					if err != nil {
						errs[i] = err
						return
					}
					digests[i] = scheduleDigest(t, resp)
				}(i)
			}
			close(start)
			wg.Wait()
			for i := range digests {
				if errs[i] != nil {
					t.Errorf("caller %d via node %d: %v", i, i%len(urls), errs[i])
				} else if digests[i] != want {
					t.Errorf("caller %d via node %d: schedule differs from single-node reference", i, i%len(urls))
				}
			}
			for i, u := range urls {
				snap, err := fetchMetrics(u)
				if err != nil {
					t.Fatalf("metrics %s: %v", u, err)
				}
				for alg, st := range snap.Algorithms {
					if st.Count > 1 {
						t.Errorf("node %d computed %s %d times, want at most once", i, alg, st.Count)
					}
				}
			}
		})
	}
}
