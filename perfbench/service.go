package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"dagsched/internal/algo/suite"
	"dagsched/internal/sched"
	"dagsched/internal/service"
)

const (
	clusterSize   = 3
	warmRequests  = 1000 // in all; enough distinct keys to fill the caches and start evicting
	requestLimit  = 10 * time.Second
	queueSampling = 50 * time.Millisecond // how often a traced block reads one node's queue depth
	probeItems    = 16                    // pool items whose layers are probed after each traced block
)

// counters are the /metrics counters the service layers are judged by,
// summed over the nodes.
type counters struct {
	latCount                   int64
	latSumMs                   float64
	hits, misses               int64
	local, replica, peer, miss int64
	forwards, forwardFailures  int64
	pushes, pushFailures       int64
	handoffQueued              int64
	computes                   int64
}

func countersOf(m *service.MetricsSnapshot) counters {
	c := counters{
		latCount:      m.LatencyMs.Count,
		latSumMs:      m.LatencyMs.SumMs,
		hits:          m.Cache.Hits,
		misses:        m.Cache.Misses,
		local:         m.Cache.Tier.Local,
		replica:       m.Cache.Tier.Replica,
		peer:          m.Cache.Tier.Peer,
		miss:          m.Cache.Tier.Miss,
		pushes:        m.Cluster.Replica.Pushes,
		pushFailures:  m.Cluster.Replica.PushFailures,
		handoffQueued: m.Cluster.Handoff.Queued,
	}
	for _, v := range m.Shard.Forwards {
		c.forwards += v
	}
	for _, v := range m.Shard.ForwardFailures {
		c.forwardFailures += v
	}
	for _, a := range m.Algorithms {
		c.computes += int64(a.Count)
	}
	return c
}

// add adds sign times o to c.
func (c *counters) add(o counters, sign int64) {
	c.latCount += sign * o.latCount
	c.latSumMs += float64(sign) * o.latSumMs
	c.hits += sign * o.hits
	c.misses += sign * o.misses
	c.local += sign * o.local
	c.replica += sign * o.replica
	c.peer += sign * o.peer
	c.miss += sign * o.miss
	c.forwards += sign * o.forwards
	c.forwardFailures += sign * o.forwardFailures
	c.pushes += sign * o.pushes
	c.pushFailures += sign * o.pushFailures
	c.handoffQueued += sign * o.handoffQueued
	c.computes += sign * o.computes
}

// serviceBlock holds the samples of one block, or of one caller in it.
type serviceBlock struct {
	lat               []float64 // ms, successful requests
	hitLat, missLat   []float64 // the same, split by the answer's cached flag
	ok, failed        int
	tasks             int // tasks of the successful requests
	elapsed           time.Duration
	allocs            uint64          // TotalAlloc growth of the whole process over the block
	compute           []float64       // runtimeMs of uncached answers
	keys              map[int]float64 // the SLR of each key answered
	queue             []float64
	delta             counters
	coalesced, cached int
}

func newServiceBlock() *serviceBlock { return &serviceBlock{keys: map[int]float64{}} }

func (p *serviceBlock) ops() (attempted, failed int) { return p.ok + p.failed, p.failed }

func (p *serviceBlock) merge(q *serviceBlock) {
	p.lat = append(p.lat, q.lat...)
	p.hitLat = append(p.hitLat, q.hitLat...)
	p.missLat = append(p.missLat, q.missLat...)
	p.ok += q.ok
	p.failed += q.failed
	p.tasks += q.tasks
	p.elapsed += q.elapsed
	p.allocs += q.allocs
	p.compute = append(p.compute, q.compute...)
	for k, slr := range q.keys {
		p.keys[k] = slr
	}
	p.queue = append(p.queue, q.queue...)
	p.delta.add(q.delta, 1)
	p.coalesced += q.coalesced
	p.cached += q.cached
}

// mergeService folds blocks into one.
func mergeService(bs []block) *serviceBlock {
	out := newServiceBlock()
	for _, x := range bs {
		out.merge(x.(*serviceBlock))
	}
	return out
}

// caller is one closed-loop client: it blocks on each request before it
// draws the next, always against its own entry node.
type caller struct {
	id        int
	client    *service.Client
	transport *http.Transport
	keys      keyStream
}

// serviceBench drives a 3-node in-process schedd cluster with
// closed-loop callers. Keys are Zipf-popular over a pool several times
// larger than one node's cache, so hits run beside misses that compute,
// replicate and evict.
type serviceBench struct {
	pool    []poolItem
	ins     []*sched.Instance          // each pool problem's instance, decoded once
	refs    []service.ScheduleResponse // the response each pool problem must come back with
	servers []*service.Server
	urls    []string
	admin   *http.Client
	callers []*caller
	probed  int // next pool item to probe
}

func newService(seed int64, sz sizes, rec *recorder) (bench, error) {
	pool, err := servicePool(seed, sz, rec)
	if err != nil {
		return nil, err
	}
	b := &serviceBench{
		pool: pool, ins: make([]*sched.Instance, len(pool)), refs: make([]service.ScheduleResponse, len(pool)),
		admin: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	}
	for i := range pool {
		if b.ins[i], b.refs[i], err = referenceFor(&pool[i].Req); err != nil {
			return nil, fmt.Errorf("reference for pool item %d: %w", i, err)
		}
	}
	for i := 0; i < clusterSize; i++ {
		s := service.New(service.Options{Addr: "127.0.0.1:0"})
		addr, err := s.Start()
		if err != nil {
			b.close()
			return nil, err
		}
		b.servers = append(b.servers, s)
		b.urls = append(b.urls, "http://"+addr)
	}
	for i, s := range b.servers {
		if err := s.ConfigurePeers(b.urls[i], b.urls); err != nil {
			b.close()
			return nil, err
		}
	}
	for i := 0; i < callers(); i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		b.callers = append(b.callers, &caller{
			id:        i,
			transport: tr,
			client: &service.Client{
				BaseURL:    b.urls[i%clusterSize],
				HTTPClient: &http.Client{Transport: tr},
				Retry:      &service.RetryPolicy{MaxAttempts: 1},
			},
			keys: newKeyStream(seed, i, sz),
		})
	}
	return b, nil
}

// callers is the number of closed-loop callers: one per two cores. The
// cores left over run the cluster's own concurrent work (forwards,
// replica pushes, GC); with a caller per core the loop saturated the
// host and its throughput and tail followed the host's neighbours
// rather than the program (on 2 cores, 2 callers spread 26% in req_per_s
// and 48% in p99_ms over ten seeds, 1 caller about 6%).
func callers() int { return max(1, nproc()/2) }

// referenceFor decodes a request's instance and computes the response
// it must come back with, from the same payload bytes, through the
// public decode and algorithm calls the service makes.
func referenceFor(req *service.ScheduleRequest) (*sched.Instance, service.ScheduleResponse, error) {
	in, err := resolve(req)
	if err != nil {
		return nil, service.ScheduleResponse{}, err
	}
	alg, err := suite.ByName(req.Algorithm)
	if err != nil {
		return nil, service.ScheduleResponse{}, err
	}
	s, err := alg.Schedule(in)
	if err != nil {
		return nil, service.ScheduleResponse{}, err
	}
	return in, responseOf(s), nil
}

// resolve turns a pool request into its instance: a full instance is
// decoded; a bare graph is decoded and bound to identical unit-speed
// processors with consistent costs, as the service does.
func resolve(req *service.ScheduleRequest) (*sched.Instance, error) {
	if len(req.Instance) > 0 {
		return sched.ReadInstanceJSON(bytes.NewReader(req.Instance))
	}
	return resolveGraph(req.Graph, req.Processors)
}

func (b *serviceBench) warm() error {
	parts := make([]*serviceBlock, len(b.callers))
	var wg sync.WaitGroup
	for i, c := range b.callers {
		parts[i] = newServiceBlock()
		wg.Add(1)
		go func(c *caller, part *serviceBlock) {
			defer wg.Done()
			for n := 0; n < warmRequests/len(b.callers); n++ {
				b.request(c, part, nil, nil)
			}
		}(c, parts[i])
	}
	wg.Wait()
	for _, p := range parts {
		if p.failed > 0 {
			return fmt.Errorf("%d warm-up requests failed", p.failed)
		}
	}
	return nil
}

// request sends one request and checks its answer against the reference.
func (b *serviceBench) request(c *caller, ph *serviceBlock, rec *recorder, tr *tracer) {
	k := c.keys.next()
	ctx, cancel := context.WithTimeout(context.Background(), requestLimit)
	defer cancel()
	t0 := time.Now()
	resp, err := c.client.Schedule(ctx, b.pool[k].Req)
	t1 := time.Now()
	ref := &b.refs[k]
	if err != nil || resp.Makespan != ref.Makespan || resp.SLR != ref.SLR || !slices.Equal(resp.Assignments, ref.Assignments) {
		ph.failed++
		return
	}
	ph.ok++
	ph.tasks += b.ins[k].N()
	ph.keys[k] = resp.SLR
	lat := ms(t1.Sub(t0))
	ph.lat = append(ph.lat, lat)
	if resp.Cached {
		ph.hitLat = append(ph.hitLat, lat)
	} else {
		ph.missLat = append(ph.missLat, lat)
	}
	switch {
	case resp.Cached:
		ph.cached++
	case resp.Coalesced:
		ph.coalesced++
	default:
		ph.compute = append(ph.compute, resp.RuntimeMs)
	}
	if rec != nil {
		name := "client.schedule.miss"
		if resp.Cached {
			name = "client.schedule.hit"
		}
		rec.add(name, t0, t1, -1, tr.op(), float64(k))
	}
}

// measure runs every caller until the deadline and folds their samples
// and the nodes' counter growth into one block.
func (b *serviceBench) measure(until time.Time, tr *tracer) (block, error) {
	ph := newServiceBlock()
	before, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	parts := make([]*serviceBlock, len(b.callers))
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, c := range b.callers {
		parts[i] = newServiceBlock()
		var rec *recorder
		if tr != nil {
			rec = tr.recorder(c.id)
		}
		wg.Add(1)
		go func(c *caller, part *serviceBlock, rec *recorder) {
			defer wg.Done()
			for {
				b.request(c, part, rec, tr)
				if !time.Now().Before(until) {
					return
				}
			}
		}(c, parts[i], rec)
	}
	if tr != nil {
		ph.queue = b.sampleQueues(until)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.allocs = m1.TotalAlloc - m0.TotalAlloc
	for _, p := range parts {
		ph.merge(p)
	}
	after, err := b.snapshot()
	if err != nil {
		return nil, err
	}
	for i := range after {
		ph.delta.add(after[i], 1)
		ph.delta.add(before[i], -1)
	}
	if tr != nil {
		rec := tr.recorder(len(b.callers))
		for i := 0; i < probeItems; i++ {
			k := b.probed % len(b.pool)
			b.probed++
			if err := probe(b.ins[k], rec, tr); err != nil {
				return nil, err
			}
		}
	}
	return ph, nil
}

// sampleQueues reads one node's queue depth every queueSampling until
// the deadline, round robin over the nodes, while the callers run. It
// runs only in traced blocks, so its reads count in the tracing overhead.
func (b *serviceBench) sampleQueues(until time.Time) []float64 {
	var depths []float64
	for i := 0; ; i++ {
		next := time.Now().Add(queueSampling)
		if !next.Before(until) {
			return depths
		}
		time.Sleep(time.Until(next))
		if m, err := b.metrics(i % len(b.urls)); err == nil {
			depths = append(depths, float64(m.Queue.Depth))
		}
	}
}

// metrics reads node i's /metrics. The admin client opens a connection
// per read, so besides the callers' connections at most one is open.
func (b *serviceBench) metrics(i int) (*service.MetricsSnapshot, error) {
	c := &service.Client{BaseURL: b.urls[i], HTTPClient: b.admin, Retry: &service.RetryPolicy{MaxAttempts: 1}}
	return c.Metrics(context.Background())
}

// snapshot reads every node's /metrics counters between blocks.
func (b *serviceBench) snapshot() ([]counters, error) {
	out := make([]counters, len(b.urls))
	for i := range b.urls {
		m, err := b.metrics(i)
		if err != nil {
			return nil, err
		}
		out[i] = countersOf(m)
	}
	return out, nil
}

// endToEnd reports the tasks of the successful requests per second, the
// client-observed latency, the bytes the whole process (callers and
// nodes) allocates per task served, and the mean SLR of the distinct
// problems answered.
func (b *serviceBench) endToEnd(bs []block) []metric {
	ph := mergeService(bs)
	var slr float64
	for _, v := range ph.keys {
		slr += v
	}
	return []metric{
		{"tasks_per_s", perSecond(float64(ph.tasks), ph.elapsed)},
		{"p50_ms", quantile(ph.lat, 0.50)},
		{"p90_ms", quantile(ph.lat, 0.90)},
		{"alloc_bytes_per_task", ratio(float64(ph.allocs), float64(ph.tasks))},
		{"mean_slr", ratio(slr, float64(len(ph.keys)))},
	}
}

// details splits the requests by how the cluster answered them and
// reports the nodes' counters.
func (b *serviceBench) details(bs []block) []metric {
	ph := mergeService(bs)
	d := ph.delta
	tiers := float64(d.local + d.replica + d.peer + d.miss)
	return []metric{
		{"req_per_s", perSecond(float64(ph.ok), ph.elapsed)},
		{"p99_ms", quantile(ph.lat, 0.99)},
		{"client.hit_p50_ms", median(ph.hitLat)},
		{"client.miss_p50_ms", median(ph.missLat)},
		{"svc.compute_ms", median(ph.compute)},
		{"svc.server_ms_mean", ratio(d.latSumMs, float64(d.latCount))},
		{"cache.hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses))},
		{"cache.tier.local", ratio(float64(d.local), tiers)},
		{"cache.tier.replica", ratio(float64(d.replica), tiers)},
		{"cache.tier.peer", ratio(float64(d.peer), tiers)},
		{"cache.tier.miss", ratio(float64(d.miss), tiers)},
		{"svc.computes_per_key", ratio(float64(d.computes), float64(len(ph.keys)))},
		{"shard.forward_ratio", ratio(float64(d.forwards), float64(ph.ok+ph.failed))},
		{"shard.forward_failures", float64(d.forwardFailures)},
		{"replica.pushes_per_compute", ratio(float64(d.pushes), float64(d.computes))},
		{"replica.push_failures", float64(d.pushFailures)},
		{"handoff.queued", float64(d.handoffQueued)},
		{"queue.depth_mean", mean(ph.queue)},
	}
}

func (b *serviceBench) props(bs []block) map[string]any {
	type family struct {
		Family    string  `json:"family"`
		Algorithm string  `json:"algorithm"`
		Items     int     `json:"items"`
		N         int     `json:"n"`
		MeanEdges float64 `json:"meanEdges"`
		P         int     `json:"p"`
	}
	fams := map[string]*family{}
	for _, it := range b.pool {
		f := fams[it.Family]
		if f == nil {
			f = &family{Family: it.Family, Algorithm: it.Req.Algorithm, N: it.N, P: it.Procs}
			fams[it.Family] = f
		}
		f.Items++
		f.MeanEdges += float64(it.Edges)
	}
	var list []family
	for _, name := range []string{hetFamily.Name, homoFamily.Name} {
		f := fams[name]
		f.MeanEdges /= float64(f.Items)
		list = append(list, *f)
	}
	all := mergeService(bs)
	d := all.delta
	tiers := float64(d.local + d.replica + d.peer + d.miss)
	requests := float64(all.ok + all.failed)
	return map[string]any{
		"pool":           list,
		"callers":        len(b.callers),
		"nodes":          len(b.servers),
		"distinctKeys":   len(all.keys),
		"cachedShare":    ratio(float64(all.cached), requests),
		"coalescedShare": ratio(float64(all.coalesced), requests),
		"forwardedShare": ratio(float64(d.forwards), requests),
		"tierShares": map[string]float64{
			"local":   ratio(float64(d.local), tiers),
			"replica": ratio(float64(d.replica), tiers),
			"peer":    ratio(float64(d.peer), tiers),
			"miss":    ratio(float64(d.miss), tiers),
		},
	}
}

// close stops the callers' connections and every node, waiting for each
// to drain.
func (b *serviceBench) close() {
	for _, c := range b.callers {
		c.transport.CloseIdleConnections()
	}
	for _, s := range b.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.Shutdown(ctx) // a node that cannot drain in 10s is abandoned with the process
		cancel()
	}
}
