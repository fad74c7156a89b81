package service

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"dagsched/internal/metrics"
)

// latencyBucketsMs are the cumulative histogram boundaries of request
// latency, in milliseconds.
var latencyBucketsMs = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// batchSizeBuckets are the cumulative histogram boundaries of batch
// request sizes (items per batch).
var batchSizeBuckets = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Cache tiers a scheduling item can be served from: this node's own
// LRU, a replication-delivered copy already sitting in that LRU, the
// owning peer's LRU (via the cache probe), or none of those — a miss
// that goes to the worker pool.
const (
	tierLocal = iota
	tierReplica
	tierPeer
	tierMiss
	numTiers
)

// Cache-probe outcomes. Timeouts are distinct from misses: a fleet
// whose probes time out needs a bigger -probe-timeout, not a warmer
// cache.
const (
	probeHit = iota
	probeMiss
	probeTimeout
	probeError
	numProbeOutcomes
)

// Hinted-handoff queue events.
const (
	handoffQueued = iota
	handoffDelivered
	handoffDropped
	numHandoffEvents
)

// serverMetrics aggregates the observability state of one Server. All
// methods are safe for concurrent use.
type serverMetrics struct {
	mu        sync.Mutex
	start     time.Time
	total     int64
	byStatus  map[int]int64
	latCounts []int64 // per bucket, non-cumulative; rendered cumulative
	latCount  int64
	latSumMs  float64
	panics    int64
	coalesced int64
	shed      int64
	// Streaming endpoint: session/seal counts and event/delta totals.
	streamSessions int64
	streamSealed   int64
	streamEvents   int64
	streamDeltas   int64
	// Cache tier outcomes, indexed by the tier* constants.
	tiers [numTiers]int64
	// Peer cache-probe outcomes, indexed by the probe* constants.
	probes [numProbeOutcomes]int64
	// Replication traffic: outgoing push attempts and incoming stores.
	replPushes    int64
	replPushFails int64
	replStores    int64
	// Hinted-handoff queue events, indexed by the handoff* constants,
	// plus entries queued by anti-entropy sweeps.
	handoffs    [numHandoffEvents]int64
	sweepQueued int64
	// Batch endpoint: request count, total items, size histogram.
	batchCount int64
	batchItems int64
	batchSizes []int64 // per batchSizeBuckets bucket, non-cumulative
	// Per-algorithm makespan and scheduling-runtime accumulators over
	// uncached successful runs.
	algMakespan map[string]*metrics.Accumulator
	algRuntime  map[string]*metrics.Accumulator
	algCount    map[string]int
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{
		start:       time.Now(),
		byStatus:    make(map[int]int64),
		latCounts:   make([]int64, len(latencyBucketsMs)+1),
		batchSizes:  make([]int64, len(batchSizeBuckets)+1),
		algMakespan: make(map[string]*metrics.Accumulator),
		algRuntime:  make(map[string]*metrics.Accumulator),
		algCount:    make(map[string]int),
	}
}

// ObserveRequest records one finished HTTP request.
func (m *serverMetrics) ObserveRequest(status int, elapsed time.Duration) {
	ms := float64(elapsed.Microseconds()) / 1000
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total++
	m.byStatus[status]++
	i := sort.SearchFloat64s(latencyBucketsMs, ms)
	m.latCounts[i]++
	m.latCount++
	m.latSumMs += ms
}

// ObservePanic records one recovered handler or worker panic.
func (m *serverMetrics) ObservePanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// ObserveCoalesced records one request that joined an in-flight
// identical computation instead of starting its own.
func (m *serverMetrics) ObserveCoalesced() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.coalesced++
}

// ObserveShed records one low-priority item shed at the watermark.
func (m *serverMetrics) ObserveShed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed++
}

// ObserveStream records one finished streaming session: the events it
// ingested, the deltas it emitted and whether it reached a clean seal.
func (m *serverMetrics) ObserveStream(events, deltas int64, sealed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.streamSessions++
	if sealed {
		m.streamSealed++
	}
	m.streamEvents += events
	m.streamDeltas += deltas
}

// ObserveTier records where one scheduling item was served from.
func (m *serverMetrics) ObserveTier(tier int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tiers[tier]++
}

// ObserveProbe records one peer cache-probe outcome.
func (m *serverMetrics) ObserveProbe(outcome int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.probes[outcome]++
}

// ObserveReplicaPush records one outgoing replica-push attempt.
func (m *serverMetrics) ObserveReplicaPush(ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replPushes++
	if !ok {
		m.replPushFails++
	}
}

// ObserveReplicaStore records one incoming replica entry accepted.
func (m *serverMetrics) ObserveReplicaStore() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replStores++
}

// ObserveHandoff records one hinted-handoff queue event.
func (m *serverMetrics) ObserveHandoff(event int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handoffs[event]++
}

// ObserveSweep records n entries queued by one anti-entropy sweep.
func (m *serverMetrics) ObserveSweep(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepQueued += int64(n)
}

// ObserveBatch records one batch request of the given size.
func (m *serverMetrics) ObserveBatch(size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchCount++
	m.batchItems += int64(size)
	i := sort.SearchInts(batchSizeBuckets, size)
	m.batchSizes[i]++
}

// ObserveRun records one successful uncached scheduling run.
func (m *serverMetrics) ObserveRun(algorithm string, makespan, runtimeMs float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	am, ok := m.algMakespan[algorithm]
	if !ok {
		am = &metrics.Accumulator{}
		m.algMakespan[algorithm] = am
		m.algRuntime[algorithm] = &metrics.Accumulator{}
	}
	am.Add(makespan)
	m.algRuntime[algorithm].Add(runtimeMs)
	m.algCount[algorithm]++
}

// statsJSON renders an accumulator. Accumulator.Min/Max return 0 on an
// empty stream, indistinguishable from a true 0 sample, so both are
// omitted (nil) until at least one sample arrived.
func statsJSON(a *metrics.Accumulator) StatsJSON {
	s := StatsJSON{N: a.N(), Mean: a.Mean(), StdDev: a.StdDev()}
	if a.N() > 0 {
		mn, mx := a.Min(), a.Max()
		s.Min, s.Max = &mn, &mx
	}
	return s
}

// Snapshot renders the metrics; queue, cache, shard and cluster
// figures are supplied by the server, which owns those structures
// (the cluster block arrives pre-filled with membership state and
// Snapshot adds the replication/handoff counters it owns).
func (m *serverMetrics) Snapshot(queueDepth, queueCap, workers int, cacheHits, cacheMisses int64, cacheSize, cacheCap int, self string, peers []string, cluster ClusterJSON) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out MetricsSnapshot
	out.UptimeSec = time.Since(m.start).Seconds()
	out.Requests.Total = m.total
	out.Requests.Panics = m.panics
	out.Requests.Coalesced = m.coalesced
	out.Requests.Shed = m.shed
	out.Stream.Sessions = m.streamSessions
	out.Stream.Sealed = m.streamSealed
	out.Stream.Events = m.streamEvents
	out.Stream.Deltas = m.streamDeltas
	out.Requests.ByStatus = make(map[string]int64, len(m.byStatus))
	for code, n := range m.byStatus {
		out.Requests.ByStatus[statusLabel(code)] = n
	}
	var cum int64
	for i, le := range latencyBucketsMs {
		cum += m.latCounts[i]
		out.LatencyMs.Buckets = append(out.LatencyMs.Buckets, HistogramBucket{LeMs: le, Count: cum})
	}
	out.LatencyMs.Count = m.latCount
	out.LatencyMs.SumMs = m.latSumMs
	out.Queue.Depth = queueDepth
	out.Queue.Capacity = queueCap
	out.Queue.Workers = workers
	out.Cache.Hits = cacheHits
	out.Cache.Misses = cacheMisses
	if tot := cacheHits + cacheMisses; tot > 0 {
		out.Cache.HitRate = float64(cacheHits) / float64(tot)
	}
	out.Cache.Size = cacheSize
	out.Cache.Capacity = cacheCap
	out.Cache.Tier.Local = m.tiers[tierLocal]
	out.Cache.Tier.Replica = m.tiers[tierReplica]
	out.Cache.Tier.Peer = m.tiers[tierPeer]
	out.Cache.Tier.Miss = m.tiers[tierMiss]
	out.Batch.Count = m.batchCount
	out.Batch.Items = m.batchItems
	cum = 0
	for i, le := range batchSizeBuckets {
		cum += m.batchSizes[i]
		out.Batch.SizeHistogram.Buckets = append(out.Batch.SizeHistogram.Buckets, SizeBucket{Le: le, Count: cum})
	}
	out.Batch.SizeHistogram.Count = m.batchCount
	out.Shard.Self = self
	out.Shard.Peers = peers
	out.Shard.Enabled = len(peers) >= 2
	out.Shard.Probe.Hits = m.probes[probeHit]
	out.Shard.Probe.Misses = m.probes[probeMiss]
	out.Shard.Probe.Timeouts = m.probes[probeTimeout]
	out.Shard.Probe.Errors = m.probes[probeError]
	out.Cluster = cluster
	out.Cluster.Replica.Pushes = m.replPushes
	out.Cluster.Replica.PushFailures = m.replPushFails
	out.Cluster.Replica.Stores = m.replStores
	out.Cluster.Replica.SweepQueued = m.sweepQueued
	out.Cluster.Handoff.Queued = m.handoffs[handoffQueued]
	out.Cluster.Handoff.Delivered = m.handoffs[handoffDelivered]
	out.Cluster.Handoff.Dropped = m.handoffs[handoffDropped]
	out.Algorithms = make(map[string]AlgorithmStats, len(m.algCount))
	for name, n := range m.algCount {
		out.Algorithms[name] = AlgorithmStats{
			Count:    n,
			Makespan: statsJSON(m.algMakespan[name]),
			Runtime:  statsJSON(m.algRuntime[name]),
		}
	}
	return out
}

func statusLabel(code int) string { return strconv.Itoa(code) }
