package service

import (
	"encoding/json"

	"dagsched/internal/sim"
)

// ScheduleRequest is the wire form of one scheduling query. Exactly one
// of Instance or Graph must be set: Instance carries a full problem
// (graph, system, cost matrix) as written by Instance.WriteJSON; Graph
// carries a bare task graph that is scheduled onto a homogeneous system
// described by Processors/Latency/TimePerUnit with consistent costs.
type ScheduleRequest struct {
	// Algorithm is the registry display name, e.g. "HEFT" or "ILS".
	Algorithm string `json:"algorithm"`
	// Instance is a full problem instance (see Instance.WriteJSON).
	Instance json.RawMessage `json:"instance,omitempty"`
	// Graph is a bare task graph (see Graph.WriteJSON).
	Graph json.RawMessage `json:"graph,omitempty"`
	// Processors, Latency and TimePerUnit describe the homogeneous
	// system a bare Graph is scheduled onto. Processors defaults to 8;
	// above 512 the request is rejected.
	Processors  int     `json:"processors,omitempty"`
	Latency     float64 `json:"latency,omitempty"`
	TimePerUnit float64 `json:"timePerUnit,omitempty"`
	// CommModel selects the communication model the schedulers run
	// under: "" or "contention-free" (the classic matrix costs),
	// "one-port" (transfers serialize on per-processor send/receive
	// ports) or "shared-link" (all processors share one bus). Any
	// registry algorithm becomes contention-aware when a contended
	// model is selected.
	CommModel string `json:"commModel,omitempty"`
	// LinkBandwidth scales the shared-link bus (data units per time
	// unit; default 1). Only valid with CommModel "shared-link"; must
	// be positive and finite.
	LinkBandwidth float64 `json:"linkBandwidth,omitempty"`
	// Analyze adds per-task slack, the critical set and per-processor
	// idle time to the response.
	Analyze bool `json:"analyze,omitempty"`
	// Faults asks for a robustness evaluation of the computed schedule;
	// the response carries a Robustness block. Nil skips it.
	Faults *FaultsRequest `json:"faults,omitempty"`
	// TimeoutMs caps this request's scheduling time. Zero applies the
	// server default; values above the server maximum are clamped.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Priority selects the load-shedding class: "" or "normal" queues
	// like any request; "low" is shed with 503 once the queue reaches
	// the server's shed watermark, keeping the remaining queue headroom
	// for normal traffic. Cache hits are served regardless of class.
	Priority string `json:"priority,omitempty"`
}

// ScheduleResponse is the wire form of a scheduling result.
type ScheduleResponse struct {
	Algorithm  string  `json:"algorithm"`
	Makespan   float64 `json:"makespan"`
	SLR        float64 `json:"slr"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	Duplicates int     `json:"duplicates"`
	// CommModel is the communication-model kind the schedule was
	// computed under.
	CommModel string `json:"commModel"`
	// RuntimeMs is the scheduling time of the run that produced this
	// result; a cached response reports the original run's time.
	RuntimeMs float64 `json:"runtimeMs"`
	// Cached marks a response served from the result cache (this
	// node's, or — on batch items — the owning peer's).
	Cached bool `json:"cached"`
	// Coalesced marks a response that joined a concurrent identical
	// in-flight computation instead of running its own.
	Coalesced   bool             `json:"coalesced,omitempty"`
	Assignments []AssignmentJSON `json:"assignments"`
	Analysis    *AnalysisJSON    `json:"analysis,omitempty"`
	Robustness  *RobustnessJSON  `json:"robustness,omitempty"`
}

// BatchRequest is the wire form of POST /v1/schedule/batch: many
// scheduling queries in one request. Items are scheduled concurrently
// on the server's worker pool, each under its own deadline (its
// TimeoutMs, or the server default), and the results come back in
// request order with per-item status — one failing item never fails
// the batch.
type BatchRequest struct {
	Items []ScheduleRequest `json:"items"`
}

// BatchResponse is the wire form of a batch result. Items is exactly
// as long as the request's Items and in the same order.
type BatchResponse struct {
	Items     []BatchItemResult `json:"items"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
}

// BatchItemResult is one item's outcome. Status carries the HTTP
// status the item would have received as a single request (200, 400,
// 500, 503, 504); exactly one of Response and Error is set.
type BatchItemResult struct {
	Index    int               `json:"index"`
	Status   int               `json:"status"`
	Response *ScheduleResponse `json:"response,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// FaultsRequest selects the robustness evaluation of a scheduling query.
// Plan replays one explicit fault plan (degradation report + reactive
// repair when it contains permanent crashes); Rate/Samples/Seed draw
// sampled fail-stop plans and report expected degradation under reactive
// repair. At least one of Plan or Rate must be set; both may be.
type FaultsRequest struct {
	// Plan is an explicit fault plan (see sim.FaultPlan wire form).
	Plan *sim.FaultPlan `json:"plan,omitempty"`
	// Rate is the per-processor permanent-crash probability per sample,
	// in [0,1]; Samples (default 20, max 500) and Seed control the draw.
	Rate    float64 `json:"rate,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// Policy names the repair policy ("remap-stranded",
	// "reschedule-suffix" or "auto"; default "auto").
	Policy string `json:"policy,omitempty"`
}

// RobustnessJSON is the robustness block of a response.
type RobustnessJSON struct {
	// Policy is the repair policy that was applied.
	Policy string `json:"policy"`
	// Nominal is the analytic makespan of the unfaulted schedule.
	Nominal float64 `json:"nominal"`
	// Explicit-plan replay (present when the request carried a plan):
	// Achieved is the faulted replay makespan over completed tasks,
	// Stretch divides it by Nominal, Stranded lists tasks that never
	// ran, Killed/Restarts count executions destroyed and retried.
	Achieved float64 `json:"achieved,omitempty"`
	Stretch  float64 `json:"stretch,omitempty"`
	Stranded []int   `json:"stranded,omitempty"`
	Killed   int     `json:"killed,omitempty"`
	Restarts int     `json:"restarts,omitempty"`
	// Repaired summarizes the reactive repair of the explicit plan
	// (present when the plan contains permanent crashes).
	Repaired *RepairedJSON `json:"repaired,omitempty"`
	// Sampled expectation (present when the request carried a rate):
	// CompletionRate is the fraction of sampled fault plans the
	// unrepaired schedule survived; Mean/MaxDegradation are over the
	// repaired makespans normalized by Nominal; MeanSlack is the
	// schedule's fault-independent makespan slack.
	Samples         int      `json:"samples,omitempty"`
	CompletionRate  *float64 `json:"completionRate,omitempty"`
	MeanDegradation float64  `json:"meanDegradation,omitempty"`
	MaxDegradation  float64  `json:"maxDegradation,omitempty"`
	MeanSlack       float64  `json:"meanSlack,omitempty"`
}

// RepairedJSON summarizes a reactive repair.
type RepairedJSON struct {
	// Chosen is the primitive mode the policy settled on.
	Chosen   string  `json:"chosen"`
	Makespan float64 `json:"makespan"`
	// Stretch divides the repaired makespan by the nominal one.
	Stretch float64 `json:"stretch"`
	Frozen  int     `json:"frozen"`
	Lost    int     `json:"lost"`
	Remapped int    `json:"remapped"`
	Delayed  int    `json:"delayed"`
}

// AssignmentJSON is one task copy placed on a processor.
type AssignmentJSON struct {
	Task   int     `json:"task"`
	Name   string  `json:"name,omitempty"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
	Dup    bool    `json:"dup,omitempty"`
}

// AnalysisJSON mirrors sched.Analysis on the wire.
type AnalysisJSON struct {
	Slack     []float64 `json:"slack"`
	Critical  []int     `json:"critical"`
	IdleTime  []float64 `json:"idleTime"`
	IdleShare []float64 `json:"idleShare"`
}

// errorJSON is the body of every non-2xx response.
type errorJSON struct {
	Error string `json:"error"`
}

// RingView is the body of GET /v1/ring (and of join responses): one
// node's current view of cluster membership. It doubles as the
// heartbeat payload — heartbeating peers merge the members they did
// not know, which is how views spread without a dedicated gossip
// channel.
type RingView struct {
	// Self is the responding node's ring identity (its base URL).
	Self string `json:"self"`
	// Epoch counts this node's membership changes; it is a local
	// monotonic counter, not a cluster-wide consensus value.
	Epoch uint64 `json:"epoch"`
	// Replication is the node's configured successor-replica count.
	Replication int `json:"replication"`
	// Members lists every member this node knows (itself included)
	// with its locally judged status: "alive", "suspect" or "dead".
	Members []MemberJSON `json:"members"`
}

// MemberJSON is one member of a RingView.
type MemberJSON struct {
	URL    string `json:"url"`
	Status string `json:"status"`
}

// ClusterJSON is the cluster block of GET /metrics: membership state
// plus replication and hinted-handoff traffic.
type ClusterJSON struct {
	// Enabled reports whether this node is currently sharding (two or
	// more live ring members).
	Enabled bool `json:"enabled"`
	// Self is this node's ring identity ("" when never clustered).
	Self string `json:"self,omitempty"`
	// Epoch is the membership epoch (bumps on every ring swap).
	Epoch uint64 `json:"epoch"`
	// Replication is the configured successor-replica count.
	Replication int `json:"replication"`
	// Alive/Suspect/Dead count peers by detector verdict (self excluded).
	Alive   int `json:"alive"`
	Suspect int `json:"suspect"`
	Dead    int `json:"dead"`
	// Members is the full member table with statuses, self included.
	Members []MemberJSON `json:"members,omitempty"`
	// Replica counts replication-push traffic: Pushes/PushFailures are
	// outgoing PUT attempts, Stores are incoming entries accepted.
	Replica struct {
		Pushes       int64 `json:"pushes"`
		PushFailures int64 `json:"pushFailures"`
		Stores       int64 `json:"stores"`
		// SweepQueued counts entries queued by anti-entropy sweeps
		// toward joining/rejoining peers.
		SweepQueued int64 `json:"sweepQueued"`
	} `json:"replica"`
	// Handoff counts the hinted-handoff queue's lifecycle: writes
	// queued for a down peer, re-delivered once it returned, dropped
	// after exhausting retries (or queue overflow), and the current
	// queue length.
	Handoff struct {
		Queued    int64 `json:"queued"`
		Delivered int64 `json:"delivered"`
		Dropped   int64 `json:"dropped"`
		Pending   int   `json:"pending"`
	} `json:"handoff"`
}

// MetricsSnapshot is the body of GET /metrics.
type MetricsSnapshot struct {
	UptimeSec float64 `json:"uptimeSec"`
	Requests  struct {
		Total    int64            `json:"total"`
		ByStatus map[string]int64 `json:"byStatus"`
		// Panics counts handler and worker panics converted to 500s.
		Panics int64 `json:"panics"`
		// Coalesced counts requests that joined a concurrent identical
		// in-flight computation instead of starting their own.
		Coalesced int64 `json:"coalesced"`
		// Shed counts low-priority items rejected at the shed watermark
		// (queue depth reserved for normal traffic).
		Shed int64 `json:"shed"`
	} `json:"requests"`
	LatencyMs HistogramJSON `json:"latencyMs"`
	Queue     struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
		Workers  int `json:"workers"`
	} `json:"queue"`
	Cache struct {
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		HitRate  float64 `json:"hitRate"`
		Size     int     `json:"size"`
		Capacity int     `json:"capacity"`
		// Tier breaks scheduling items down by where they were served
		// from: this node's LRU, a replication-delivered copy in that
		// LRU, the owning peer's LRU (via the cache probe), or a miss
		// that went to the worker pool.
		Tier struct {
			Local   int64 `json:"local"`
			Replica int64 `json:"replica"`
			Peer    int64 `json:"peer"`
			Miss    int64 `json:"miss"`
		} `json:"tier"`
	} `json:"cache"`
	// Stream summarizes POST /v1/schedule/stream traffic.
	Stream struct {
		// Sessions counts streaming sessions that ran (admitted to a
		// worker); Sealed counts those that reached a clean seal.
		Sessions int64 `json:"sessions"`
		Sealed   int64 `json:"sealed"`
		// Events and Deltas total the events ingested and the re-plan
		// deltas emitted across all sessions.
		Events int64 `json:"events"`
		Deltas int64 `json:"deltas"`
	} `json:"stream"`
	// Batch summarizes POST /v1/schedule/batch traffic.
	Batch struct {
		// Count is the number of batch requests; Items the total items
		// they carried.
		Count int64 `json:"count"`
		Items int64 `json:"items"`
		// SizeHistogram is a cumulative histogram of items per batch.
		SizeHistogram SizeHistogramJSON `json:"sizeHistogram"`
	} `json:"batch"`
	// Shard describes this node's position on the consistent-hash ring
	// and its forwarding traffic (per-peer success/failure counts).
	Shard struct {
		Enabled bool     `json:"enabled"`
		Self    string   `json:"self,omitempty"`
		Peers   []string `json:"peers,omitempty"`
		// Forwards counts requests forwarded to each owning peer;
		// ForwardFailures counts forwards that failed (and fell back to
		// computing locally).
		Forwards        map[string]int64 `json:"forwards"`
		ForwardFailures map[string]int64 `json:"forwardFailures"`
		// Probe counts peer cache-probe outcomes; timeouts are distinct
		// from misses so slow peers are visible separately from cold
		// ones.
		Probe struct {
			Hits     int64 `json:"hits"`
			Misses   int64 `json:"misses"`
			Timeouts int64 `json:"timeouts"`
			Errors   int64 `json:"errors"`
		} `json:"probe"`
	} `json:"shard"`
	// Cluster describes dynamic membership (failure-detector verdicts,
	// epoch) and cache-replication traffic.
	Cluster ClusterJSON `json:"cluster"`
	// Algorithms accumulates makespan and scheduling-runtime summary
	// statistics per algorithm over every uncached successful request.
	Algorithms map[string]AlgorithmStats `json:"algorithms"`
}

// SizeHistogramJSON is a cumulative histogram over integer sizes.
type SizeHistogramJSON struct {
	// Buckets[i].Count is the number of observations ≤ Buckets[i].Le;
	// the implicit final bucket (+Inf) is Count.
	Buckets []SizeBucket `json:"buckets"`
	Count   int64        `json:"count"`
}

// SizeBucket is one cumulative size-bucket boundary.
type SizeBucket struct {
	Le    int   `json:"le"`
	Count int64 `json:"count"`
}

// HistogramJSON is a cumulative latency histogram.
type HistogramJSON struct {
	// Buckets[i].Count is the number of observations ≤ Buckets[i].LeMs;
	// the implicit final bucket (+Inf) is Count.
	Buckets []HistogramBucket `json:"buckets"`
	Count   int64             `json:"count"`
	SumMs   float64           `json:"sumMs"`
}

// HistogramBucket is one cumulative bucket boundary.
type HistogramBucket struct {
	LeMs  float64 `json:"leMs"`
	Count int64   `json:"count"`
}

// AlgorithmStats summarizes one algorithm's serving history.
type AlgorithmStats struct {
	Count    int       `json:"count"`
	Makespan StatsJSON `json:"makespan"`
	Runtime  StatsJSON `json:"runtimeMs"`
}

// StatsJSON renders a metrics.Accumulator. Min and Max are pointers
// because Accumulator.Min/Max return 0 on an empty stream — a value a
// real sample could also take — so empty accumulators serialize them as
// null instead of a misleading 0.
type StatsJSON struct {
	N      int      `json:"n"`
	Mean   float64  `json:"mean"`
	StdDev float64  `json:"stdDev"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}
