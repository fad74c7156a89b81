// Package service implements schedd, a long-running HTTP JSON service
// that schedules task graphs on demand: POST a problem instance (or a
// bare graph) plus an algorithm name, get the schedule, its measures and
// an optional slack/idle analysis back.
//
// The serving layer provides the robustness trimmings a scheduling
// endpoint needs under adversarial traffic: a bounded worker pool behind
// a bounded request queue (overload answers 503 instead of piling up
// goroutines), a per-request deadline plumbed as context cancellation
// into the scheduling hot loops (a timed-out request stops burning CPU),
// an LRU result cache keyed by a canonical content hash of (instance,
// algorithm, options), request/latency/queue/cache metrics at /metrics,
// and graceful shutdown that drains in-flight work.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/resched"
	"dagsched/internal/algo/suite"
	"dagsched/internal/dag"
	"dagsched/internal/metrics"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/sim"
)

// Options configures a Server. The zero value serves on 127.0.0.1:8080
// with GOMAXPROCS workers, a 64-deep queue, a 256-entry cache, a 30s
// default deadline and the full algorithm registry.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:8080").
	Addr string
	// Workers bounds concurrent scheduling runs (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker; a full queue
	// answers 503 (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries; negative
	// disables caching (default 256).
	CacheSize int
	// DefaultTimeout applies to requests without timeoutMs (default 30s);
	// MaxTimeout clamps requested deadlines (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds the request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxBatchItems bounds items per /v1/schedule/batch request
	// (default 256).
	MaxBatchItems int
	// ShedWatermark is the queue depth at which low-priority requests
	// are shed with 503 instead of queued, keeping headroom for normal
	// traffic under overload. Zero defaults to 3/4 of QueueDepth;
	// negative disables shedding.
	ShedWatermark int
	// SelfURL is this node's advertised base URL on the peer ring,
	// e.g. "http://10.0.0.1:8080"; required when Peers names two or
	// more nodes, and must appear in Peers.
	SelfURL string
	// Peers lists the base URLs of every ring member, SelfURL
	// included. Two or more distinct peers shard the canonical
	// instance-hash space across the ring (requests are forwarded to
	// their owner); fewer leave the node standalone. In-process tests
	// can instead call Server.ConfigurePeers after Start, once
	// ephemeral addresses are known.
	Peers []string
	// ProbeTimeout bounds one peer-cache probe and one replica push
	// (default 500ms).
	ProbeTimeout time.Duration
	// JoinURL, when set, points a fresh node at any member of a running
	// ring: instead of a static Peers list the node announces itself to
	// that member at startup (retrying until it answers) and adopts the
	// cluster view it returns. Requires SelfURL.
	JoinURL string
	// Replication is the number of ring successors each cache entry is
	// replicated to beyond its owner (default 2): a computed result is
	// pushed to the key's successor nodes so an owner's death does not
	// cold-start its keyspace. Negative disables replication.
	Replication int
	// HeartbeatInterval paces the membership heartbeat/failure-detector
	// loop (default 500ms).
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a peer may miss heartbeats before it is
	// marked suspect; after twice this it is marked dead and removed
	// from the ring (default 2s).
	SuspectAfter time.Duration
	// Resolver maps an algorithm name to an implementation (default
	// suite.ByName — the full registry including the search lineup).
	Resolver func(name string) (algo.Algorithm, error)
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:8080"
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 256
	}
	if o.ShedWatermark == 0 {
		o.ShedWatermark = o.QueueDepth * 3 / 4
		if o.ShedWatermark < 1 {
			o.ShedWatermark = 1
		}
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 500 * time.Millisecond
	}
	if o.Replication == 0 {
		o.Replication = 2
	}
	if o.Replication < 0 {
		o.Replication = 0
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2 * time.Second
	}
	if o.Resolver == nil {
		o.Resolver = suite.ByName
	}
	return o
}

// job is one scheduling request queued for the worker pool.
type job struct {
	ctx     context.Context
	alg     algo.Algorithm
	in      *sched.Instance
	analyze bool
	faults  *FaultsRequest
	key     string
	reqID   string
	// exec, when set, replaces the standard scheduling run: the worker
	// executes it instead of s.run. Streaming sessions use it to occupy
	// one pool slot for their whole lifetime, so event streams compete
	// with one-shot requests for the same bounded compute.
	exec func() jobResult
	// done receives exactly one result; buffered so a worker never
	// blocks on a handler that already gave up on its deadline.
	done chan jobResult
}

type jobResult struct {
	resp *ScheduleResponse
	err  error
}

// Server is a schedd instance. Create with New, run with Start (or the
// Serve convenience wrapper), stop with Shutdown.
type Server struct {
	opts     Options
	jobs     chan *job
	quit     chan struct{} // closed by Shutdown; workers exit on it
	quitOnce sync.Once
	workers  sync.WaitGroup
	httpSrv  *http.Server
	ln       net.Listener
	cache    *lruCache
	flights  *flightGroup
	shard    shardPtr // nil load = sharding off
	member   *membership
	repl     *replicator
	// peerBrk and peerClient outlive ring swaps: circuit state about a
	// flaky peer must survive a membership epoch change, and pooled
	// connections have no reason to be torn down by a reshard.
	peerBrk    *breakerSet
	peerClient *http.Client
	met        *serverMetrics
	reqSeq     atomic.Uint64
}

// reqIDKey carries the request ID through the request context so worker
// panics can be correlated with the HTTP request that queued them.
type reqIDKey struct{}

func (s *Server) nextReqID() string {
	return fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
}

// New returns an unstarted server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:       opts,
		jobs:       make(chan *job, opts.QueueDepth),
		quit:       make(chan struct{}),
		cache:      newLRUCache(opts.CacheSize),
		flights:    newFlightGroup(),
		peerBrk:    &breakerSet{},
		peerClient: &http.Client{},
		met:        newServerMetrics(),
	}
	s.member = newMembership(s)
	s.repl = newReplicator(s)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.handleSchedule)
	mux.HandleFunc("/v1/schedule/batch", s.handleBatch)
	mux.HandleFunc("/v1/schedule/stream", s.handleStream)
	mux.HandleFunc("/v1/cache/", s.handleCache)
	mux.HandleFunc("/v1/ring", s.handleRing)
	mux.HandleFunc("/v1/ring/join", s.handleRingJoin)
	mux.HandleFunc("/v1/ring/leave", s.handleRingLeave)
	mux.HandleFunc("/v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.httpSrv = &http.Server{Handler: s.instrument(mux)}
	return s
}

// Start listens on opts.Addr, launches the worker pool and serves in the
// background. It returns the bound address (useful with port 0).
func (s *Server) Start() (string, error) {
	if s.opts.JoinURL != "" {
		if len(s.opts.Peers) > 0 {
			return "", fmt.Errorf("service: JoinURL and Peers are mutually exclusive")
		}
		if err := s.ConfigureJoin(s.opts.SelfURL, s.opts.JoinURL); err != nil {
			return "", err
		}
	} else if err := s.ConfigurePeers(s.opts.SelfURL, s.opts.Peers); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return "", fmt.Errorf("service: listen %s: %w", s.opts.Addr, err)
	}
	s.ln = ln
	for w := 0; w < s.opts.Workers; w++ {
		s.workers.Add(1)
		go s.worker()
	}
	go func() {
		// ErrServerClosed is the normal Shutdown outcome.
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = err
		}
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Leave withdraws this node from the ring gracefully: announce the
// leave to every member (so they reshard immediately instead of
// waiting out the failure detector), then hand the hottest cache
// entries to their owners under the post-leave ring — the nodes that
// inherit our arcs. Best-effort and bounded by ctx; a crash — i.e.
// Shutdown without Leave — is exactly the path the detector covers.
// Safe to call more than once.
func (s *Server) Leave(ctx context.Context) {
	sh := s.shard.Load()
	s.member.leave() // announces to peers; marks left so heartbeats stop
	if sh == nil {
		return
	}
	// The post-leave ring: everyone but us. Entries we hand off go to
	// the node that owns them now that our arcs are redistributed.
	after := make([]string, 0, len(sh.peers))
	for _, p := range sh.peers {
		if p != sh.self {
			after = append(after, p)
		}
	}
	s.repl.handoffOnLeave(ctx, &shardState{
		self:         sh.self,
		ring:         newRing(after),
		peers:        after,
		brk:          sh.brk,
		client:       sh.client,
		probeTimeout: sh.probeTimeout,
	})
}

// Shutdown drains the server gracefully: the listener closes, in-flight
// requests (and the queued work they wait on) run to completion bounded
// by ctx, then the worker pool exits. Safe to call more than once.
// Shutdown alone is a crash as far as the ring is concerned — peers
// detect the death and reshard; call Leave first for a clean departure.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	// All handlers have returned (or ctx expired); tell the pool to
	// exit. The jobs channel is never closed, so a straggling handler
	// that lost the drain race can still enqueue safely (nobody will
	// serve it, and its deadline unblocks it).
	s.quitOnce.Do(func() { close(s.quit) })
	s.workers.Wait()
	return err
}

// Serve runs a server until ctx is canceled, then shuts down gracefully
// within drain. It is the main loop of cmd/schedd.
func Serve(ctx context.Context, opts Options, drain time.Duration) error {
	s := New(opts)
	if _, err := s.Start(); err != nil {
		return err
	}
	<-ctx.Done()
	if drain <= 0 {
		drain = 10 * time.Second
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	s.Leave(dctx) // announce departure + hand off hot entries, then drain
	return s.Shutdown(dctx)
}

// worker drains the job queue until Shutdown. A job whose context
// already expired while queued is answered without running the
// algorithm.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case j := <-s.jobs:
			if err := j.ctx.Err(); err != nil {
				j.done <- jobResult{err: err}
				continue
			}
			if j.exec != nil {
				j.done <- j.exec()
				continue
			}
			j.done <- s.run(j)
		case <-s.quit:
			return
		}
	}
}

// run executes one scheduling job under its context. A panicking
// algorithm (the Resolver accepts third-party implementations) is
// converted to an error result so the worker — and with it the whole
// pool — survives; the handler turns it into a 500.
func (s *Server) run(j *job) (res jobResult) {
	defer func() {
		if p := recover(); p != nil {
			s.met.ObservePanic()
			log.Printf("service: panic in scheduling worker (request %s, algorithm %s): %v\n%s",
				j.reqID, j.alg.Name(), p, debug.Stack())
			res = jobResult{err: fmt.Errorf("internal error: scheduler panic (request %s)", j.reqID)}
		}
	}()
	start := time.Now()
	sch, err := algo.ScheduleContext(j.ctx, j.alg, j.in)
	elapsed := time.Since(start)
	if err != nil {
		return jobResult{err: err}
	}
	if err := sch.Validate(); err != nil {
		return jobResult{err: fmt.Errorf("%s produced an invalid schedule: %w", j.alg.Name(), err)}
	}
	resp := &ScheduleResponse{
		Algorithm:  sch.Algorithm(),
		Makespan:   sch.Makespan(),
		SLR:        metrics.SLR(sch),
		Speedup:    metrics.Speedup(sch),
		Efficiency: metrics.Efficiency(sch),
		Duplicates: sch.NumDuplicates(),
		CommModel:  j.in.CommKind(),
		RuntimeMs:  float64(elapsed.Microseconds()) / 1000,
	}
	in := sch.Instance()
	for p := 0; p < in.P(); p++ {
		for _, a := range sch.OnProc(p) {
			resp.Assignments = append(resp.Assignments, AssignmentJSON{
				Task:   int(a.Task),
				Name:   in.G.Task(a.Task).Name,
				Proc:   a.Proc,
				Start:  a.Start,
				Finish: a.Finish,
				Dup:    a.Dup,
			})
		}
	}
	if j.analyze {
		an := sched.Analyze(sch)
		aj := &AnalysisJSON{
			Slack:     an.Slack,
			IdleTime:  an.IdleTime,
			IdleShare: an.IdleShare,
			Critical:  make([]int, 0, len(an.Critical)),
		}
		for _, t := range an.Critical {
			aj.Critical = append(aj.Critical, int(t))
		}
		resp.Analysis = aj
	}
	if j.faults != nil {
		rj, err := robustness(sch, j.faults)
		if err != nil {
			return jobResult{err: fmt.Errorf("robustness evaluation: %w", err)}
		}
		resp.Robustness = rj
	}
	s.met.ObserveRun(resp.Algorithm, resp.Makespan, resp.RuntimeMs)
	s.cache.Put(j.key, resp)
	s.replicate(j.key, resp)
	return jobResult{resp: resp}
}

// robustness evaluates the Faults block of a request against a computed
// schedule. The request was validated by parseRequest, so policy names
// and plan shapes resolve here without re-checking.
func robustness(sch *sched.Schedule, fr *FaultsRequest) (*RobustnessJSON, error) {
	pol := resched.Default()
	if fr.Policy != "" {
		var err error
		if pol, err = resched.ByName(fr.Policy); err != nil {
			return nil, err
		}
	}
	nominal := sch.Makespan()
	rj := &RobustnessJSON{Policy: pol.Name(), Nominal: nominal}
	if fr.Plan != nil {
		rep, err := sim.Run(sch, sim.Config{Faults: fr.Plan})
		if err != nil {
			return nil, err
		}
		rj.Achieved = rep.Makespan
		if nominal > 0 {
			rj.Stretch = rep.Makespan / nominal
		}
		if frep := rep.Faults; frep != nil {
			rj.Stranded = frep.Stranded
			rj.Killed = frep.Killed
			rj.Restarts = frep.Restarts
		}
		if len(resched.CrashEvents(fr.Plan)) > 0 {
			r, out, err := resched.React(sch, fr.Plan, pol)
			if err != nil {
				return nil, err
			}
			rp := &RepairedJSON{
				Chosen:   out.Chosen,
				Makespan: r.Makespan(),
				Frozen:   out.Frozen,
				Lost:     out.Lost,
				Remapped: out.Remapped,
				Delayed:  out.Delayed,
			}
			if nominal > 0 {
				rp.Stretch = r.Makespan() / nominal
			}
			rj.Repaired = rp
		}
	}
	if fr.Rate > 0 || fr.Samples > 0 {
		rb, err := resched.EvalRobustness(sch, resched.RobustnessConfig{
			Samples: fr.Samples, Rate: fr.Rate, Seed: fr.Seed, Policy: pol,
		})
		if err != nil {
			return nil, err
		}
		rj.Samples = rb.Samples
		cr := rb.CompletionRate
		rj.CompletionRate = &cr
		rj.MeanDegradation = rb.MeanDegradation
		rj.MaxDegradation = rb.MaxDegradation
		rj.MeanSlack = rb.MeanSlack
	}
	return rj, nil
}

// statusRecorder captures the response code for request metrics and
// whether anything was written yet (a panic after the first byte cannot
// be turned into a clean 500 anymore).
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers reach the connection's flusher and deadlines
// through the recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps the mux with request IDs, request counting, latency
// recording and panic containment: a panicking handler answers 500 with
// its request ID (when the response has not started) instead of tearing
// down the connection, and the panic is logged with its stack and
// counted in /metrics.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.nextReqID()
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.met.ObservePanic()
				log.Printf("service: panic serving %s %s (request %s): %v\n%s",
					r.Method, r.URL.Path, id, p, debug.Stack())
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, "internal error (request %s)", id)
				}
				s.met.ObserveRequest(http.StatusInternalServerError, time.Since(start))
				return
			}
			s.met.ObserveRequest(rec.status, time.Since(start))
		}()
		next.ServeHTTP(rec, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"algorithms": suite.Names(),
		"commModels": platform.ModelKinds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.cache.Stats()
	var self string
	var peers []string
	if sh := s.shard.Load(); sh != nil {
		self, peers = sh.self, sh.peers
	}
	cl := ClusterJSON{
		Enabled:     s.shard.Load() != nil,
		Self:        s.member.selfURL(),
		Replication: s.opts.Replication,
		Members:     s.member.view().Members,
	}
	cl.Alive, cl.Suspect, cl.Dead, cl.Epoch = s.member.counts()
	s.repl.mu.Lock()
	cl.Handoff.Pending = len(s.repl.queue)
	s.repl.mu.Unlock()
	snap := s.met.Snapshot(len(s.jobs), cap(s.jobs), s.opts.Workers, hits, misses, size, s.opts.CacheSize, self, peers, cl)
	writeJSON(w, http.StatusOK, snap)
}

// parseRequest validates the wire request into a problem instance.
func (s *Server) parseRequest(body io.Reader) (*ScheduleRequest, algo.Algorithm, *sched.Instance, error) {
	var req ScheduleRequest
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		return nil, nil, nil, fmt.Errorf("decoding request: %w", err)
	}
	a, in, err := s.resolveRequest(&req)
	if err != nil {
		return nil, nil, nil, err
	}
	return &req, a, in, nil
}

// maxProcessors caps the platform size a bare-graph request or a stream
// config may ask for: the platform holds P×P link matrices, cost rows
// and EFT scans are O(P) per task, and an attacker-sized processor count
// must not allocate before validation.
const maxProcessors = 512

// resolveRequest validates one decoded request — shared by the single
// and batch endpoints.
func (s *Server) resolveRequest(req *ScheduleRequest) (algo.Algorithm, *sched.Instance, error) {
	if req.Algorithm == "" {
		return nil, nil, fmt.Errorf("missing algorithm name")
	}
	if _, err := lowPriority(req.Priority); err != nil {
		return nil, nil, err
	}
	a, err := s.opts.Resolver(req.Algorithm)
	if err != nil {
		return nil, nil, err
	}
	var in *sched.Instance
	switch {
	case len(req.Instance) > 0 && len(req.Graph) > 0:
		return nil, nil, fmt.Errorf("request carries both instance and graph; send one")
	case len(req.Instance) > 0:
		in, err = sched.ReadInstanceJSON(bytes.NewReader(req.Instance))
		if err != nil {
			return nil, nil, err
		}
	case len(req.Graph) > 0:
		g, err := dag.ReadJSON(bytes.NewReader(req.Graph))
		if err != nil {
			return nil, nil, err
		}
		if req.Processors > maxProcessors {
			return nil, nil, fmt.Errorf("processors %d exceeds the limit of %d", req.Processors, maxProcessors)
		}
		procs := req.Processors
		if procs <= 0 {
			procs = 8
		}
		tpu := req.TimePerUnit
		if tpu == 0 {
			tpu = 1
		}
		if req.Latency < 0 || tpu < 0 {
			return nil, nil, fmt.Errorf("negative link parameters")
		}
		speeds := make([]float64, procs)
		for i := range speeds {
			speeds[i] = 1
		}
		// platform.New (not Homogeneous, which panics) so oversized link
		// parameters from the wire come back as a 400, not a crash.
		sys, err := platform.New(platform.Config{Speeds: speeds, Latency: req.Latency, TimePerUnit: tpu})
		if err != nil {
			return nil, nil, err
		}
		in = sched.Consistent(g, sys)
	default:
		return nil, nil, fmt.Errorf("request carries neither instance nor graph")
	}
	in, err = bindCommModel(in, req)
	if err != nil {
		return nil, nil, err
	}
	if err := validateFaults(req.Faults, in.P()); err != nil {
		return nil, nil, err
	}
	return a, in, nil
}

// maxFaultSamples caps a robustness sampling request: each sample is a
// full replay plus a reactive repair, so an unbounded count would let
// one request monopolize a worker.
const maxFaultSamples = 500

// validateFaults rejects malformed faults blocks at parse time (400),
// so the worker never sees one it cannot evaluate.
func validateFaults(f *FaultsRequest, procs int) error {
	if f == nil {
		return nil
	}
	if f.Plan == nil && f.Rate == 0 {
		return fmt.Errorf("faults block needs an explicit plan or a positive rate")
	}
	if err := f.Plan.Validate(procs); err != nil {
		return err
	}
	if math.IsNaN(f.Rate) || f.Rate < 0 || f.Rate > 1 {
		return fmt.Errorf("faults rate %g out of [0,1]", f.Rate)
	}
	if f.Samples < 0 || f.Samples > maxFaultSamples {
		return fmt.Errorf("faults samples %d out of [0,%d]", f.Samples, maxFaultSamples)
	}
	if f.Policy != "" {
		if _, err := resched.ByName(f.Policy); err != nil {
			return err
		}
	}
	return nil
}

// bindCommModel resolves the request's communication-model selection
// against the parsed instance. An empty CommModel keeps the classic
// contention-free costs (bit-for-bit the pre-model behaviour).
func bindCommModel(in *sched.Instance, req *ScheduleRequest) (*sched.Instance, error) {
	if bw := req.LinkBandwidth; bw != 0 {
		if req.CommModel != platform.KindSharedLink {
			return nil, fmt.Errorf("linkBandwidth requires commModel %q", platform.KindSharedLink)
		}
		if math.IsNaN(bw) || math.IsInf(bw, 0) || bw <= 0 {
			return nil, fmt.Errorf("linkBandwidth %g must be positive and finite", bw)
		}
	}
	if req.CommModel == "" {
		return in, nil
	}
	var m platform.CommModel
	var err error
	if req.CommModel == platform.KindSharedLink && req.LinkBandwidth != 0 {
		m, err = platform.NewSharedLink(in.Sys, platform.SharedLinkConfig{Bandwidth: []float64{req.LinkBandwidth}})
	} else {
		m, err = platform.ModelByKind(req.CommModel, in.Sys)
	}
	if err != nil {
		return nil, err
	}
	return in.WithComm(m), nil
}

// errQueueFull marks a fail-fast enqueue rejection: the single-request
// path answers it 503 instead of waiting for a worker.
var errQueueFull = errors.New("service: queue full")

// errShed marks a low-priority request rejected at the shed watermark:
// the queue still has room, but what is left is reserved for normal
// traffic.
var errShed = errors.New("service: low-priority request shed")

// parsedItem is one validated scheduling query ready for the tiered
// cache and the worker pool.
type parsedItem struct {
	alg     algo.Algorithm
	in      *sched.Instance
	analyze bool
	faults  *FaultsRequest
	key     string
	lowPrio bool
}

// followerVerdict decides what a coalesced follower does when the
// flight it parked on failed. leaderErr is the flight's error, ctxErr
// the follower's own context state at that moment.
//
// A leader that died of cancellation or deadline must not poison its
// followers: their own deadlines may still have room, so they retry
// the flight (one of them becomes the next leader). But when the
// follower's own context has also expired, the verdict is the
// follower's error, not the leader's — the item timed out on its own
// terms, and surfacing the leader's deadline would misreport which
// request ran out of time (and with what budget).
func followerVerdict(leaderErr, ctxErr error) (retry bool, err error) {
	if errors.Is(leaderErr, context.Canceled) || errors.Is(leaderErr, context.DeadlineExceeded) {
		if ctxErr == nil {
			return true, nil
		}
		return false, ctxErr
	}
	return false, leaderErr
}

// shouldShed reports whether a low-priority item must be shed at the
// current queue depth.
func (s *Server) shouldShed(lowPrio bool) bool {
	return lowPrio && s.opts.ShedWatermark > 0 && len(s.jobs) >= s.opts.ShedWatermark
}

// lowPriority validates a request's priority field and reports whether
// it selects the sheddable class.
func lowPriority(p string) (bool, error) {
	switch p {
	case "", "normal":
		return false, nil
	case "low":
		return true, nil
	default:
		return false, fmt.Errorf("unknown priority %q (want \"normal\" or \"low\")", p)
	}
}

// timeoutFor resolves a request's timeoutMs against the server bounds.
func (s *Server) timeoutFor(ms int64) time.Duration {
	timeout := s.opts.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
		if timeout > s.opts.MaxTimeout {
			timeout = s.opts.MaxTimeout
		}
	}
	return timeout
}

// statusFor maps a scheduleLocal error to the HTTP status and message a
// single request would answer.
func (s *Server) statusFor(err error, timeout time.Duration) (int, string) {
	switch {
	case errors.Is(err, errQueueFull):
		return http.StatusServiceUnavailable, fmt.Sprintf("queue full (%d deep)", cap(s.jobs))
	case errors.Is(err, errShed):
		return http.StatusServiceUnavailable, fmt.Sprintf("low-priority request shed (queue depth at watermark %d)", s.opts.ShedWatermark)
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, fmt.Sprintf("deadline exceeded after %s: %v", timeout, err)
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, fmt.Sprintf("request canceled: %v", err)
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// scheduleLocal serves one parsed scheduling query on this node through
// the tiered cache: the local LRU first; then — when probePeer is set
// and another peer owns the key — that peer's cache via the cheap
// /v1/cache probe (a hit is copied into the local LRU); then the worker
// pool. Concurrent identical computations coalesce on a singleflight
// group: one request leads and runs the algorithm, the rest park on its
// result, so a burst of identical requests costs exactly one schedule.
// block selects blocking enqueue (batch items backpressure on the
// queue) versus the single-request fail-fast 503.
func (s *Server) scheduleLocal(ctx context.Context, reqID string, it parsedItem, probePeer, block bool) (*ScheduleResponse, error) {
	probe := probePeer
	for {
		if resp, replica := s.cache.Get(it.key); resp != nil {
			if replica {
				s.met.ObserveTier(tierReplica)
			} else {
				s.met.ObserveTier(tierLocal)
			}
			return resp, nil
		}
		if probe {
			probe = false
			// Only when another node owns the key: an owner with a cold
			// cache computes rather than burning a probe round-trip per
			// successor (the anti-entropy sweep re-warms a rejoined owner).
			if sh := s.shard.Load(); sh != nil && sh.ring.owner(it.key) != sh.self {
				if resp := s.probeReplicas(ctx, sh, it.key, ""); resp != nil {
					s.met.ObserveTier(tierPeer)
					s.cache.PutReplica(it.key, resp)
					cp := *resp
					cp.Cached = true
					return &cp, nil
				}
			}
		}
		leader, f := s.flights.join(it.key)
		if !leader {
			s.met.ObserveCoalesced()
			select {
			case <-f.done:
				if f.err == nil {
					cp := *f.resp
					cp.Coalesced = true
					return &cp, nil
				}
				retry, err := followerVerdict(f.err, ctx.Err())
				if retry {
					continue // the leader died of its own deadline, not ours
				}
				return nil, err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if s.shouldShed(it.lowPrio) {
			// Cache and coalescing tiers above stay open to low-priority
			// traffic (a hit costs nothing); only fresh compute is shed.
			s.met.ObserveShed()
			s.flights.finish(it.key, f, nil, errShed)
			return nil, errShed
		}
		s.met.ObserveTier(tierMiss)
		j := &job{ctx: ctx, alg: it.alg, in: it.in, analyze: it.analyze, faults: it.faults, key: it.key, reqID: reqID, done: make(chan jobResult, 1)}
		if block {
			select {
			case s.jobs <- j:
			case <-ctx.Done():
				s.flights.finish(it.key, f, nil, ctx.Err())
				return nil, ctx.Err()
			}
		} else {
			select {
			case s.jobs <- j:
			default:
				s.flights.finish(it.key, f, nil, errQueueFull)
				return nil, errQueueFull
			}
		}
		select {
		case res := <-j.done:
			s.flights.finish(it.key, f, res.resp, res.err)
			return res.resp, res.err
		case <-ctx.Done():
			// The worker owns the job now; publish its eventual result so
			// coalesced followers unblock, but answer our own deadline
			// promptly.
			go func() {
				res := <-j.done
				s.flights.finish(it.key, f, res.resp, res.err)
			}()
			return nil, ctx.Err()
		}
	}
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	req, a, in, err := s.parseRequest(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Keyed on the requested name, not a.Name(): a custom Resolver may
	// map distinct request names onto one implementation, and those are
	// distinct queries for caching and coalescing purposes. The default
	// resolver matches names exactly, so the two are identical for it.
	key, err := cacheKey(in, req.Algorithm, req.Analyze, req.LinkBandwidth, req.Faults)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	timeout := s.timeoutFor(req.TimeoutMs)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if sh := s.shard.Load(); sh != nil {
		owner := sh.ring.owner(key)
		w.Header().Set(hdrShardOwner, owner)
		if owner != sh.self && r.Header.Get(hdrForwarded) == "" {
			// Not ours: serve a local copy if we happen to hold one,
			// otherwise forward to the owner (whose cache is the
			// authoritative tier for this key). A failed forward falls
			// through the key's replica holders — a dead owner's
			// keyspace lives on at its successors — and only then to
			// computing here: availability over placement.
			if resp, replica := s.cache.Get(key); resp != nil {
				if replica {
					s.met.ObserveTier(tierReplica)
				} else {
					s.met.ObserveTier(tierLocal)
				}
				w.Header().Set(hdrServedBy, sh.self)
				writeJSON(w, http.StatusOK, resp)
				return
			}
			if s.tryForward(ctx, w, sh, owner, body) {
				return
			}
			if resp := s.probeReplicas(ctx, sh, key, owner); resp != nil {
				s.met.ObserveTier(tierPeer)
				s.cache.PutReplica(key, resp)
				cp := *resp
				cp.Cached = true
				w.Header().Set(hdrServedBy, sh.self)
				writeJSON(w, http.StatusOK, &cp)
				return
			}
		}
		w.Header().Set(hdrServedBy, sh.self)
	}
	reqID, _ := r.Context().Value(reqIDKey{}).(string)
	low, _ := lowPriority(req.Priority) // validated by resolveRequest
	resp, err := s.scheduleLocal(ctx, reqID, parsedItem{
		alg: a, in: in, analyze: req.Analyze, faults: req.Faults, key: key, lowPrio: low,
	}, false, false)
	if err != nil {
		status, msg := s.statusFor(err, timeout)
		writeError(w, status, "%s", msg)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
