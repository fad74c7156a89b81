package dagsched

import (
	"context"
	"io"
	"math/rand"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/exact"
	"dagsched/internal/algo/resched"
	"dagsched/internal/algo/suite"
	"dagsched/internal/core"
	"dagsched/internal/dag"
	"dagsched/internal/experiment"
	"dagsched/internal/export"
	"dagsched/internal/metrics"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/service"
	"dagsched/internal/sim"
	"dagsched/internal/workload"
)

// Task graphs.
type (
	// Graph is an immutable weighted task DAG.
	Graph = dag.Graph
	// GraphBuilder accumulates tasks and edges and Builds a Graph.
	GraphBuilder = dag.Builder
	// TaskID identifies a task within one Graph.
	TaskID = dag.TaskID
	// Task is one node of a task graph.
	Task = dag.Task
	// Edge is one dependency with its data volume.
	Edge = dag.Edge
)

// NewGraph returns a builder for a task graph with the given name.
func NewGraph(name string) *GraphBuilder { return dag.NewBuilder(name) }

// ReadGraphJSON reads a graph written by Graph.WriteJSON.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return dag.ReadJSON(r) }

// Platforms.
type (
	// System describes the target machine: processors plus network.
	System = platform.System
	// SystemConfig configures NewSystem.
	SystemConfig = platform.Config
	// Processor is one processing element.
	Processor = platform.Processor
)

// NewSystem validates cfg and builds a System.
func NewSystem(cfg SystemConfig) (*System, error) { return platform.New(cfg) }

// Communication models.
type (
	// CommModel prices and (when contended) serializes inter-processor
	// transfers; see CommModelKinds for the registered implementations.
	CommModel = platform.CommModel
	// SharedLinkConfig maps processors onto shared buses for the
	// "shared-link" model.
	SharedLinkConfig = platform.SharedLinkConfig
)

// CommModelKinds lists the registered communication-model kinds:
// "contention-free", "one-port" and "shared-link".
func CommModelKinds() []string { return platform.ModelKinds() }

// CommModelByKind builds the named communication model for a system
// (shared-link defaults to a single unit-bandwidth bus; use
// NewSharedLinkModel for explicit topologies).
func CommModelByKind(kind string, sys *System) (CommModel, error) {
	return platform.ModelByKind(kind, sys)
}

// NewSharedLinkModel builds a shared-link model with an explicit
// processor-to-bus mapping and per-bus bandwidths.
func NewSharedLinkModel(sys *System, cfg SharedLinkConfig) (CommModel, error) {
	return platform.NewSharedLink(sys, cfg)
}

// WithCommModel returns a copy of the instance bound to the model: every
// registry algorithm scheduled on the result prices — and, under a
// contended model, reserves — communication through it. A nil or
// contention-free model reproduces the classic matrix costs bit for bit.
func WithCommModel(in *Instance, m CommModel) *Instance { return in.WithComm(m) }

// ContentionAware wraps any algorithm so it schedules under a contended
// communication model (kind defaults to "one-port"), the generalization
// of C-HEFT to the whole registry. The returned schedules are named
// "C-<inner name>".
func ContentionAware(a Algorithm, kind string) Algorithm {
	return algo.CommAware{Inner: a, Kind: kind}
}

// HomogeneousSystem returns p identical unit-speed processors with the
// given per-message latency and per-data-unit transfer time on all links.
func HomogeneousSystem(p int, latency, timePerUnit float64) *System {
	return platform.Homogeneous(p, latency, timePerUnit)
}

// SystemGenConfig parameterizes random system generation: processor-speed
// heterogeneity plus per-link startup and transfer-rate spreads that emit
// non-uniform link matrices.
type SystemGenConfig = platform.GenConfig

// GenerateSystem draws a random system from cfg, deterministically per
// seed; zero spreads consume nothing from rng.
func GenerateSystem(cfg SystemGenConfig, rng *rand.Rand) (*System, error) {
	return platform.Generate(cfg, rng)
}

// Problem instances.
type (
	// Instance is a scheduling problem: graph × system × cost matrix.
	Instance = sched.Instance
	// Schedule is a validated scheduling result.
	Schedule = sched.Schedule
	// Assignment is one task copy placed on a processor.
	Assignment = sched.Assignment
)

// NewInstance builds an instance from an explicit cost matrix
// W[task][processor].
func NewInstance(g *Graph, sys *System, w [][]float64) (*Instance, error) {
	return sched.NewInstance(g, sys, w)
}

// ConsistentInstance derives costs from nominal weights and processor
// speeds (related machines).
func ConsistentInstance(g *Graph, sys *System) *Instance { return sched.Consistent(g, sys) }

// UnrelatedInstance draws an inconsistent-heterogeneity cost matrix with
// spread beta ∈ [0, 2) around each task's nominal weight.
func UnrelatedInstance(g *Graph, sys *System, beta float64, rng *rand.Rand) (*Instance, error) {
	return sched.Unrelated(g, sys, beta, rng)
}

// ReadInstanceJSON reads a full problem instance (graph, system, cost
// matrix) written by Instance.WriteJSON, for bit-for-bit reproducible
// scheduling runs.
func ReadInstanceJSON(r io.Reader) (*Instance, error) { return sched.ReadInstanceJSON(r) }

// Algorithms.
type (
	// Algorithm maps an instance to a schedule.
	Algorithm = algo.Algorithm
	// CtxScheduler is implemented by algorithms that check their context
	// once per placement, pick or search iteration: every algorithm of
	// Algorithms() and SearchLineup().
	CtxScheduler = algo.CtxScheduler
	// ILSOptions selects the mechanisms of the ILS scheduler.
	ILSOptions = core.Options
)

// ScheduleContext runs the algorithm under ctx. Algorithms implementing
// CtxScheduler abort mid-schedule once the context is canceled or its
// deadline passes; for the rest the context is checked before and after
// the run. Use this instead of Algorithm.Schedule whenever scheduling
// time must be bounded.
func ScheduleContext(ctx context.Context, a Algorithm, in *Instance) (*Schedule, error) {
	return algo.ScheduleContext(ctx, a, in)
}

// ILS returns the full improved list scheduler (σ-rank + lookahead +
// duplication), the paper's contribution.
func ILS() Algorithm { return core.New() }

// ILSVariant returns an ILS with explicit options under a custom name,
// for ablation studies.
func ILSVariant(name string, opts ILSOptions) Algorithm { return core.Variant(name, opts) }

// Algorithms returns every heuristic in the registry.
func Algorithms() []Algorithm { return suite.All() }

// AlgorithmByName looks a heuristic up by display name (see
// AlgorithmNames).
func AlgorithmByName(name string) (Algorithm, error) { return suite.ByName(name) }

// AlgorithmNames returns the sorted registry names.
func AlgorithmNames() []string { return suite.Names() }

// HeterogeneousLineup returns the algorithms conventionally compared on
// heterogeneous systems; HomogeneousLineup the homogeneous counterpart.
func HeterogeneousLineup() []Algorithm { return suite.Heterogeneous() }

// HomogeneousLineup returns the classic homogeneous-system competitors.
func HomogeneousLineup() []Algorithm { return suite.Homogeneous() }

// SearchLineup returns the guided-random-search schedulers (hill
// climbing, simulated annealing, genetic algorithm). They trade orders of
// magnitude more scheduling time for small makespan gains and are
// therefore kept out of Algorithms().
func SearchLineup() []Algorithm { return suite.Search() }

// Optimal schedules the instance exactly by branch and bound; exponential,
// intended for instances of roughly a dozen tasks. The error is
// exact.ErrBudget when the search budget ran out (the schedule returned
// alongside is the best found).
func Optimal(in *Instance) (*Schedule, error) { return exact.BnB{}.Schedule(in) }

// Metrics.
type (
	// Result bundles the evaluation measures of one run.
	Result = metrics.Result
	// Accumulator aggregates summary statistics of a sample stream.
	Accumulator = metrics.Accumulator
)

// Evaluate runs the algorithm, validates the schedule and returns its
// measures (makespan, SLR, speedup, efficiency, runtime).
func Evaluate(a Algorithm, in *Instance) (Result, error) { return metrics.Evaluate(a, in) }

// SLR returns the schedule length ratio of a schedule.
func SLR(s *Schedule) float64 { return metrics.SLR(s) }

// Speedup returns the sequential-over-parallel speedup of a schedule.
func Speedup(s *Schedule) float64 { return metrics.Speedup(s) }

// Efficiency returns Speedup divided by the processor count.
func Efficiency(s *Schedule) float64 { return metrics.Efficiency(s) }

// ScheduleAnalysis reports per-task slack, the schedule's critical set
// and per-processor idle time.
type ScheduleAnalysis = sched.Analysis

// Analyze computes slack, critical tasks and idle time of a schedule.
func Analyze(s *Schedule) ScheduleAnalysis { return sched.Analyze(s) }

// Workloads.
type (
	// RandomDAGConfig parameterizes the layered random-DAG generator.
	RandomDAGConfig = workload.RandomConfig
	// WorkloadConfig turns a graph into a heterogeneous instance.
	WorkloadConfig = workload.HetConfig
)

// RandomDAG generates a Topcuoglu-parameterized layered random DAG.
func RandomDAG(cfg RandomDAGConfig, rng *rand.Rand) (*Graph, error) {
	return workload.Random(cfg, rng)
}

// DAXOptions tunes ReadDAX.
type DAXOptions = workload.DAXOptions

// ReadDAX imports a Pegasus DAX workflow description (the format of the
// public scientific-workflow trace archives) as a task graph.
func ReadDAX(r io.Reader, opts DAXOptions) (*Graph, error) { return workload.ReadDAX(r, opts) }

// MakeInstance scales a graph's communication to a target CCR and draws a
// heterogeneous cost matrix.
func MakeInstance(g *Graph, cfg WorkloadConfig, rng *rand.Rand) (*Instance, error) {
	return workload.MakeInstance(g, cfg, rng)
}

// GaussianEliminationDAG returns the classic Gaussian-elimination task
// graph for an m×m matrix.
func GaussianEliminationDAG(m int) (*Graph, error) { return workload.GaussianElimination(m) }

// FFTDAG returns the n-point FFT butterfly task graph (n a power of two).
func FFTDAG(n int) (*Graph, error) { return workload.FFT(n) }

// LaplaceDAG returns the g×g wavefront task graph of a Laplace sweep.
func LaplaceDAG(g int) (*Graph, error) { return workload.Laplace(g) }

// ForkJoinDAG returns a fork-join graph of the given branch count and
// per-branch chain length.
func ForkJoinDAG(branches, stages int) (*Graph, error) { return workload.ForkJoin(branches, stages) }

// PipelineDAG returns a layered pipeline with the given stage widths and
// all-to-all shuffles between stages.
func PipelineDAG(widths []int) (*Graph, error) { return workload.Pipeline(widths) }

// OutTreeDAG returns a complete broadcast tree; InTreeDAG the reduction
// mirror image.
func OutTreeDAG(fanout, depth int) (*Graph, error) { return workload.OutTree(fanout, depth) }

// InTreeDAG returns a complete reduction tree.
func InTreeDAG(fanout, depth int) (*Graph, error) { return workload.InTree(fanout, depth) }

// MontageDAG returns a simplified Montage-style astronomy workflow.
func MontageDAG(n int) (*Graph, error) { return workload.Montage(n) }

// EpigenomicsDAG, CyberShakeDAG and LIGODAG return the Pegasus-style
// scientific workflows used by the workflow-scheduling literature.
func EpigenomicsDAG(lanes, chunks int) (*Graph, error) { return workload.Epigenomics(lanes, chunks) }

// CyberShakeDAG returns the seismic-hazard workflow for the given number
// of sites.
func CyberShakeDAG(sites int) (*Graph, error) { return workload.CyberShake(sites) }

// LIGODAG returns the two-stage gravitational-wave inspiral workflow.
func LIGODAG(groups, perGroup int) (*Graph, error) { return workload.LIGO(groups, perGroup) }

// CholeskyDAG returns the tiled Cholesky factorization graph for a t×t
// tile matrix; LUDAG the tiled LU counterpart.
func CholeskyDAG(t int) (*Graph, error) { return workload.Cholesky(t) }

// LUDAG returns the tiled LU factorization task graph.
func LUDAG(t int) (*Graph, error) { return workload.LU(t) }

// Simulation.
type (
	// SimConfig controls a schedule replay.
	SimConfig = sim.Config
	// SimReport is the outcome of a replay.
	SimReport = sim.Report
)

// Simulate replays a schedule event by event, optionally perturbing
// execution times, and reports achieved makespan and utilization.
func Simulate(s *Schedule, cfg SimConfig) (SimReport, error) { return sim.Run(s, cfg) }

// Fault injection and reactive rescheduling.
type (
	// FaultPlan is a deterministic runtime-fault scenario injected into a
	// replay via SimConfig.Faults: processor crashes, link faults and
	// execution-time jitter, all seeded.
	FaultPlan = sim.FaultPlan
	// Crash is one processor failure window (Until 0 = permanent).
	Crash = sim.Crash
	// LinkFault degrades or severs communication links for a window.
	LinkFault = sim.LinkFault
	// FaultReport is the degradation summary of a faulted replay
	// (SimReport.Faults).
	FaultReport = sim.FaultReport
	// RepairPolicy selects how a schedule is repaired after crashes; see
	// RepairPolicies.
	RepairPolicy = resched.Policy
	// RepairEvent is one observed fail-stop event fed to a repair.
	RepairEvent = resched.Event
	// RepairOutcome summarizes what a reactive repair did.
	RepairOutcome = resched.Outcome
	// RobustnessConfig parameterizes EvalRobustness.
	RobustnessConfig = resched.RobustnessConfig
	// RobustnessReport aggregates degradation over sampled fault plans.
	RobustnessReport = resched.Robustness
)

// ErrProcRange marks schedules or fault plans referencing processors the
// instance does not have; errors.Is recognises it.
var ErrProcRange = sim.ErrProcRange

// ReadFaultPlan decodes and validates a fault plan from JSON.
func ReadFaultPlan(r io.Reader) (*FaultPlan, error) { return sim.ReadFaultPlan(r) }

// SampleCrashes draws a fail-stop fault plan: each processor crashes
// permanently with the given probability, at a time uniform over
// [0, horizon), deterministically per seed. At least one processor
// always survives.
func SampleCrashes(procs int, rate, horizon float64, seed int64) FaultPlan {
	return sim.SampleCrashes(procs, rate, horizon, seed)
}

// RepairPolicies lists the registered reactive repair policies;
// RepairPolicyByName resolves one ("remap-stranded", "reschedule-suffix"
// or "auto" — the default, which tries both and keeps the better).
func RepairPolicies() []RepairPolicy { return resched.Policies() }

// RepairPolicyByName resolves a repair policy by name.
func RepairPolicyByName(name string) (RepairPolicy, error) { return resched.ByName(name) }

// ReactToFaults repairs the schedule against the plan's permanent
// crashes, reacting to each in time order: completed and in-flight work
// is frozen, stranded work moves to surviving processors. A plan with no
// permanent crashes returns the schedule unchanged.
func ReactToFaults(s *Schedule, fp *FaultPlan, p RepairPolicy) (*Schedule, RepairOutcome, error) {
	return resched.React(s, fp, p)
}

// Repair reschedules a schedule around one fail-stop event with the
// remap-stranded policy: work that started before the failure stays,
// pending work keeps its processor and may only slide later, and work
// lost on the dead processor moves to the survivors.
func Repair(s *Schedule, f RepairEvent) (*Schedule, error) {
	r, _, err := AssessFailure(s, f)
	return r, err
}

// AssessFailure is Repair plus the outcome: Nominal and Repaired
// makespans, tasks Lost, and pending tasks Delayed or Remapped.
func AssessFailure(s *Schedule, f RepairEvent) (*Schedule, RepairOutcome, error) {
	p, err := resched.ByName("remap-stranded")
	if err != nil {
		return nil, RepairOutcome{}, err
	}
	return p.Assess(s, []RepairEvent{f})
}

// EvalRobustness measures expected degradation of a schedule under
// sampled fail-stop fault plans with reactive repair.
func EvalRobustness(s *Schedule, cfg RobustnessConfig) (RobustnessReport, error) {
	return resched.EvalRobustness(context.Background(), s, cfg)
}

// ScheduleFromAssignments rebuilds a validated Schedule from explicit
// placements (e.g. decoded from an external tool).
func ScheduleFromAssignments(in *Instance, algorithm string, as []Assignment) (*Schedule, error) {
	return sched.FromAssignments(in, algorithm, as)
}

// Rendering.

// WriteGanttText renders an ASCII Gantt chart of the schedule.
func WriteGanttText(w io.Writer, s *Schedule, width int) error {
	return export.WriteGanttText(w, s, width)
}

// WriteGanttSVG renders the schedule as a self-contained SVG.
func WriteGanttSVG(w io.Writer, s *Schedule) error { return export.WriteGanttSVG(w, s) }

// WriteScheduleJSON writes the schedule as JSON, one record per task copy.
func WriteScheduleJSON(w io.Writer, s *Schedule) error { return export.WriteScheduleJSON(w, s) }

// ReadScheduleJSON rebuilds a schedule written by WriteScheduleJSON
// against the instance it was computed for.
func ReadScheduleJSON(in *Instance, r io.Reader) (*Schedule, error) {
	return export.ReadScheduleJSON(in, r)
}

// WriteChromeTrace writes the schedule in the Chrome trace-event format
// (chrome://tracing, Perfetto).
func WriteChromeTrace(w io.Writer, s *Schedule) error { return export.WriteChromeTrace(w, s) }

// WriteGanttPNG rasterizes the schedule as a PNG Gantt chart of the given
// pixel width.
func WriteGanttPNG(w io.Writer, s *Schedule, width int) error {
	return export.WriteGanttPNG(w, s, width)
}

// Serving.
type (
	// ServiceOptions configures the schedd HTTP service.
	ServiceOptions = service.Options
	// ServiceClient is a client for a running schedd.
	ServiceClient = service.Client
	// ScheduleRequest is the wire form of one scheduling query.
	ScheduleRequest = service.ScheduleRequest
	// ScheduleResponse is the wire form of one scheduling result.
	ScheduleResponse = service.ScheduleResponse
	// ServiceMetrics is the body of schedd's GET /metrics.
	ServiceMetrics = service.MetricsSnapshot
	// BatchRequest is the wire form of POST /v1/schedule/batch: many
	// scheduling queries answered in one round trip.
	BatchRequest = service.BatchRequest
	// BatchResponse carries per-item results in request order.
	BatchResponse = service.BatchResponse
	// BatchItemResult is one item's outcome within a BatchResponse.
	BatchItemResult = service.BatchItemResult
)

// Serve runs the schedd scheduling service until ctx is canceled, then
// shuts down gracefully, draining in-flight requests for at most drain
// (10s if nonpositive). See docs/SERVICE.md for the HTTP API.
func Serve(ctx context.Context, opts ServiceOptions, drain time.Duration) error {
	return service.Serve(ctx, opts, drain)
}

// NewServiceClient returns a client for the schedd at baseURL, e.g.
// "http://127.0.0.1:8080".
func NewServiceClient(baseURL string) *ServiceClient {
	return &ServiceClient{BaseURL: baseURL}
}

// Experiments.
type (
	// Experiment regenerates one table/figure of EXPERIMENTS.md.
	Experiment = experiment.Experiment
	// ExperimentConfig controls experiment effort and seeding.
	ExperimentConfig = experiment.Config
	// ExperimentTable is one rendered result table.
	ExperimentTable = experiment.Table
)

// Experiments returns the reproduction suite E1–E13.
func Experiments() []Experiment { return experiment.All() }

// ExperimentByID returns one experiment of the suite.
func ExperimentByID(id string) (Experiment, error) { return experiment.ByID(id) }

// RenderExperimentMarkdown writes a result table as markdown.
func RenderExperimentMarkdown(w io.Writer, t *ExperimentTable) error {
	return experiment.RenderMarkdown(w, t)
}
