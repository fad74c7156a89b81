package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dagsched"
)

// scaleSizeCap bounds the DAG size each algorithm is timed at, mirroring
// benchSizeCap in the repository's bench_test.go. ETF and DLS scan every
// (ready task, processor) pair per pick: they stop at 1k. The
// duplicating schedulers (ILS-D, DSH, BTDH) and DSC's clustering reach
// the 10k tier; the paper's ILS and the insertion list schedulers reach
// 100k, and HEFT, the suite's reference algorithm, the million-task
// tier. Unlisted algorithms stop at scaleDefaultCap.
var scaleSizeCap = map[string]int{
	"ETF":   1000,
	"DLS":   1000,
	"ILS":   100000,
	"ILS-L": 10000,
	"ILS-D": 10000,
	"ILS-R": 10000,
	"DSH":   10000,
	"BTDH":  10000,
	"DSC":   10000,
	"HEFT":  1000000,
	"CPOP":  100000,
	"HLFET": 100000,
	"MCP":   100000,
	"ISH":   100000,
	"HCPT":  100000,
	"LMT":   100000,
	"PETS":  100000,
}

// scaleDefaultCap bounds algorithms without an explicit entry above.
const scaleDefaultCap = 10000

// scaleParallelGate bounds the sizes measured by the parallel-throughput
// column: concurrent scheduling of independent instances models the
// service tier, which serves many small problems rather than one huge
// one.
const scaleParallelGate = 10000

// scaleReport is the machine-readable output of the -scale mode.
type scaleReport struct {
	Suite     string        `json:"suite"`
	GoVersion string        `json:"go_version"`
	GoOSArch  string        `json:"goos_goarch"`
	CPU       string        `json:"cpu"`
	Config    scaleConfig   `json:"config"`
	Results   []scaleResult `json:"results"`
}

// cpuModel reports the hardware the numbers were taken on, so absolute
// timings in committed reports can be compared meaningfully. Falls back
// to a generic GOMAXPROCS note when /proc/cpuinfo is unavailable.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v) + fmt.Sprintf(" (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
				}
			}
		}
	}
	return fmt.Sprintf("unknown (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
}

type scaleConfig struct {
	Sizes         []int   `json:"sizes"`
	Procs         int     `json:"procs"`
	CCR           float64 `json:"ccr"`
	Beta          float64 `json:"beta"`
	LinkSpread    float64 `json:"link_spread,omitempty"`
	StartupSpread float64 `json:"startup_spread,omitempty"`
	Reps          int     `json:"reps"`
	Seed          int64   `json:"seed"`
	// MaxProcs is the GOMAXPROCS the parallel-throughput column ran
	// under — its concurrency level.
	MaxProcs int `json:"maxprocs"`
}

type scaleResult struct {
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	Edges     int     `json:"edges"`
	Reps      int     `json:"reps"`
	BestNs    int64   `json:"best_ns"`
	MeanNs    int64   `json:"mean_ns"`
	NsPerTask float64 `json:"ns_per_task"`
	// BytesPerTask is the heap allocated per task by one steady-state
	// Schedule call (TotalAlloc delta over the measured rep divided by n) —
	// the memory-scaling headline for the 100k–1M tiers.
	BytesPerTask float64 `json:"bytes_per_task"`
	Makespan     float64 `json:"makespan"`
	// ParNsPerTask is the per-task cost when GOMAXPROCS independent
	// instances are scheduled concurrently (total tasks / wall-clock):
	// the service-tier throughput figure. Zero when the size is above
	// the parallel gate or the host has a single CPU's worth of
	// parallelism to offer.
	ParNsPerTask float64 `json:"par_ns_per_task,omitempty"`
	// ParSpeedup is BestNs-per-task divided by ParNsPerTask — how much
	// aggregate throughput concurrent scheduling buys over one core.
	ParSpeedup float64 `json:"par_speedup,omitempty"`
}

// runScale times every registry algorithm on layered random DAGs at the
// given sizes over 8 processors (CCR 1, heterogeneity 1 — the same design
// point BenchmarkAlgorithms uses) and writes the measurements as JSON.
// Best-of-reps is the headline number: wall-clock minima are the standard
// low-noise point estimate for CPU-bound work.
func runScale(outPath string, reps int, seed int64, quick bool, linkSpread, startupSpread float64) error {
	sizes := []int{100, 1000, 10000, 100000, 1000000}
	if quick {
		sizes = []int{100, 1000}
	}
	if reps <= 0 {
		reps = 3
	}
	par := runtime.GOMAXPROCS(0)
	rep := scaleReport{
		Suite:     "dagsched-scale",
		GoVersion: runtime.Version(),
		GoOSArch:  runtime.GOOS + "/" + runtime.GOARCH,
		CPU:       cpuModel(),
		Config: scaleConfig{Sizes: sizes, Procs: 8, CCR: 1, Beta: 1,
			LinkSpread: linkSpread, StartupSpread: startupSpread, Reps: reps, Seed: seed,
			MaxProcs: par},
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(seed + int64(n)))
		g, err := dagsched.RandomDAG(dagsched.RandomDAGConfig{N: n}, rng)
		if err != nil {
			return err
		}
		in, err := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 8, CCR: 1, Beta: 1,
			LinkSpread: linkSpread, StartupSpread: startupSpread}, rng)
		if err != nil {
			return err
		}
		// Independent instances for the parallel-throughput column: one
		// per GOMAXPROCS slot, each its own graph and system, so
		// concurrent Schedule calls share no mutable state. Gated at the
		// 10k tier — above it the sequential sweep already costs seconds
		// per rep, and service-style concurrency serves many small
		// problems, not one huge one.
		var parIns []*dagsched.Instance
		if n <= scaleParallelGate {
			parIns = append(parIns, in)
			for c := 1; c < par; c++ {
				pg, err := dagsched.RandomDAG(dagsched.RandomDAGConfig{N: n}, rng)
				if err != nil {
					return err
				}
				pin, err := dagsched.MakeInstance(pg, dagsched.WorkloadConfig{Procs: 8, CCR: 1, Beta: 1,
					LinkSpread: linkSpread, StartupSpread: startupSpread}, rng)
				if err != nil {
					return err
				}
				parIns = append(parIns, pin)
			}
		}
		for _, a := range dagsched.Algorithms() {
			cap, ok := scaleSizeCap[a.Name()]
			if !ok {
				cap = scaleDefaultCap
			}
			if n > cap {
				continue
			}
			// The 100k and 1M tiers run seconds per rep; steady-state noise
			// is proportionally small there, so fewer reps keep the whole
			// sweep tractable without hurting the best-of estimate.
			effReps := reps
			if n >= 1000000 && effReps > 1 {
				effReps = 1
			} else if n >= 100000 && effReps > 2 {
				effReps = 2
			}
			res := scaleResult{Algorithm: a.Name(), N: n, Edges: g.NumEdges(), Reps: effReps}
			// One untimed warmup rep: the first run pays one-off heap
			// growth and cache warming that would otherwise dominate the
			// mean for sub-millisecond algorithms; the reported numbers
			// are steady-state scheduling cost (as testing.B measures).
			if _, err := a.Schedule(in); err != nil {
				return fmt.Errorf("%s at n=%d: %w", a.Name(), n, err)
			}
			var total time.Duration
			var ms runtime.MemStats
			for r := 0; r < effReps; r++ {
				var allocBefore uint64
				if r == 0 {
					runtime.ReadMemStats(&ms)
					allocBefore = ms.TotalAlloc
				}
				start := time.Now()
				s, err := a.Schedule(in)
				elapsed := time.Since(start)
				if err != nil {
					return fmt.Errorf("%s at n=%d: %w", a.Name(), n, err)
				}
				if r == 0 {
					res.Makespan = s.Makespan()
					// TotalAlloc is a monotone allocation counter, so the
					// delta is GC-independent: exactly the bytes this
					// steady-state rep allocated.
					runtime.ReadMemStats(&ms)
					res.BytesPerTask = float64(ms.TotalAlloc-allocBefore) / float64(n)
				}
				total += elapsed
				if res.BestNs == 0 || elapsed.Nanoseconds() < res.BestNs {
					res.BestNs = elapsed.Nanoseconds()
				}
			}
			res.MeanNs = total.Nanoseconds() / int64(effReps)
			res.NsPerTask = float64(res.BestNs) / float64(n)
			if len(parIns) > 0 {
				best, err := parallelThroughput(a, parIns, effReps)
				if err != nil {
					return fmt.Errorf("%s parallel at n=%d: %w", a.Name(), n, err)
				}
				res.ParNsPerTask = float64(best.Nanoseconds()) / float64(n*len(parIns))
				if res.ParNsPerTask > 0 {
					res.ParSpeedup = res.NsPerTask / res.ParNsPerTask
				}
			}
			rep.Results = append(rep.Results, res)
			fmt.Fprintf(os.Stderr, "scale: %-8s n=%-7d best=%-12s ns/task=%-8.0f B/task=%-8.0f par=%.2fx\n",
				res.Algorithm, n, time.Duration(res.BestNs).Round(time.Microsecond), res.NsPerTask, res.BytesPerTask, res.ParSpeedup)
		}
	}
	return writeScaleReport(&rep, outPath)
}

// parallelThroughput times len(ins) concurrent Schedule calls — one
// goroutine per independent instance — returning the best wall-clock of
// reps rounds. One untimed warm round matches the sequential protocol.
func parallelThroughput(a dagsched.Algorithm, ins []*dagsched.Instance, reps int) (time.Duration, error) {
	run := func() (time.Duration, error) {
		errs := make([]error, len(ins))
		var wg sync.WaitGroup
		start := time.Now()
		for c, in := range ins {
			wg.Add(1)
			go func(c int, in *dagsched.Instance) {
				defer wg.Done()
				_, errs[c] = a.Schedule(in)
			}(c, in)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return elapsed, nil
	}
	if _, err := run(); err != nil {
		return 0, err
	}
	var best time.Duration
	for r := 0; r < reps; r++ {
		elapsed, err := run()
		if err != nil {
			return 0, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

func writeScaleReport(rep *scaleReport, outPath string) error {
	sort.SliceStable(rep.Results, func(i, j int) bool {
		if rep.Results[i].N != rep.Results[j].N {
			return rep.Results[i].N < rep.Results[j].N
		}
		return rep.Results[i].Algorithm < rep.Results[j].Algorithm
	})
	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(outPath, buf, 0o644)
}
