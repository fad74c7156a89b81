// Command schedbench regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	schedbench                  # the full suite E1..E23 as markdown
//	schedbench -exp E2,E9       # selected experiments
//	schedbench -quick           # reduced sweeps (seconds instead of minutes)
//	schedbench -reps 50 -seed 7 # more repetitions, different seed
//	schedbench -scale           # scheduler-throughput sweep -> BENCH_sched.json
//	schedbench -scale -out -    # same, JSON on stdout
//	schedbench -service         # serving-tier batch benchmark -> BENCH_service.json
//	schedbench -stream          # streaming-engine benchmark -> BENCH_stream.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dagsched"
)

func main() {
	var (
		exps      = flag.String("exp", "all", "comma-separated experiment ids (e.g. E1,E9) or 'all'")
		reps      = flag.Int("reps", 0, "repetitions per design point (0 = experiment default)")
		seed      = flag.Int64("seed", 0, "base random seed")
		quick     = flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
		workers   = flag.Int("workers", 0, "repetition worker pool size (0 = GOMAXPROCS); never affects results")
		scale     = flag.Bool("scale", false, "run the scheduler-throughput sweep instead of the experiment suite")
		svc       = flag.Bool("service", false, "run the serving-tier batch benchmark instead of the experiment suite")
		strm      = flag.Bool("stream", false, "run the streaming-engine benchmark (incremental vs full re-plan) instead of the experiment suite")
		out       = flag.String("out", "", "output path for -scale/-service/-stream ('-' = stdout; default BENCH_sched.json / BENCH_service.json / BENCH_stream.json)")
		linkSp    = flag.Float64("link-spread", 0, "per-link transfer-rate spread in [0,2) for -scale instances (0 = uniform links)")
		startSp   = flag.Float64("startup-spread", 0, "per-link startup spread in [0,2) for -scale instances")
		faults    = flag.String("faults", "", "comma-separated crash rates for the robustness experiment E21 (overrides its default sweep)")
		faultSeed = flag.Int64("fault-seed", 0, "fault-plan sampling seed offset for E21")
	)
	flag.Parse()

	modes := 0
	for _, on := range []bool{*scale, *svc, *strm} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fatal(fmt.Errorf("-scale, -service and -stream are mutually exclusive"))
	}
	if *scale {
		path := *out
		if path == "" {
			path = "BENCH_sched.json"
		}
		if err := runScale(path, *reps, *seed, *quick, *linkSp, *startSp); err != nil {
			fatal(err)
		}
		return
	}
	if *svc {
		path := *out
		if path == "" {
			path = "BENCH_service.json"
		}
		if err := runService(path, *reps, *seed, *quick); err != nil {
			fatal(err)
		}
		return
	}
	if *strm {
		path := *out
		if path == "" {
			path = "BENCH_stream.json"
		}
		if err := runStream(path, *reps, *seed, *quick); err != nil {
			fatal(err)
		}
		return
	}

	var selected []dagsched.Experiment
	if *exps == "all" {
		selected = dagsched.Experiments()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			e, err := dagsched.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}
	cfg := dagsched.ExperimentConfig{Reps: *reps, Seed: *seed, Quick: *quick, Workers: *workers, FaultSeed: *faultSeed}
	if *faults != "" {
		for _, s := range strings.Split(*faults, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || r < 0 || r > 1 {
				fatal(fmt.Errorf("-faults: crash rate %q must be a number in [0,1]", s))
			}
			cfg.FaultRates = append(cfg.FaultRates, r)
		}
	}
	fmt.Printf("# dagsched experiment suite (%d experiments, quick=%v, seed=%d)\n\n",
		len(selected), *quick, *seed)
	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		for _, t := range tables {
			if err := dagsched.RenderExperimentMarkdown(os.Stdout, t); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "%s done in %s\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schedbench:", err)
	os.Exit(1)
}
