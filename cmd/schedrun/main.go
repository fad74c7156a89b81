// Command schedrun schedules one task graph with one algorithm (or every
// registered algorithm with -all), prints the evaluation measures and an
// ASCII Gantt chart, and optionally writes an SVG.
//
// Usage:
//
//	schedgen -type gauss -m 8 -o g.json
//	schedrun -graph g.json -algo ILS -procs 4 -ccr 1 -beta 1
//	schedrun -graph g.json -all -procs 8
//	schedrun -stream events.ndjson
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"text/tabwriter"

	"dagsched"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "task graph JSON (see schedgen); mutually exclusive with -instance")
		instPath  = flag.String("instance", "", "full instance JSON written by a previous -save-instance run")
		saveInst  = flag.String("save-instance", "", "write the generated instance (graph+system+costs) for exact reproduction")
		algoName  = flag.String("algo", "ILS", "algorithm name (see -list)")
		allAlgos  = flag.Bool("all", false, "run every registered algorithm and compare")
		list      = flag.Bool("list", false, "list algorithm names and exit")
		procs     = flag.Int("procs", 8, "processor count")
		ccr       = flag.Float64("ccr", 1.0, "target communication-to-computation ratio")
		beta      = flag.Float64("beta", 1.0, "cost heterogeneity in [0,2); 0 = homogeneous")
		latency   = flag.Float64("latency", 0, "per-message startup latency")
		linkSp    = flag.Float64("link-spread", 0, "per-link transfer-rate spread in [0,2) for -graph instances")
		startSp   = flag.Float64("startup-spread", 0, "per-link startup spread in [0,2) for -graph instances")
		commModel = flag.String("comm-model", "", "communication model the schedulers (and the replay) run under: contention-free|one-port|shared-link; empty keeps the classic matrix costs")
		seed      = flag.Int64("seed", 1, "cost-matrix seed")
		gantt     = flag.Bool("gantt", true, "print an ASCII Gantt chart")
		svg       = flag.String("svg", "", "write the schedule as SVG to this file")
		jsonOut   = flag.String("json", "", "write the schedule as JSON to this file")
		trace     = flag.String("trace", "", "write a Chrome trace (chrome://tracing) to this file")
		noise     = flag.Float64("noise", 0, "replay the schedule with this execution-time noise in [0,1)")
		contend   = flag.Bool("contention", false, "replay under the one-port contention model")
		analyze   = flag.Bool("analyze", false, "print slack/idle analysis of the best schedule")
		failProc  = flag.Int("fail-proc", -1, "simulate a fail-stop of this processor and repair")
		failAt    = flag.Float64("fail-at", 0, "failure time for -fail-proc (fraction of makespan if < 1)")
		streamLog = flag.String("stream", "", "replay an NDJSON event log (config first line) through the incremental streaming engine")
		streamFul = flag.Bool("stream-full", false, "with -stream, re-plan from scratch at every flush (baseline mode)")
		faults    = flag.String("faults", "", "fault-plan JSON file; replay the best schedule under it and repair reactively")
		faultSeed = flag.Int64("fault-seed", 0, "override the fault plan's jitter seed (0 keeps the plan's own)")
		repairPol = flag.String("repair-policy", "auto", "reactive repair policy for -faults: auto|remap-stranded|reschedule-suffix")
	)
	flag.Parse()

	if *list {
		for _, n := range dagsched.AlgorithmNames() {
			fmt.Println(n)
		}
		return
	}
	if *streamLog != "" {
		runStreamReplay(*streamLog, *streamFul, *gantt)
		return
	}
	var in *dagsched.Instance
	switch {
	case *instPath != "":
		f, err := os.Open(*instPath)
		if err != nil {
			fatal(err)
		}
		in, err = dagsched.ReadInstanceJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *graphPath != "":
		f, err := os.Open(*graphPath)
		if err != nil {
			fatal(err)
		}
		g, err := dagsched.ReadGraphJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		rng := rand.New(rand.NewSource(*seed))
		in, err = dagsched.MakeInstance(g, dagsched.WorkloadConfig{
			Procs: *procs, CCR: *ccr, Beta: *beta, Latency: *latency,
			LinkSpread: *linkSp, StartupSpread: *startSp,
		}, rng)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("one of -graph (see schedgen) or -instance is required"))
	}
	if *commModel != "" {
		m, err := dagsched.CommModelByKind(*commModel, in.Sys)
		if err != nil {
			fatal(err)
		}
		in = dagsched.WithCommModel(in, m)
	}
	if *saveInst != "" {
		f, err := os.Create(*saveInst)
		if err != nil {
			fatal(err)
		}
		if err := in.WriteJSON(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *saveInst)
	}
	fmt.Printf("instance: %s\n\n", in)

	var algs []dagsched.Algorithm
	if *allAlgos {
		algs = dagsched.Algorithms()
	} else {
		a, err := dagsched.AlgorithmByName(*algoName)
		if err != nil {
			fatal(err)
		}
		algs = []dagsched.Algorithm{a}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tmakespan\tSLR\tspeedup\tefficiency\tdups\truntime")
	var best *dagsched.Schedule
	for _, a := range algs {
		res, err := dagsched.Evaluate(a, in)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.3f\t%.3f\t%.3f\t%d\t%s\n",
			res.Algorithm, res.Makespan, res.SLR, res.Speedup, res.Efficiency, res.Duplicates, res.RunTime)
		s, err := a.Schedule(in)
		if err != nil {
			fatal(err)
		}
		if best == nil || s.Makespan() < best.Makespan() {
			best = s
		}
	}
	tw.Flush()
	fmt.Println()

	if *gantt {
		if err := dagsched.WriteGanttText(os.Stdout, best, 100); err != nil {
			fatal(err)
		}
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			fatal(err)
		}
		if err := dagsched.WriteGanttSVG(f, best); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *svg)
	}
	if *jsonOut != "" {
		writeWith(*jsonOut, best, dagsched.WriteScheduleJSON)
	}
	if *trace != "" {
		writeWith(*trace, best, dagsched.WriteChromeTrace)
	}
	if *noise > 0 || *contend || *commModel != "" {
		cfg := dagsched.SimConfig{Noise: *noise, Seed: *seed, Contention: *contend}
		if *commModel != "" {
			// Replay under the model the schedulers planned with.
			cfg.Model = in.CommModel()
		}
		rep, err := dagsched.Simulate(best, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nreplay (noise ±%.0f%%, model %s): makespan %.4g (stretch %.3f, %d transfers)\n",
			*noise*100, rep.Model, rep.Makespan, rep.Stretch, rep.Transfers)
	}
	if *analyze {
		an := dagsched.Analyze(best)
		fmt.Printf("\nanalysis: %d critical tasks of %d\n", len(an.Critical), in.N())
		for p, idle := range an.IdleTime {
			fmt.Printf("  P%d idle %.4g (%.0f%% of makespan)\n", p, idle, an.IdleShare[p]*100)
		}
	}
	if *failProc >= 0 {
		ft := *failAt
		if ft < 1 {
			ft *= best.Makespan()
		}
		r, out, err := dagsched.AssessFailure(best, dagsched.RepairEvent{Proc: *failProc, Time: ft})
		if err != nil {
			fatal(err)
		}
		if err := r.Validate(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nfail-stop of P%d at t=%.4g: makespan %.4g -> %.4g (+%.1f%%), %d tasks lost, %d moved\n",
			*failProc, ft, out.Nominal, out.Repaired,
			100*(out.Repaired/out.Nominal-1), out.Lost, out.Delayed+out.Remapped)
	}
	if *faults != "" {
		f, err := os.Open(*faults)
		if err != nil {
			fatal(err)
		}
		fp, err := dagsched.ReadFaultPlan(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if *faultSeed != 0 {
			fp.Seed = *faultSeed
		}
		rep, err := dagsched.Simulate(best, dagsched.SimConfig{Faults: fp})
		if err != nil {
			fatal(err)
		}
		fr := rep.Faults
		fmt.Printf("\nfault replay (%d crashes, %d link faults, jitter ±%.0f%%): makespan %.4g -> %.4g\n",
			len(fp.Crashes), len(fp.Links), fp.Jitter*100, fr.Nominal, rep.Makespan)
		fmt.Printf("  %d/%d tasks completed, %d stranded, %d executions killed, %d restarted\n",
			fr.Completed, in.N(), len(fr.Stranded), fr.Killed, fr.Restarts)
		pol, err := dagsched.RepairPolicyByName(*repairPol)
		if err != nil {
			fatal(err)
		}
		r, out, err := dagsched.ReactToFaults(best, fp, pol)
		if err != nil {
			fatal(err)
		}
		if r == best {
			fmt.Println("  no permanent crash: nothing to repair")
		} else {
			if err := r.Validate(); err != nil {
				fatal(err)
			}
			fmt.Printf("  repair (%s): makespan %.4g -> %.4g (+%.1f%%), %d frozen, %d lost, %d remapped, %d delayed\n",
				out.Policy, out.Nominal, out.Repaired, 100*(out.Repaired/out.Nominal-1),
				out.Frozen, out.Lost, out.Remapped, out.Delayed)
		}
	}
}

// writeWith writes the schedule to path using the given renderer.
func writeWith(path string, s *dagsched.Schedule, render func(io.Writer, *dagsched.Schedule) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := render(f, s); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schedrun:", err)
	os.Exit(1)
}
