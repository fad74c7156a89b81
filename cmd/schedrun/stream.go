package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"dagsched"
	"dagsched/internal/platform"
	"dagsched/internal/stream"
)

// runStreamReplay replays an NDJSON event log (as accepted by the
// schedd streaming endpoint) through the incremental engine, printing
// one line per re-plan delta and the final sealed schedule. The log's
// leading config event selects the algorithm and platform, exactly as
// over the wire.
func runStreamReplay(path string, fullRecompute, gantt bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	evs, err := stream.ReadEvents(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(evs) == 0 || evs[0].Op != stream.OpConfig {
		fatal(fmt.Errorf("%s: first event must be %q (algorithm, processors, batchSize)", path, stream.OpConfig))
	}
	cfgEv := evs[0]
	sys, err := platform.UnitSpeed(cfgEv.Processors, cfgEv.Latency, cfgEv.TimePerUnit)
	if err != nil {
		fatal(err)
	}
	eng, err := stream.NewEngine(stream.Config{
		Algorithm:     cfgEv.Algorithm,
		Sys:           sys,
		BatchSize:     cfgEv.BatchSize,
		FullRecompute: fullRecompute,
	})
	if err != nil {
		fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "seq\tclock\ttasks\tedges\treplanned\tfrozen\trank-repaired\tmakespan\tmode")
	for i, ev := range evs[1:] {
		d, err := eng.Apply(ev)
		if err != nil {
			fatal(fmt.Errorf("event %d: %w", i+2, err))
		}
		if d == nil {
			continue
		}
		mode := "incremental"
		if d.FullReplan {
			mode = "full"
		}
		if d.Sealed {
			mode += " (sealed)"
		}
		fmt.Fprintf(tw, "%d\t%.4g\t%d\t%d\t%d\t%d\t%d\t%.4g\t%s\n",
			d.Seq, d.Clock, d.Tasks, d.Edges, d.Replanned, d.Frozen, d.RankRepaired, d.Makespan, mode)
	}
	tw.Flush()

	if !eng.Sealed() {
		fmt.Fprintf(os.Stderr, "schedrun: warning: log ended without a seal event; schedule reflects the last flush\n")
	}
	s := eng.Schedule()
	if s == nil {
		fatal(fmt.Errorf("%s: no flush ran; nothing scheduled", path))
	}
	fmt.Printf("\nstream: %s over %d events -> %d tasks on %d processors, makespan %.4g\n",
		eng.Algorithm(), eng.Events(), eng.Len(), sys.Len(), s.Makespan())
	if gantt {
		fmt.Println()
		if err := dagsched.WriteGanttText(os.Stdout, s, 100); err != nil {
			fatal(err)
		}
	}
}
