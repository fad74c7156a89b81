package main

import (
	"fmt"
	"runtime"
	"time"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/metrics"
	"dagsched/internal/stream"
	"dagsched/internal/testfix"
)

// streamBlock holds the samples of one block of replays.
type streamBlock struct {
	applySecs         float64   // Σ Engine.Apply wall time
	events            int       // events applied
	tasks             int       // tasks of the replays
	allocs            uint64    // TotalAlloc growth inside the replays
	replan            []float64 // ms of the Apply calls that emitted a Delta
	repair, fullRank  []float64 // ms of the non-seal ones, split by FullRanks
	seal              []float64 // ms of the sealing ones
	ingestSecs        float64   // Σ wall time of the Apply calls that emitted none
	ingestCalls       int
	attempted, failed int
	replays           int
	// Delta counters over the non-seal flushes.
	flushes, fullRanks, fullReplan  int
	replanned, rankRepaired, frozen int
}

func (ph *streamBlock) ops() (attempted, failed int) { return ph.attempted, ph.failed }

// mergeStream folds blocks into one.
func mergeStream(bs []block) *streamBlock {
	out := &streamBlock{}
	for _, x := range bs {
		ph := x.(*streamBlock)
		out.applySecs += ph.applySecs
		out.events += ph.events
		out.tasks += ph.tasks
		out.allocs += ph.allocs
		out.replan = append(out.replan, ph.replan...)
		out.repair = append(out.repair, ph.repair...)
		out.fullRank = append(out.fullRank, ph.fullRank...)
		out.seal = append(out.seal, ph.seal...)
		out.ingestSecs += ph.ingestSecs
		out.ingestCalls += ph.ingestCalls
		out.attempted += ph.attempted
		out.failed += ph.failed
		out.replays += ph.replays
		out.flushes += ph.flushes
		out.fullRanks += ph.fullRanks
		out.fullReplan += ph.fullReplan
		out.replanned += ph.replanned
		out.rankRepaired += ph.rankRepaired
		out.frozen += ph.frozen
	}
	return out
}

// streamBench replays event logs through stream.Engine, round robin
// over the logs. It is the workload that runs dag.Appendable, the rank
// repair with its full-rank fallback and suffix re-planning.
type streamBench struct {
	sz      sizes
	logs    []streamLog
	digests []string  // of each log's sealed schedule
	slr     []float64 // of each log's sealed schedule
	next    int
	probed  int // next log whose instance to probe
}

func newStream(seed int64, sz sizes, rec *recorder) (bench, error) {
	logs, err := streamLogs(seed, sz, rec)
	if err != nil {
		return nil, err
	}
	b := &streamBench{sz: sz, logs: logs, digests: make([]string, len(logs)), slr: make([]float64, len(logs))}
	for i, l := range logs {
		if l.Advances {
			continue
		}
		in, err := stream.StaticInstance(l.Events, l.In.Sys, "")
		if err != nil {
			return nil, fmt.Errorf("log %d: %w", i, err)
		}
		s, err := listsched.HEFT{}.Schedule(in)
		if err != nil {
			return nil, fmt.Errorf("log %d: %w", i, err)
		}
		b.digests[i] = testfix.ScheduleDigest(s)
	}
	return b, nil
}

// warm replays every log once, untimed. A horizon-zero log must seal to
// static HEFT's schedule of its instance and an advancing one to a
// valid schedule; each sealed schedule is then the reference its log's
// later replays must equal, and gives the log's SLR.
func (b *streamBench) warm() error {
	for i, l := range b.logs {
		eng, err := b.apply(i, &streamBlock{}, nil, nil)
		if err != nil {
			return fmt.Errorf("log %d: %w", i, err)
		}
		s := eng.Schedule()
		if !eng.Sealed() || s == nil {
			return fmt.Errorf("log %d did not seal", i)
		}
		d := testfix.ScheduleDigest(s)
		if l.Advances {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("log %d: invalid sealed schedule: %w", i, err)
			}
			b.digests[i] = d
		} else if d != b.digests[i] {
			return fmt.Errorf("log %d: sealed schedule differs from static HEFT", i)
		}
		b.slr[i] = metrics.SLR(s)
	}
	return nil
}

// measure replays whole logs until the deadline has passed. A traced
// block then probes the layers on one log's instance, after its
// deadline, so the probe never counts in the traced end-to-end numbers.
func (b *streamBench) measure(until time.Time, tr *tracer) (block, error) {
	ph := &streamBlock{}
	var rec *recorder
	if tr != nil {
		rec = tr.recorder(0)
	}
	for {
		i := b.next % len(b.logs)
		b.next++
		eng, err := b.apply(i, ph, rec, tr)
		if err != nil || !eng.Sealed() || testfix.ScheduleDigest(eng.Schedule()) != b.digests[i] {
			ph.failed++
		}
		if !time.Now().Before(until) {
			break
		}
	}
	if rec != nil {
		l := b.logs[b.probed%len(b.logs)]
		b.probed++
		if err := probe(l.In, rec, tr); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// apply replays log i through a fresh engine, timing every Apply call.
// Only the replay is inside the allocation window; the caller checks
// the sealed schedule outside it.
func (b *streamBench) apply(i int, ph *streamBlock, rec *recorder, tr *tracer) (*stream.Engine, error) {
	l := b.logs[i]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	defer func() {
		runtime.ReadMemStats(&m1)
		ph.allocs += m1.TotalAlloc - m0.TotalAlloc
	}()
	eng, err := stream.NewEngine(stream.Config{Algorithm: "HEFT", Sys: l.In.Sys, BatchSize: b.sz.BatchSize})
	if err != nil {
		ph.attempted++
		return nil, err
	}
	var op int64
	root, ingest := -1, -1
	if rec != nil {
		op = tr.op()
		root = rec.open("stream.replay", time.Now(), -1, op)
		defer func() { rec.close(root, time.Now()) }()
	}
	ph.replays++
	ph.tasks += l.In.N()
	for _, ev := range l.Events {
		t0 := time.Now()
		d, err := eng.Apply(ev)
		t1 := time.Now()
		dt := t1.Sub(t0)
		ph.attempted++
		ph.applySecs += dt.Seconds()
		ph.events++
		if err != nil {
			return nil, err
		}
		if d == nil {
			ph.ingestSecs += dt.Seconds()
			ph.ingestCalls++
			if rec != nil {
				// One span covers a run of ingest calls; Val counts them.
				if ingest < 0 {
					ingest = rec.open("stream.ingest", t0, root, op)
				}
				rec.extend(ingest, t1)
			}
			continue
		}
		ingest = -1
		ph.replan = append(ph.replan, ms(dt))
		name := "stream.seal"
		switch {
		case d.Sealed:
			ph.seal = append(ph.seal, ms(dt))
		case d.FullRanks:
			ph.fullRank = append(ph.fullRank, ms(dt))
			name = "stream.replan_fullrank"
		default:
			ph.repair = append(ph.repair, ms(dt))
			name = "stream.replan_repair"
		}
		if !d.Sealed {
			ph.flushes++
			ph.replanned += d.Replanned
			ph.rankRepaired += d.RankRepaired
			ph.frozen += d.Frozen
			if d.FullRanks {
				ph.fullRanks++
			}
			if d.FullReplan {
				ph.fullReplan++
			}
		}
		if rec != nil {
			rec.add(name, t0, t1, root, op, float64(d.Replanned))
		}
	}
	return eng, nil
}

// endToEnd reports the tasks ingested per second of Apply wall time, the
// latency of the Apply calls that re-plan, the bytes a replay allocates
// per task, and the mean SLR of the logs' sealed schedules.
func (b *streamBench) endToEnd(bs []block) []metric {
	ph := mergeStream(bs)
	return []metric{
		{"tasks_per_s", ratio(float64(ph.tasks), ph.applySecs)},
		{"p50_ms", quantile(ph.replan, 0.50)},
		{"p90_ms", quantile(ph.replan, 0.90)},
		{"alloc_bytes_per_task", ratio(float64(ph.allocs), float64(ph.tasks))},
		{"mean_slr", mean(b.slr)},
	}
}

// details splits the replays by the kind of Apply call and reports what
// the flushes did.
func (b *streamBench) details(bs []block) []metric {
	ph := mergeStream(bs)
	flushes := float64(ph.flushes)
	return []metric{
		{"events_per_s", ratio(float64(ph.events), ph.applySecs)},
		{"p99_ms", quantile(ph.replan, 0.99)},
		{"stream.ingest_us", 1e6 * ratio(ph.ingestSecs, float64(ph.ingestCalls))},
		{"stream.replan_repair_ms", median(ph.repair)},
		{"stream.replan_fullrank_ms", median(ph.fullRank)},
		{"stream.seal_ms", median(ph.seal)},
		{"stream.full_ranks_ratio", ratio(float64(ph.fullRanks), flushes)},
		{"stream.full_replan_ratio", ratio(float64(ph.fullReplan), flushes)},
		{"stream.replanned_per_flush", ratio(float64(ph.replanned), flushes)},
		{"stream.rank_repaired_per_flush", ratio(float64(ph.rankRepaired), flushes)},
		{"stream.frozen_per_flush", ratio(float64(ph.frozen), flushes)},
	}
}

func (b *streamBench) props(bs []block) map[string]any {
	type log struct {
		N        int  `json:"n"`
		Edges    int  `json:"edges"`
		P        int  `json:"p"`
		Events   int  `json:"events"`
		Advances bool `json:"advances"`
	}
	var logs []log
	advancing := 0
	for _, l := range b.logs {
		logs = append(logs, log{l.In.N(), l.In.G.NumEdges(), l.In.P(), len(l.Events), l.Advances})
		if l.Advances {
			advancing++
		}
	}
	all := mergeStream(bs)
	return map[string]any{
		"logs":           logs,
		"batchSize":      b.sz.BatchSize,
		"advancingShare": ratio(float64(advancing), float64(len(b.logs))),
		"fullRanksShare": ratio(float64(all.fullRanks), float64(all.flushes)),
	}
}

func (b *streamBench) close() {}
