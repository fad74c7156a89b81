package stream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// hetInstance draws a random layered DAG on a heterogeneous platform:
// inconsistent costs (β=1) and per-link rates spread by 0.5.
func hetInstance(t testing.TB, seed int64, n, procs int) *sched.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := workload.Random(workload.RandomConfig{N: n}, rng)
	if err != nil {
		t.Fatalf("random DAG: %v", err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: procs, CCR: 1, Beta: 1, LinkSpread: 0.5}, rng)
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	return in
}

// withClockAdvances inserts an advance before every gap-th task arrival,
// the clock rising linearly to half the makespan at the end of the log.
func withClockAdvances(evs []Event, gap int, makespan float64) []Event {
	n := 0
	for _, ev := range evs {
		if ev.Op == OpAddTask {
			n++
		}
	}
	out := make([]Event, 0, len(evs)+n/gap+1)
	for _, ev := range evs {
		if ev.Op == OpAddTask && ev.ID > 0 && ev.ID%gap == 0 {
			out = append(out, Event{Op: OpAdvance, Clock: 0.5 * makespan * float64(ev.ID) / float64(n)})
		}
		out = append(out, ev)
	}
	return out
}

// nonDupFamilies are the streaming algorithms the pinned suites replay:
// the four baselines and two grid points off the baselines' axes.
var nonDupFamilies = []string{"HEFT", "HLFET", "CPOP", "ETF", "LS/u/ready/est/ins/nodup", "LS/sl/static/eft/noins/nodup"}

// namedLog is one event log of a pinned suite.
type namedLog struct {
	name string
	evs  []Event
}

// goldenLogs returns the event logs of the delta golden: topological,
// reverse and shuffled arrival, plus topological arrival with a clock
// advance every 16 tasks.
func goldenLogs(t *testing.T, in *sched.Instance) []namedLog {
	t.Helper()
	orders := arrivalOrders(in, 13)
	var logs []namedLog
	for _, name := range []string{"topo", "reverse", "shuffled"} {
		evs, err := InstanceEvents(in, orders[name])
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, namedLog{name, evs})
	}
	s, err := listsched.HEFT{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return append(logs, namedLog{"topo+advance", withClockAdvances(logs[0].evs, 16, s.Makespan())})
}

// deltaGolden is the sha256 of every JSON-encoded delta and every sealed
// schedule digest of TestStreamDeltaGolden's 144 replays.
const deltaGolden = "4565f294d8aafbf12c677eea56e0e742e55bdcaf012e1eacc79efed21511a92d"

// deltaGoldenMasked is deltaGolden with every delta's rank-repair
// counters (RankRepaired, FullRanks) zeroed before encoding: the
// placements, makespans and sealed schedules alone. It was recorded
// while the rank repair still ran a heap with a full-sweep fallback, so
// it pins that the bitmap sweep changed only what the counters report.
const deltaGoldenMasked = "dafb193e4765e4b1893949f76fa7d9047539fd57dbb1fd70fa1ff0d423c9b0e8"

// TestStreamDeltaGolden pins the engine's observable output: 6
// algorithms × 4 arrival logs × batch 1/8/32 × incremental and full
// recompute. Any change to a delta (placements, counters, makespan) or
// to a sealed schedule moves the hash. Every delta flags FullRanks
// exactly when it recomputed every rank.
func TestStreamDeltaGolden(t *testing.T) {
	in := hetInstance(t, 2718, 300, 6)
	h, masked := sha256.New(), sha256.New()
	both := io.MultiWriter(h, masked)
	replays := 0
	for _, alg := range nonDupFamilies {
		for _, log := range goldenLogs(t, in) {
			for _, batch := range []int{1, 8, 32} {
				for _, full := range []bool{false, true} {
					cfg := Config{Algorithm: alg, Sys: in.Sys, BatchSize: batch, FullRecompute: full}
					ds, eng, err := Replay(cfg, log.evs)
					if err != nil {
						t.Fatalf("%s/%s batch=%d full=%v: %v", alg, log.name, batch, full, err)
					}
					fmt.Fprintf(both, "%s/%s/%d/%v\n", alg, log.name, batch, full)
					for _, d := range ds {
						if d.FullRanks != (d.RankRepaired == d.Tasks) {
							t.Fatalf("%s/%s batch=%d full=%v seq %d: fullRanks=%v with %d of %d ranks recomputed",
								alg, log.name, batch, full, d.Seq, d.FullRanks, d.RankRepaired, d.Tasks)
						}
						b, err := json.Marshal(d)
						if err != nil {
							t.Fatal(err)
						}
						h.Write(b)
						h.Write([]byte{'\n'})
						m := d
						m.RankRepaired, m.FullRanks = 0, false
						if b, err = json.Marshal(m); err != nil {
							t.Fatal(err)
						}
						masked.Write(b)
						masked.Write([]byte{'\n'})
					}
					fmt.Fprintf(both, "sealed %s\n", testfix.ScheduleDigest(eng.Schedule()))
					replays++
				}
			}
		}
	}
	if replays != 144 {
		t.Fatalf("%d replays, want 144", replays)
	}
	if got := hex.EncodeToString(masked.Sum(nil)); got != deltaGoldenMasked {
		t.Fatalf("masked delta golden %s, want %s", got, deltaGoldenMasked)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != deltaGolden {
		t.Fatalf("delta golden %s, want %s", got, deltaGolden)
	}
}

// TestStreamMidStreamScheduleStable: a schedule taken between flushes
// is a snapshot. Later events grow the engine's graph and instance, but
// the snapshot keeps validating against the graph it was taken on, with
// an unchanged digest.
func TestStreamMidStreamScheduleStable(t *testing.T) {
	in := hetInstance(t, 5, 200, 4)
	for name, arrival := range arrivalOrders(in, 5) {
		evs, err := InstanceEvents(in, arrival)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(Config{Algorithm: "HEFT", Sys: in.Sys, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		var mid *sched.Schedule
		var midDigest string
		for i, ev := range evs {
			if _, err := eng.Apply(ev); err != nil {
				t.Fatalf("%s: event %d: %v", name, i, err)
			}
			if mid == nil && i >= len(evs)/2 && eng.Schedule() != nil {
				mid = eng.Schedule()
				if err := mid.Validate(); err != nil {
					t.Fatalf("%s: mid-stream schedule invalid: %v", name, err)
				}
				midDigest = testfix.ScheduleDigest(mid)
			}
		}
		if mid == nil || mid.Instance().N() >= in.N() {
			t.Fatalf("%s: no mid-stream schedule short of the full graph", name)
		}
		if err := mid.Validate(); err != nil {
			t.Fatalf("%s: mid-stream schedule invalid after the rest of the stream: %v", name, err)
		}
		if got := testfix.ScheduleDigest(mid); got != midDigest {
			t.Fatalf("%s: mid-stream digest moved %s -> %s", name, midDigest, got)
		}
	}
}

// TestStreamSealedAdvanceOracle is the sealed case of the clock-advance
// oracle: a stream sealed after clock advances equals Param.Replan on
// the log's static instance, seeded with the sealed placements that
// start before the final clock and ranked by the static instance's own
// priority vector.
func TestStreamSealedAdvanceOracle(t *testing.T) {
	in := hetInstance(t, 77, 240, 5)
	topo := arrivalOrders(in, 0)["topo"]
	base, err := InstanceEvents(in, topo)
	if err != nil {
		t.Fatal(err)
	}
	s, err := listsched.HEFT{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	evs := withClockAdvances(base, 16, s.Makespan())
	sin, err := StaticInstance(evs, in.Sys, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range nonDupFamilies {
		pm, err := ParamFor(alg)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 8, 32} {
			for _, full := range []bool{false, true} {
				_, eng, err := Replay(Config{Algorithm: alg, Sys: in.Sys, BatchSize: batch, FullRecompute: full}, evs)
				if err != nil {
					t.Fatalf("%s batch=%d full=%v: %v", alg, batch, full, err)
				}
				sealed := eng.Schedule()
				var frozen []sched.Assignment
				for v := 0; v < sin.N(); v++ {
					if a := sealed.Primary(dag.TaskID(v)); a.Start < eng.Clock() {
						frozen = append(frozen, a)
					}
				}
				if len(frozen) == 0 {
					t.Fatalf("%s batch=%d: clock froze nothing", alg, batch)
				}
				pl, err := pm.Replan(context.Background(), sin, pm.PriorityVector(sin), frozen, eng.Clock())
				if err != nil {
					t.Fatal(err)
				}
				want := testfix.ScheduleDigest(pl.Finalize(pm.Name()))
				if got := testfix.ScheduleDigest(sealed); got != want {
					t.Errorf("%s batch=%d full=%v: sealed digest %s, oracle %s", alg, batch, full, got, want)
				}
			}
		}
	}
}

// TestStreamFlushCostFlat: a flush costs its batch, not the graph, so
// the bytes a replay allocates per task stay flat as the log grows.
func TestStreamFlushCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("replays an 8000-task log")
	}
	perTask := func(n int) float64 {
		in := hetInstance(t, int64(n), n, 8)
		evs, err := InstanceEvents(in, arrivalOrders(in, 0)["topo"])
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Algorithm: "HEFT", Sys: in.Sys, BatchSize: 8}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, _, err := Replay(cfg, evs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	small, large := perTask(1000), perTask(8000)
	t.Logf("bytes/task: n=1000 %.0f, n=8000 %.0f (%.2fx)", small, large, large/small)
	if large > 2*small {
		t.Fatalf("bytes/task grew %.2fx from n=1000 to n=8000 (%.0f -> %.0f), want <= 2x", large/small, small, large)
	}
}
