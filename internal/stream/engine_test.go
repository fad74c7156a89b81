package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// streamInstance builds a random layered instance with heterogeneous
// cost rows for the equivalence tests.
func streamInstance(t testing.TB, seed int64, n, procs int) *sched.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := workload.Random(workload.RandomConfig{N: n}, rng)
	if err != nil {
		t.Fatalf("random DAG: %v", err)
	}
	sys := platform.Homogeneous(procs, 1, 1)
	w := make([][]float64, n)
	for v := 0; v < n; v++ {
		row := make([]float64, procs)
		for p := range row {
			row[p] = g.Task(dag.TaskID(v)).Weight * (0.5 + rng.Float64())
		}
		w[v] = row
	}
	in, err := sched.NewInstance(g, sys, w)
	if err != nil {
		t.Fatalf("instance: %v", err)
	}
	return in
}

// arrivalOrders returns the arrival permutations the equivalence tests
// stream under: topological (ids ascend in workload.Random), reverse
// topological (every edge violates the ingestion order), and shuffled.
func arrivalOrders(in *sched.Instance, seed int64) map[string][]dag.TaskID {
	n := in.N()
	topo := make([]dag.TaskID, n)
	rev := make([]dag.TaskID, n)
	shuf := make([]dag.TaskID, n)
	for i := 0; i < n; i++ {
		topo[i] = dag.TaskID(i)
		rev[i] = dag.TaskID(n - 1 - i)
		shuf[i] = dag.TaskID(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	return map[string][]dag.TaskID{"topo": topo, "reverse": rev, "shuffled": shuf}
}

// TestStreamHorizonZeroMatchesStatic is DESIGN.md invariant 13: a sealed
// stream with no clock advances is bit-identical to static scheduling of
// the final graph, for every supported algorithm family, regardless of
// arrival order, batch size or full-recompute mode.
func TestStreamHorizonZeroMatchesStatic(t *testing.T) {
	algorithms := []string{"HEFT", "HLFET", "CPOP", "ETF", "LS/u/ready/est/ins/nodup"}
	in := streamInstance(t, 7, 120, 4)
	sys := platform.Homogeneous(4, 1, 1)

	for _, algName := range algorithms {
		for orderName, arrival := range arrivalOrders(in, 11) {
			evs, err := InstanceEvents(in, arrival)
			if err != nil {
				t.Fatalf("%s/%s: events: %v", algName, orderName, err)
			}
			sin, err := StaticInstance(evs, sys, "static")
			if err != nil {
				t.Fatalf("%s/%s: static instance: %v", algName, orderName, err)
			}
			pm, err := ParamFor(algName)
			if err != nil {
				t.Fatalf("%s: param: %v", algName, err)
			}
			want, err := pm.Schedule(sin)
			if err != nil {
				t.Fatalf("%s/%s: static schedule: %v", algName, orderName, err)
			}
			wantDigest := testfix.ScheduleDigest(want)

			for _, batch := range []int{1, 7, 32} {
				for _, full := range []bool{false, true} {
					cfg := Config{Algorithm: algName, Sys: sys, BatchSize: batch, FullRecompute: full}
					_, eng, err := Replay(cfg, evs)
					if err != nil {
						t.Fatalf("%s/%s batch=%d full=%v: replay: %v", algName, orderName, batch, full, err)
					}
					got := testfix.ScheduleDigest(eng.Schedule())
					if got != wantDigest {
						t.Errorf("%s/%s batch=%d full=%v: sealed digest %s != static %s (makespan %v vs %v)",
							algName, orderName, batch, full, got, wantDigest,
							eng.Schedule().Makespan(), want.Makespan())
					}
				}
			}
		}
	}
}

// TestStreamDeterministicReplay: the same event log yields the same
// deltas and the same schedule, replay after replay.
func TestStreamDeterministicReplay(t *testing.T) {
	in := streamInstance(t, 9, 80, 3)
	evs, err := InstanceEvents(in, arrivalOrders(in, 3)["shuffled"])
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: "HEFT", Sys: platform.Homogeneous(3, 1, 1), BatchSize: 5}
	d1, e1, err := Replay(cfg, evs)
	if err != nil {
		t.Fatal(err)
	}
	d2, e2, err := Replay(cfg, evs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("replaying the same log produced different deltas")
	}
	if testfix.ScheduleDigest(e1.Schedule()) != testfix.ScheduleDigest(e2.Schedule()) {
		t.Fatal("replaying the same log produced different schedules")
	}
	if len(d1) == 0 || !d1[len(d1)-1].Sealed {
		t.Fatal("last delta not sealed")
	}
}

// TestStreamFrozenHorizonPersists: once the clock passes a placement's
// start it never moves again, and the sealed schedule stays valid.
func TestStreamFrozenHorizonPersists(t *testing.T) {
	in := streamInstance(t, 21, 100, 4)
	n := in.N()
	arrival := arrivalOrders(in, 0)["topo"]
	base, err := InstanceEvents(in, arrival)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate the makespan once to pick meaningful clock values.
	cfg := Config{Algorithm: "HEFT", Sys: platform.Homogeneous(4, 1, 1), BatchSize: 16}
	_, probe, err := Replay(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	ms := probe.Schedule().Makespan()

	// Interleave flush+advance pairs every 20 tasks; with topological
	// arrival no edge ever targets a frozen task.
	var evs []Event
	tasks, advances := 0, 0.0
	for _, ev := range base {
		if ev.Op == OpAddTask && tasks > 0 && tasks%20 == 0 {
			advances += 0.15 * ms
			evs = append(evs, Event{Op: OpFlush}, Event{Op: OpAdvance, Clock: advances})
		}
		if ev.Op == OpAddTask {
			tasks++
		}
		evs = append(evs, ev)
	}

	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mirror := make(map[int]Placement, n)
	frozen := map[int]Placement{}
	var last *Delta
	for i, ev := range evs {
		d, err := eng.Apply(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if d == nil {
			continue
		}
		last = d
		for _, p := range d.Placed {
			if f, ok := frozen[p.Task]; ok && f != p {
				t.Fatalf("frozen task %d moved: %+v -> %+v", p.Task, f, p)
			}
			mirror[p.Task] = p
		}
		for task, p := range mirror {
			if p.Start < d.Clock {
				frozen[task] = p
			}
		}
	}
	if last == nil || !last.Sealed {
		t.Fatal("stream did not seal")
	}
	if len(frozen) == 0 {
		t.Fatal("test froze nothing — clock values too small")
	}
	s := eng.Schedule()
	if err := s.Validate(); err != nil {
		t.Fatalf("sealed schedule with frozen horizon invalid: %v", err)
	}
	for task, f := range frozen {
		a := s.Primary(dag.TaskID(task))
		if a.Proc != f.Proc || a.Start != f.Start || a.Finish != f.Finish {
			t.Fatalf("frozen task %d differs in sealed schedule: %+v != %+v", task, a, f)
		}
	}
}

// TestStreamEventValidation: invalid events are rejected and leave the
// engine usable — the stream keeps accepting valid events and seals.
func TestStreamEventValidation(t *testing.T) {
	sys := platform.Homogeneous(2, 1, 1)
	eng, err := NewEngine(Config{Algorithm: "HEFT", Sys: sys, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	mustOK := func(ev Event) {
		t.Helper()
		if _, err := eng.Apply(ev); err != nil {
			t.Fatalf("valid event %+v rejected: %v", ev, err)
		}
	}
	mustFail := func(ev Event, frag string) {
		t.Helper()
		_, err := eng.Apply(ev)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Fatalf("event %+v: got error %v, want containing %q", ev, err, frag)
		}
	}

	mustOK(Event{Op: OpAddTask, ID: 0, Weight: 3})
	mustOK(Event{Op: OpAddTask, ID: 1, Weight: 2})
	mustOK(Event{Op: OpAddEdge, From: 0, To: 1, Data: 1})

	mustFail(Event{Op: OpAddTask, ID: 5, Weight: 1}, "out of order")
	mustFail(Event{Op: OpAddTask, ID: 2, Weight: 1, Costs: []float64{1}}, "costs")
	mustFail(Event{Op: OpAddTask, ID: 2, Weight: 1, Costs: []float64{1, -2}}, "invalid cost")
	mustFail(Event{Op: OpAddEdge, From: 1, To: 0, Data: 1}, "cycle")
	mustFail(Event{Op: OpAddEdge, From: 0, To: 1, Data: 1}, "duplicate")
	mustFail(Event{Op: OpAddEdge, From: 0, To: 9, Data: 1}, "out of range")
	mustFail(Event{Op: OpAdvance, Clock: -1}, "clock")
	mustFail(Event{Op: OpConfig}, "config")
	mustFail(Event{Op: "bogus"}, "unknown op")

	// The rejections did not poison the stream.
	mustOK(Event{Op: OpAddTask, ID: 2, Weight: 1, Costs: []float64{1, 2}})
	mustOK(Event{Op: OpAddEdge, From: 1, To: 2, Data: 0.5})
	d, err := eng.Apply(Event{Op: OpSeal})
	if err != nil {
		t.Fatalf("seal after rejections: %v", err)
	}
	if d == nil || !d.Sealed || d.Tasks != 3 {
		t.Fatalf("bad sealed delta: %+v", d)
	}
	if _, err := eng.Apply(Event{Op: OpFlush}); err == nil {
		t.Fatal("event accepted after seal")
	}

	// An edge whose head is frozen must be rejected (the head cannot be
	// re-planned), before it touches the graph.
	eng2, _ := NewEngine(Config{Algorithm: "HEFT", Sys: sys, BatchSize: 64})
	mustOK2 := func(ev Event) {
		t.Helper()
		if _, err := eng2.Apply(ev); err != nil {
			t.Fatalf("valid event %+v rejected: %v", ev, err)
		}
	}
	mustOK2(Event{Op: OpAddTask, ID: 0, Weight: 3})
	mustOK2(Event{Op: OpAddTask, ID: 1, Weight: 2})
	mustOK2(Event{Op: OpFlush})
	mustOK2(Event{Op: OpAdvance, Clock: 1e9})
	mustOK2(Event{Op: OpAddTask, ID: 2, Weight: 1})
	if _, err := eng2.Apply(Event{Op: OpAddEdge, From: 2, To: 0}); err == nil ||
		!strings.Contains(err.Error(), "frozen") {
		t.Fatalf("edge into frozen head: got %v", err)
	}
}

// TestStreamIncrementalPathDominates: under topological arrival the
// engine should almost always take the grow-in-place fast path (no
// full re-plans besides the seal) and repair ranks incrementally.
func TestStreamIncrementalPathDominates(t *testing.T) {
	in := streamInstance(t, 33, 200, 4)
	evs, err := InstanceEvents(in, arrivalOrders(in, 0)["topo"])
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Algorithm: "HEFT", Sys: platform.Homogeneous(4, 1, 1), BatchSize: 10}
	ds, _, err := Replay(cfg, evs)
	if err != nil {
		t.Fatal(err)
	}
	fullReplans, replanned := 0, 0
	for _, d := range ds {
		if d.Sealed {
			continue
		}
		if d.FullReplan {
			fullReplans++
		}
		replanned += d.Replanned
	}
	if fullReplans != 0 {
		t.Errorf("topological arrival took %d full re-plans (want 0)", fullReplans)
	}
	// Each task is re-planned exactly once across the streaming batches,
	// except the tail still buffered when the seal flush (excluded above)
	// picks it up.
	if replanned > in.N() || replanned < in.N()-2*cfg.BatchSize {
		t.Errorf("replanned %d task placements, want ~%d", replanned, in.N())
	}
}

func TestParamFor(t *testing.T) {
	// Duplicating and lookahead points are rejected by baseline name and
	// by grid name alike.
	for _, name := range []string{
		"LS/u/static/eft/ins/dup", "DSH", "BTDH",
		"LS/sigma/static/look/ins/nodup", "LS/sl/ready/eft/ins/chain",
	} {
		if _, err := ParamFor(name); err == nil {
			t.Errorf("speculative scheduler %q accepted", name)
		}
	}
	if _, err := ParamFor("NOPE"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	pm, err := ParamFor("")
	if err != nil || pm.Name() != "HEFT" {
		t.Fatalf("default algorithm: %v %q", err, pm.Name())
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	in := streamInstance(t, 1, 20, 2)
	evs, err := InstanceEvents(in, arrivalOrders(in, 0)["shuffled"])
	if err != nil {
		t.Fatal(err)
	}
	evs = append([]Event{{Op: OpConfig, Algorithm: "HEFT", Processors: 2}}, evs...)
	var buf bytes.Buffer
	if err := WriteEvents(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, back) {
		t.Fatal("NDJSON round trip lost events")
	}
	if _, err := ReadEvents(strings.NewReader("{\"op\":\"nope\"}\n")); err == nil {
		t.Fatal("unknown op decoded")
	}
	if _, err := ReadEvents(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line decoded")
	}
}
