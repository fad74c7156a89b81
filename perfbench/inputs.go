package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/sched"
	"dagsched/internal/service"
	"dagsched/internal/stream"
	"dagsched/internal/workload"
)

// sizes fixes how much input each workload generates. README.md gives
// the reasons for each size.
type sizes struct {
	BigN       int // tasks per HEFT/HLFET instance
	ILSHetN    int // tasks per heterogeneous ILS instance
	ILSHomoN   int // tasks per homogeneous ILS instance
	PoolSize   int // distinct service problems
	PoolN      int // tasks per service problem
	ZipfS      float64
	StreamN    int // tasks per stream log
	StreamLogs int // logs; every second one carries clock advances
	AdvanceGap int // tasks between two clock advances
	BatchSize  int // stream auto-flush threshold
}

var fullSizes = sizes{
	BigN:       20000,
	ILSHetN:    1500,
	ILSHomoN:   1000,
	PoolSize:   1024,
	PoolN:      100,
	ZipfS:      1.1,
	StreamN:    3000,
	StreamLogs: 4,
	AdvanceGap: 32,
	BatchSize:  8,
}

// family is one instance family: a random layered DAG shape on a
// platform configuration.
type family struct {
	Name  string
	Shape float64
	Cfg   workload.HetConfig
}

var (
	// hetFamily: 8 processors with inconsistent costs (β=1) and
	// heterogeneous links, so HEFT's BestEFT scans all processors
	// directly (below sched's selection-heap threshold).
	hetFamily = family{"het", 1, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1, LinkSpread: 0.5}}
	// homoFamily: 32 identical processors and a wide graph, so BestEFT
	// goes through the bound-pruned selection heap.
	homoFamily = family{"homo", 3, workload.HetConfig{Procs: 32, CCR: 1}}
)

// rngFor derives an independent, reproducible random stream for one
// named input from the run's seed.
func rngFor(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// buildInstance draws one instance of the family, recording the build
// as a workload.instance_build span when rec is set.
func buildInstance(rng *rand.Rand, f family, n int, rec *recorder) (*sched.Instance, error) {
	t0 := time.Now()
	g, err := workload.Random(workload.RandomConfig{N: n, Shape: f.Shape}, rng)
	if err != nil {
		return nil, err
	}
	in, err := workload.MakeInstance(g, f.Cfg, rng)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.add("workload.instance_build", t0, time.Now(), -1, 0, float64(n))
	}
	return in, nil
}

// namedInstance is a generated instance with its family.
type namedInstance struct {
	Family string
	In     *sched.Instance
}

// staticInputs draws the static workload's instances: one HEFT/HLFET
// instance and one ILS instance per family.
func staticInputs(seed int64, sz sizes, rec *recorder) (big, small []namedInstance, err error) {
	for _, f := range []family{hetFamily, homoFamily} {
		in, err := buildInstance(rngFor(seed, "static/big/"+f.Name), f, sz.BigN, rec)
		if err != nil {
			return nil, nil, err
		}
		big = append(big, namedInstance{f.Name, in})
		n := sz.ILSHetN
		if f.Name == homoFamily.Name {
			n = sz.ILSHomoN
		}
		if in, err = buildInstance(rngFor(seed, "static/ils/"+f.Name), f, n, rec); err != nil {
			return nil, nil, err
		}
		small = append(small, namedInstance{f.Name, in})
	}
	return big, small, nil
}

// poolItem is one distinct service problem: the request a client sends
// and the properties of the problem it carries.
type poolItem struct {
	Req    service.ScheduleRequest
	Family string
	N      int
	Edges  int
	Procs  int
}

// servicePool draws the service workload's distinct problems. Even
// items are heterogeneous full instances scheduled with HEFT; odd items
// are bare graphs scheduled with HLFET on 32 identical processors, so
// the two alternate down the popularity ranking.
func servicePool(seed int64, sz sizes, rec *recorder) ([]poolItem, error) {
	rng := rngFor(seed, "service/pool")
	pool := make([]poolItem, sz.PoolSize)
	for i := range pool {
		var buf bytes.Buffer
		if i%2 == 0 {
			in, err := buildInstance(rng, hetFamily, sz.PoolN, rec)
			if err != nil {
				return nil, err
			}
			if err := in.WriteJSON(&buf); err != nil {
				return nil, err
			}
			pool[i] = poolItem{Family: hetFamily.Name, N: in.N(), Edges: in.G.NumEdges(), Procs: in.P()}
			pool[i].Req = service.ScheduleRequest{Algorithm: "HEFT", Instance: compact(buf.Bytes())}
			continue
		}
		g, err := workload.Random(workload.RandomConfig{N: sz.PoolN, Shape: homoFamily.Shape}, rng)
		if err != nil {
			return nil, err
		}
		if err := g.WriteJSON(&buf); err != nil {
			return nil, err
		}
		procs := homoFamily.Cfg.Procs
		pool[i] = poolItem{Family: homoFamily.Name, N: g.Len(), Edges: g.NumEdges(), Procs: procs}
		pool[i].Req = service.ScheduleRequest{Algorithm: "HLFET", Graph: compact(buf.Bytes()), Processors: procs}
	}
	return pool, nil
}

func compact(indented []byte) json.RawMessage {
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
		// The writers above produce valid JSON; failing here is a bug.
		panic(err)
	}
	return buf.Bytes()
}

// keyStream draws the pool indices one service caller requests:
// Zipf-popular ranks over the pool, one independent stream per caller.
type keyStream struct{ z *rand.Zipf }

func newKeyStream(seed int64, caller int, sz sizes) keyStream {
	rng := rngFor(seed, fmt.Sprintf("service/keys/%d", caller))
	return keyStream{rand.NewZipf(rng, sz.ZipfS, 1, uint64(sz.PoolSize-1))}
}

func (k keyStream) next() int { return int(k.z.Uint64()) }

// streamLog is one replayable event log and the platform it runs on.
type streamLog struct {
	Events   []stream.Event
	In       *sched.Instance // the instance the log was flattened from
	Advances bool
}

// streamLogs draws the stream workload's logs: heterogeneous instances
// flattened in topological arrival order. Every second log carries a
// clock advance every AdvanceGap tasks; the clock moves at half the pace
// of the static HEFT schedule, so roughly the first half of the work
// placed so far freezes.
func streamLogs(seed int64, sz sizes, rec *recorder) ([]streamLog, error) {
	logs := make([]streamLog, sz.StreamLogs)
	for i := range logs {
		in, err := buildInstance(rngFor(seed, fmt.Sprintf("stream/%d", i)), hetFamily, sz.StreamN, rec)
		if err != nil {
			return nil, err
		}
		evs, err := stream.InstanceEvents(in, in.G.TopoOrder())
		if err != nil {
			return nil, err
		}
		logs[i] = streamLog{Events: evs, In: in, Advances: i%2 == 1}
		if !logs[i].Advances {
			continue
		}
		s, err := listsched.HEFT{}.Schedule(in)
		if err != nil {
			return nil, err
		}
		logs[i].Events = withAdvances(evs, sz.AdvanceGap, s.Makespan())
	}
	return logs, nil
}

// withAdvances inserts an advance event before every gap-th task
// arrival, the clock rising linearly to half the makespan at the end.
func withAdvances(evs []stream.Event, gap int, makespan float64) []stream.Event {
	n := 0
	for _, ev := range evs {
		if ev.Op == stream.OpAddTask {
			n++
		}
	}
	out := make([]stream.Event, 0, len(evs)+n/gap+1)
	for _, ev := range evs {
		if ev.Op == stream.OpAddTask && ev.ID > 0 && ev.ID%gap == 0 {
			out = append(out, stream.Event{Op: stream.OpAdvance, Clock: 0.5 * makespan * float64(ev.ID) / float64(n)})
		}
		out = append(out, ev)
	}
	return out
}
