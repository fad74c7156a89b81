package stream

import (
	"math/rand"
	"testing"

	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// FuzzStreamRanks grows a stream from fuzz bytes: tasks, arcs in either
// direction between any two tasks (arcs between old tasks, and arcs
// against arrival order, which reorder the maintained positions), clock
// advances and flushes, at a batch size the first byte picks. After
// every flush, each rank it computed is bit-identical to
// sched.RankUpward of the static instance of the events accepted so
// far, and an incremental flush ranks exactly the tasks it re-places.
// Whatever was accepted, the stream seals.
func FuzzStreamRanks(f *testing.F) {
	// Tasks 0 and 1 with the arc 0→1, flush; task 2 with an arc into the
	// placed task 0 and a refused arc 1→2 (a cycle), flush; advance;
	// task 3 with an arc into 0; flush.
	f.Add([]byte{15, 0, 3, 0, 5, 1, 0, 1, 4, 4, 0, 2, 1, 2, 0, 7, 1, 1, 2, 3, 4, 3, 4, 0, 6, 1, 3, 0, 1, 4})
	// An arc buffered into task 0 before an advance that would freeze 0.
	f.Add([]byte{15, 0, 3, 4, 0, 2, 1, 1, 0, 1, 3, 7, 4, 0, 1, 2, 2, 1, 5})
	// Batch 1: every task arrival flushes; arcs between old tasks.
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 1, 0, 3, 9, 2, 1, 3, 5, 3, 2, 0, 5, 1, 4, 0, 2, 2, 2, 4, 1, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		sys, err := platform.Generate(platform.GenConfig{Procs: 3, Latency: 1.5, TimePerUnit: 0.5, LinkSpread: 0.5}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(Config{Algorithm: "HEFT", Sys: sys, BatchSize: 1 + next()%16})
		if err != nil {
			t.Fatal(err)
		}
		var accepted []Event
		apply := func(ev Event) error {
			d, err := eng.Apply(ev)
			if err != nil {
				return err
			}
			// An auto-flush runs before its task is ingested, so every
			// delta covers the events accepted before this one.
			if d != nil {
				checkFlushRanks(t, eng, d, accepted)
			}
			accepted = append(accepted, ev)
			return nil
		}
		for len(ops) > 0 {
			switch next() % 5 {
			case 0:
				wt := float64(next() % 8)
				_ = apply(Event{Op: OpAddTask, ID: eng.Len(), Weight: wt, Costs: []float64{wt, 1.5 * wt, 0.25 * wt}})
			case 1, 2:
				if n := eng.Len(); n > 0 {
					_ = apply(Event{Op: OpAddEdge, From: next() % n, To: next() % n, Data: float64(next() % 16)})
				}
			case 3:
				_ = apply(Event{Op: OpAdvance, Clock: eng.Clock() + float64(next()%8)})
			case 4:
				_ = apply(Event{Op: OpFlush})
			}
		}
		if eng.Len() > 0 {
			if err := apply(Event{Op: OpSeal}); err != nil {
				t.Fatalf("seal: %v", err)
			}
		}
	})
}

// checkFlushRanks checks a flush of an incremental engine: the seal
// takes the whole vector from Param.PriorityVector, and any other flush
// ranks its affected set, which must be exactly the tasks it re-placed,
// bit-identical to sched.RankUpward of the accepted events' static
// instance.
func checkFlushRanks(t *testing.T, eng *Engine, d *Delta, accepted []Event) {
	t.Helper()
	if d.Sealed {
		if d.RankRepaired != d.Tasks || !d.FullRanks {
			t.Fatalf("seal computed %d of %d ranks (fullRanks %v)", d.RankRepaired, d.Tasks, d.FullRanks)
		}
		return
	}
	in, err := StaticInstance(accepted, eng.cfg.Sys, "")
	if err != nil {
		t.Fatal(err)
	}
	if in.N() != d.Tasks {
		t.Fatalf("seq %d: delta has %d tasks, the accepted events %d", d.Seq, d.Tasks, in.N())
	}
	want := sched.RankUpward(in)
	if d.RankRepaired != len(eng.ranked) || d.RankRepaired != d.Replanned || d.FullRanks != (d.RankRepaired == d.Tasks) {
		t.Fatalf("seq %d: %d ranks counted, %d computed, %d tasks re-placed (fullRanks %v of %d)",
			d.Seq, d.RankRepaired, len(eng.ranked), d.Replanned, d.FullRanks, d.Tasks)
	}
	for _, v := range eng.ranked {
		if got := eng.ranks[v]; got != want[v] {
			t.Fatalf("seq %d: rank[%d] = %x, sched.RankUpward %x (%d ranked of %d)", d.Seq, v, got, want[v], len(eng.ranked), d.Tasks)
		}
	}
}
