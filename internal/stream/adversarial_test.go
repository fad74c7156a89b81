package stream

import (
	"testing"

	"dagsched/internal/adversary"
	"dagsched/internal/dag"
	"dagsched/internal/testfix"
)

// TestStreamAdversarialFixtures replays the pinned adversarial instances
// through the engine in worst-case (reverse-topological) arrival order
// with a batch size of one — every edge violates the incremental
// topological order and forces the Pearce–Kelly repair, and every edge's
// head is already placed, forcing the re-plan slow path. Per delta the
// schedule must stay valid and the re-plan bounded by the affected
// descendant closure; the sealed schedule must match the static
// scheduler bit for bit.
func TestStreamAdversarialFixtures(t *testing.T) {
	const dir = "../../testdata/adversarial"
	m, err := adversary.ReadManifest(dir)
	if err != nil {
		t.Fatalf("reading fixture manifest: %v", err)
	}
	if len(m.Fixtures) == 0 {
		t.Fatal("no adversarial fixtures")
	}
	for _, fx := range m.Fixtures {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) {
			in, err := fx.Load(dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			n := in.N()
			topo := in.G.TopoOrder()
			arrival := make([]dag.TaskID, n)
			for i := 0; i < n; i++ {
				arrival[i] = topo[n-1-i]
			}
			evs, err := InstanceEvents(in, arrival)
			if err != nil {
				t.Fatalf("events: %v", err)
			}

			pm, err := ParamFor("HEFT")
			if err != nil {
				t.Fatal(err)
			}
			sin, err := StaticInstance(evs, in.Sys, fx.Name)
			if err != nil {
				t.Fatalf("static instance: %v", err)
			}
			want, err := pm.Schedule(sin)
			if err != nil {
				t.Fatalf("static schedule: %v", err)
			}

			eng, err := NewEngine(Config{Algorithm: "HEFT", Sys: in.Sys, BatchSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Independent adjacency mirror: the re-plan bound is the
			// descendant closure of the batch's new tasks and edge heads.
			succ := make([][]int, 0, n)
			var seeds []int
			closure := func() int {
				seen := make([]bool, len(succ))
				stack := append([]int(nil), seeds...)
				for _, s := range stack {
					seen[s] = true
				}
				count := 0
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					count++
					for _, s := range succ[v] {
						if !seen[s] {
							seen[s] = true
							stack = append(stack, s)
						}
					}
				}
				return count
			}
			checkDelta := func(d *Delta) {
				t.Helper()
				if !d.Sealed && d.Replanned > closure() {
					t.Fatalf("delta %d re-planned %d tasks, affected closure is %d", d.Seq, d.Replanned, closure())
				}
				seeds = seeds[:0]
				if err := eng.Schedule().Validate(); err != nil {
					t.Fatalf("delta %d: schedule invalid: %v", d.Seq, err)
				}
			}

			deltas := 0
			for i, ev := range evs {
				// The auto-flush on a task arrival covers only the events
				// buffered before it, so check against the pre-task mirror.
				d, err := eng.Apply(ev)
				if err != nil {
					t.Fatalf("event %d (%+v): %v", i, ev, err)
				}
				if d != nil {
					deltas++
					checkDelta(d)
				}
				switch ev.Op {
				case OpAddTask:
					succ = append(succ, nil)
					seeds = append(seeds, ev.ID)
				case OpAddEdge:
					succ[ev.From] = append(succ[ev.From], ev.To)
					seeds = append(seeds, ev.To)
				}
			}
			if deltas < n {
				t.Fatalf("only %d deltas for %d tasks at batch size 1", deltas, n)
			}
			got := testfix.ScheduleDigest(eng.Schedule())
			if want := testfix.ScheduleDigest(want); got != want {
				t.Fatalf("sealed digest %s != static %s", got, want)
			}
		})
	}
}
