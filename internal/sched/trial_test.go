package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

// txnFixture returns a plan with a couple of tasks placed, ready for
// trials: diamond DAG on two processors, task 0 on P0 and task 1 on P0.
func txnFixture(t *testing.T) (*Instance, *Plan) {
	t.Helper()
	in := Consistent(diamondGraph(t), twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0) // [0,2)
	pl.Place(1, 0, 2) // [2,5)
	return in, pl
}

// planState renders everything Undo must restore: every timeline, every
// task's copies, the placed count, each gap index's gap set and treap
// priority counter, and the comm reservations, as every processor pair's
// earliest transfer start at every placement boundary for a short, a
// unit and an unbounded transfer. Floats print in their shortest exact
// form, so equal strings mean bit-identical state.
func planState(pl *Plan) string {
	var b strings.Builder
	for p := range pl.procs {
		ctr := reflect.ValueOf(pl.gaps[p]).Elem().FieldByName("ctr").Uint()
		fmt.Fprintf(&b, "P%d %v gaps %v ctr %d\n", p, pl.procs[p], pl.gaps[p].Gaps(), ctr)
	}
	for i, c := range pl.byTask {
		fmt.Fprintf(&b, "t%d %v\n", i, c)
	}
	fmt.Fprintf(&b, "placed %d", pl.placed)
	if pl.comm == nil {
		return b.String()
	}
	at := []float64{0}
	for _, tl := range pl.procs {
		for _, a := range tl {
			at = append(at, a.Start, a.Finish)
		}
	}
	b.WriteString("\ncomm")
	for from := range pl.procs {
		for to := range pl.procs {
			for _, t := range at {
				for _, dur := range []float64{1e-6, 1, math.Inf(1)} {
					fmt.Fprintf(&b, " %v", pl.comm.TransferStart(from, to, t, dur))
				}
			}
		}
	}
	return b.String()
}

// TestTxnVisibility checks that a trial placement is visible to every
// query while it stands, and gone once undone.
func TestTxnVisibility(t *testing.T) {
	_, pl := txnFixture(t)
	m := pl.Mark()
	pl.Place(2, 1, 6)
	if !pl.Scheduled(2) {
		t.Fatal("trial placement not visible")
	}
	if got := len(pl.OnProc(1)); got != 1 {
		t.Fatalf("OnProc(1) = %d entries, want 1", got)
	}
	// Data-ready of task 3 on P1 now includes task 2's finish there.
	if ready := pl.DataReady(3, 1); ready != 7 {
		t.Fatalf("DataReady(3,P1) = %g, want 7", ready)
	}
	pl.Undo(m)
	if pl.Scheduled(2) || len(pl.OnProc(1)) != 0 {
		t.Fatal("undone placement still visible")
	}
}

// TestTxnSlotQueriesMatchCommittedPlan checks that, for any sequence of
// trial placements, FindSlot and EFTOn answer mid-trial exactly like a
// plan that made the same placements with no trial open.
func TestTxnSlotQueriesMatchCommittedPlan(t *testing.T) {
	in := Consistent(diamondGraph(t), twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0)

	mirror := pl.Clone()
	pl.Mark()
	pl.Place(1, 0, 4)
	mirror.Place(1, 0, 4)
	pl.PlaceDup(0, 1, 1)
	mirror.PlaceDup(0, 1, 1)

	for p := 0; p < in.P(); p++ {
		for _, ready := range []float64{0, 1.5, 2, 7} {
			for _, dur := range []float64{0.5, 2, 10} {
				for _, ins := range []bool{true, false} {
					if got, want := pl.FindSlot(p, ready, dur, ins), mirror.FindSlot(p, ready, dur, ins); got != want {
						t.Fatalf("FindSlot(p=%d, ready=%g, dur=%g, ins=%v): trial %g != plan %g", p, ready, dur, ins, got, want)
					}
				}
			}
		}
	}
	s2, f2 := pl.EFTOn(2, 1, true)
	w2, wf2 := mirror.EFTOn(2, 1, true)
	if s2 != w2 || f2 != wf2 {
		t.Fatalf("EFTOn(2,P1): trial (%g,%g) != plan (%g,%g)", s2, f2, w2, wf2)
	}
}

// TestTxnUndoRestoresExactly checks that Undo restores timelines,
// copies, gap sets, treap priority counters and comm reservations bit
// for bit, across nested marks, with and without a contended model, and
// that the trial stays open after an undo to its opening mark.
func TestTxnUndoRestoresExactly(t *testing.T) {
	for _, kind := range []string{platform.KindContentionFree, platform.KindOnePort} {
		t.Run(kind, func(t *testing.T) {
			in := Consistent(diamondGraph(t), platform.Homogeneous(3, 0, 1))
			m, err := platform.ModelByKind(kind, in.Sys)
			if err != nil {
				t.Fatal(err)
			}
			in = in.WithComm(m)
			pl := NewPlan(in)
			pl.Place(0, 0, 0)
			pl.Place(1, 0, 2)
			place := func(task dag.TaskID, p int, dup bool) {
				s, _ := pl.EFTOn(task, p, true)
				if dup {
					pl.PlaceDup(task, p, s)
				} else {
					pl.Place(task, p, s)
				}
			}

			s0 := planState(pl)
			m0 := pl.Mark()
			place(2, 1, false) // remote from task 0: reserves under one-port
			s1 := planState(pl)
			m1 := pl.Mark()
			place(0, 2, true)
			place(1, 2, true)
			s2 := planState(pl)
			m2 := pl.Mark()
			place(3, 2, false)
			if s3 := planState(pl); s3 == s2 || s2 == s1 || s1 == s0 {
				t.Fatal("trial placements left the plan state unchanged")
			}

			pl.Undo(m2)
			if got := planState(pl); got != s2 {
				t.Fatalf("Undo(m2):\n got %s\nwant %s", got, s2)
			}
			pl.Undo(m1)
			if got := planState(pl); got != s1 {
				t.Fatalf("Undo(m1):\n got %s\nwant %s", got, s1)
			}
			pl.Undo(m0)
			if got := planState(pl); got != s0 {
				t.Fatalf("Undo(m0):\n got %s\nwant %s", got, s0)
			}
			// Back at the opening mark the trial is still open: the next
			// placement is journaled and undone too.
			place(2, 1, false)
			if got := planState(pl); got != s1 {
				t.Fatalf("re-placed after Undo(m0):\n got %s\nwant %s", got, s1)
			}
			pl.Undo(m0)
			if got := planState(pl); got != s0 {
				t.Fatalf("second Undo(m0):\n got %s\nwant %s", got, s0)
			}
			pl.Commit()
		})
	}
}

// TestTxnCommitEquivalentToDirectPlacement checks that a trial closed
// by Commit keeps its placements exactly as if they had been made with
// no trial open, and that Commit drops the journal.
func TestTxnCommitEquivalentToDirectPlacement(t *testing.T) {
	in := Consistent(diamondGraph(t), twoProc())

	direct := NewPlan(in)
	direct.Place(0, 0, 0)
	direct.Place(1, 0, 2)
	direct.PlaceDup(0, 1, 0)
	direct.Place(2, 1, 2)
	direct.Place(3, 1, 7)

	pl := NewPlan(in)
	pl.Place(0, 0, 0)
	pl.Place(1, 0, 2)
	m := pl.Mark()
	pl.PlaceDup(0, 1, 0)
	pl.Place(2, 1, 2)
	pl.Place(3, 1, 7)
	pl.Commit()
	pl.Undo(m) // nothing is journaled after Commit

	if got, want := planState(pl), planState(direct); got != want {
		t.Fatalf("committed trial:\n got %s\nwant %s", got, want)
	}
	if err := pl.Finalize("x").Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestPlacementOutsideTrialNotJournaled pins that the journal costs
// nothing to schedulers that never open a trial (HEFT, HLFET, the stream
// engine's re-plans), and nothing after a trial is committed.
func TestPlacementOutsideTrialNotJournaled(t *testing.T) {
	in := randomInstance(t, rand.New(rand.NewSource(3)), 60, 4)
	pl := NewPlan(in)
	order := in.G.TopoOrder()
	for _, v := range order[:30] {
		p, s, _ := pl.BestEFT(v, true)
		pl.Place(v, p, s)
	}
	if pl.trial || cap(pl.journal) != 0 {
		t.Fatalf("placements outside a trial journaled %d records", cap(pl.journal))
	}
	m := pl.Mark()
	p, s, _ := pl.BestEFT(order[30], true)
	pl.Place(order[30], p, s)
	pl.Undo(m)
	pl.Commit()
	for _, v := range order[30:] {
		p, s, _ := pl.BestEFT(v, true)
		pl.Place(v, p, s)
	}
	if pl.trial || len(pl.journal) != 0 {
		t.Fatalf("placements after Commit journaled %d records", len(pl.journal))
	}
	if err := pl.Finalize("x").Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestTxnDataReadyPanicsOnUnscheduledParent(t *testing.T) {
	_, pl := txnFixture(t)
	pl.Mark()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	pl.DataReady(3, 0) // parent 2 unscheduled
}

// TestTxnPlacePanics checks that a trial keeps Plan's misuse panics:
// placing a task twice, whether it was placed before the trial or in
// it, and duplicating an unscheduled task.
func TestTxnPlacePanics(t *testing.T) {
	_, pl := txnFixture(t)
	pl.Mark()
	pl.Place(2, 1, 6)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"placed before the trial", func() { pl.Place(0, 1, 10) }},
		{"placed in the trial", func() { pl.Place(2, 0, 10) }},
		{"dup of unscheduled", func() { pl.PlaceDup(3, 1, 10) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}
