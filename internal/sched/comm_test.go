package sched

import (
	"math"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

// fanOut builds a(1) -> {b(1), c(1)} with 4 data units per edge on a
// 2-processor unit system: with the one-port model the two transfers to
// the remote processor must serialize.
func fanOutInstance(t *testing.T) *Instance {
	t.Helper()
	b := dag.NewBuilder("fan")
	a := b.AddTask("a", 1)
	x := b.AddTask("b", 1)
	y := b.AddTask("c", 1)
	b.AddEdge(a, x, 4)
	b.AddEdge(a, y, 4)
	return Consistent(b.MustBuild(), platform.Homogeneous(2, 0, 1))
}

func TestWithCommDefaultsAndKinds(t *testing.T) {
	in := fanOutInstance(t)
	if in.CommModel() != nil || in.CommKind() != platform.KindContentionFree {
		t.Fatalf("default comm = %v/%q", in.CommModel(), in.CommKind())
	}
	op, _ := platform.ModelByKind(platform.KindOnePort, in.Sys)
	bound := in.WithComm(op)
	if bound.CommKind() != platform.KindOnePort || in.CommModel() != nil {
		t.Fatal("WithComm mutated the receiver or dropped the model")
	}
	// One-port idle costs equal the matrices: every cached stat matches.
	if bound.MeanComm(0, 1) != in.MeanComm(0, 1) || bound.CCR() != in.CCR() {
		t.Fatal("one-port rank caches diverge from contention-free")
	}
	if bound.CommCost(0, 1, 4) != in.Sys.CommCost(0, 1, 4) {
		t.Fatal("CommCost diverges")
	}
	// An explicit contention-free model is inert: no reservation state.
	if pl := NewPlan(in.WithComm(platform.ContentionFree(in.Sys))); pl.comm != nil {
		t.Fatal("contention-free model produced a comm state")
	}
}

func TestPlanContendedDataReadyAndPlace(t *testing.T) {
	in := fanOutInstance(t)
	op, _ := platform.ModelByKind(platform.KindOnePort, in.Sys)
	pl := NewPlan(in.WithComm(op))
	if pl.comm == nil {
		t.Fatal("no comm state under one-port")
	}
	pl.Place(0, 0, 0) // a on P0, [0,1)

	// Estimates do not reserve.
	if got := pl.DataReady(1, 1); got != 5 {
		t.Fatalf("DataReady(b,P1) = %g, want 5", got)
	}
	if m := pl.comm.Mark(); m != 0 {
		t.Fatalf("estimate journaled %d reservations", m)
	}

	pl.Place(1, 1, 5) // b on P1: commits the transfer [1,5)
	if pl.comm.Mark() == 0 {
		t.Fatal("placement reserved no transfer")
	}
	// The transfer holds P0's send port and P1's receive port over [1,5):
	// a transfer from P0 (route 0→0) or into P1 (route 1→1) ready at 1
	// waits for 5, and the other two ports are idle.
	for _, c := range []struct {
		from, to int
		want     float64
	}{{0, 0, 5}, {1, 1, 5}, {1, 0, 1}} {
		if got := pl.comm.TransferStart(c.from, c.to, 1, 1); got != c.want {
			t.Fatalf("TransferStart(%d, %d) = %g, want %g", c.from, c.to, got, c.want)
		}
	}
	// The second transfer now queues behind the first on both ports.
	if got := pl.DataReady(2, 1); got != 9 {
		t.Fatalf("DataReady(c,P1) = %g, want 9 (serialized)", got)
	}
	if got := pl.DataReady(2, 0); got != 1 {
		t.Fatalf("DataReady(c,P0) = %g, want 1 (local)", got)
	}
	// A local placement reserves nothing.
	m1 := pl.comm.Mark()
	pl.Place(2, 0, 1)
	if pl.comm.Mark() != m1 {
		t.Fatal("local placement reserved a transfer")
	}
}

// Place under contention must never start earlier than the caller's
// estimate, even when the caller's start was computed before rival
// reservations landed.
func TestPlanContendedPlaceNeverEarlier(t *testing.T) {
	in := fanOutInstance(t)
	op, _ := platform.ModelByKind(platform.KindOnePort, in.Sys)
	pl := NewPlan(in.WithComm(op))
	pl.Place(0, 0, 0)
	// Estimate b's start on P1 first, then place c's transfer ahead of it.
	s1, _ := pl.EFTOn(1, 1, true)
	pl.Place(2, 1, pl.DataReady(2, 1)) // c grabs the ports [1,5)
	a := pl.Place(1, 1, s1)
	if a.Start < s1 {
		t.Fatalf("committed start %g earlier than estimate %g", a.Start, s1)
	}
	if a.Start != 9 {
		t.Fatalf("b start = %g, want 9 (behind c's transfer)", a.Start)
	}
}

// TestTxnContendedTrialUndoCommit checks a trial under one-port: the
// trial's queries see its own reservations, Undo takes them back, and a
// committed trial keeps them.
func TestTxnContendedTrialUndoCommit(t *testing.T) {
	in := fanOutInstance(t)
	op, _ := platform.ModelByKind(platform.KindOnePort, in.Sys)
	pl := NewPlan(in.WithComm(op))
	pl.Place(0, 0, 0)

	m := pl.Mark()
	pl.Place(1, 1, 5)
	if got := pl.DataReady(2, 1); got != 9 {
		t.Fatalf("trial sees own reservation: DataReady = %g, want 9", got)
	}
	pl.Undo(m)
	if got := pl.DataReady(2, 1); got != 5 {
		t.Fatalf("after Undo, DataReady = %g, want 5", got)
	}
	// Both ports of the route are idle from 0 on: even an unbounded
	// transfer starts at once.
	if got := pl.comm.TransferStart(0, 1, 0, math.Inf(1)); got != 0 {
		t.Fatalf("after Undo, TransferStart = %g, want 0 (ports idle)", got)
	}

	// Re-place and commit: the reservations stay.
	pl.Place(1, 1, 5)
	pl.Commit()
	if got := pl.DataReady(2, 1); got != 9 {
		t.Fatalf("after Commit, DataReady = %g, want 9", got)
	}
	if got := pl.comm.TransferStart(0, 1, 0, math.Inf(1)); got != 5 {
		t.Fatalf("after Commit, TransferStart = %g, want 5 (ports held [1,5))", got)
	}
}

func TestPlanCloneIndependentCommState(t *testing.T) {
	in := fanOutInstance(t)
	op, _ := platform.ModelByKind(platform.KindOnePort, in.Sys)
	pl := NewPlan(in.WithComm(op))
	pl.Place(0, 0, 0)
	cp := pl.Clone()
	cp.Place(1, 1, 5)
	if got := pl.DataReady(1, 1); got != 5 {
		t.Fatalf("clone reservation leaked into original: DataReady = %g", got)
	}
	if got := cp.DataReady(2, 1); got != 9 {
		t.Fatalf("clone DataReady = %g, want 9", got)
	}
}

func TestSharedLinkSerializesSiblingTransfers(t *testing.T) {
	in := fanOutInstance(t)
	sl, err := platform.NewSharedLink(in.Sys, platform.SharedLinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(in.WithComm(sl))
	pl.Place(0, 0, 0)
	pl.Place(1, 1, pl.DataReady(1, 1))
	// On one shared bus the second transfer waits even toward P0-local…
	if got := pl.DataReady(2, 1); got != 9 {
		t.Fatalf("shared-link DataReady = %g, want 9", got)
	}
	// …while local data still needs no bus at all.
	if got := pl.DataReady(2, 0); got != 1 {
		t.Fatalf("local DataReady = %g, want 1", got)
	}
}

func TestValidateUsesModelCosts(t *testing.T) {
	// Under a half-bandwidth shared link, transfers take twice as long; a
	// schedule built contention-free must fail the contended validator.
	in := fanOutInstance(t)
	sl, err := platform.NewSharedLink(in.Sys, platform.SharedLinkConfig{Bandwidth: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(in)
	pl.Place(0, 0, 0)
	pl.Place(1, 1, 5) // legal contention-free (arrival 5)
	pl.Place(2, 0, 1)
	s := pl.Finalize("test")
	if err := s.Validate(); err != nil {
		t.Fatalf("contention-free validation: %v", err)
	}
	bound := in.WithComm(sl)
	if got := bound.CommCost(0, 1, 4); got != 8 {
		t.Fatalf("shared-link cost = %g, want 8", got)
	}
	sb := buildSchedule(bound, "test", s.procs)
	if err := sb.Validate(); err == nil {
		t.Fatal("schedule valid under half-bandwidth model, want data-arrival violation")
	}
}
