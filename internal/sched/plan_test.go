package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched/timeline"
)

func TestPlanBasics(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	if pl.Done() || pl.Scheduled(0) {
		t.Fatal("fresh plan should be empty")
	}
	a := pl.Place(0, 0, 0)
	if a.Finish != 2 {
		t.Fatalf("finish = %g, want 2", a.Finish)
	}
	if !pl.Scheduled(0) {
		t.Fatal("task 0 not marked scheduled")
	}
	if got := pl.ProcReady(0); got != 2 {
		t.Fatalf("ProcReady = %g", got)
	}
	if got := pl.ProcReady(1); got != 0 {
		t.Fatalf("ProcReady idle = %g", got)
	}
	if got := pl.Primary(0).Proc; got != 0 {
		t.Fatalf("Primary proc = %d", got)
	}
}

func TestDataReady(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc()) // latency 0, rate 1
	pl := NewPlan(in)
	pl.Place(0, 0, 0) // finishes at 2
	// Task 1 on same proc: ready at parent finish 2; on other proc:
	// 2 + comm(1 unit) = 3.
	if got := pl.DataReady(1, 0); got != 2 {
		t.Fatalf("DataReady(1,P0) = %g, want 2", got)
	}
	if got := pl.DataReady(1, 1); got != 3 {
		t.Fatalf("DataReady(1,P1) = %g, want 3", got)
	}
	// Entry tasks are ready immediately.
	pl2 := NewPlan(in)
	if got := pl2.DataReady(0, 1); got != 0 {
		t.Fatalf("entry DataReady = %g", got)
	}
}

func TestDataReadyUsesClosestCopy(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0)    // primary on P0, finish 2
	pl.PlaceDup(0, 1, 5) // duplicate on P1, finish 7
	// On P1 the duplicate (finish 7) competes with remote primary
	// (2 + 1 = 3): the remote copy is better here.
	if got := pl.DataReady(1, 1); got != 3 {
		t.Fatalf("DataReady = %g, want 3", got)
	}
	// With a big edge (0->2 carries 4 units): remote = 2+4 = 6 vs local dup
	// ready at 7: remote still wins. Make the dup earlier to flip it.
	pl2 := NewPlan(in)
	pl2.Place(0, 0, 0)
	pl2.PlaceDup(0, 1, 1) // finish 3
	if got := pl2.DataReady(2, 1); got != 3 {
		t.Fatalf("DataReady with dup = %g, want 3 (local dup finish)", got)
	}
}

func TestDataReadyPanicsOnUnscheduledParent(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unscheduled parent")
		}
	}()
	pl.DataReady(3, 0)
}

func TestFindSlotInsertion(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0) // [0,2)
	pl.Place(3, 0, 6) // [6,10)
	// Gap [2,6): a task of duration 3 ready at 0 fits at 2.
	if got := pl.FindSlot(0, 0, 3, true); got != 2 {
		t.Fatalf("FindSlot = %g, want 2", got)
	}
	// Duration 5 does not fit the gap: appended after 10.
	if got := pl.FindSlot(0, 0, 5, true); got != 10 {
		t.Fatalf("FindSlot = %g, want 10", got)
	}
	// Non-insertion ignores the gap.
	if got := pl.FindSlot(0, 0, 3, false); got != 10 {
		t.Fatalf("FindSlot non-insertion = %g, want 10", got)
	}
	// Ready time inside the gap shrinks it.
	if got := pl.FindSlot(0, 4, 2, true); got != 4 {
		t.Fatalf("FindSlot = %g, want 4", got)
	}
	if got := pl.FindSlot(0, 5, 2, true); got != 10 {
		t.Fatalf("FindSlot = %g, want 10", got)
	}
	// Empty processor: starts at ready.
	if got := pl.FindSlot(1, 7, 3, true); got != 7 {
		t.Fatalf("FindSlot empty = %g, want 7", got)
	}
}

func TestFindSlotExactFit(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0) // [0,2)
	pl.Place(1, 0, 5) // [5,8)
	// Exact-fit interval [2,5) for duration 3.
	if got := pl.FindSlot(0, 0, 3, true); got != 2 {
		t.Fatalf("exact fit = %g, want 2", got)
	}
}

func TestEFTAndBestEFT(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0) // finish 2
	// Task 1 (cost 3): P0 start 2 finish 5; P1 start 3 finish 6.
	s, f := pl.EFTOn(1, 0, true)
	if s != 2 || f != 5 {
		t.Fatalf("EFTOn P0 = %g,%g", s, f)
	}
	s, f = pl.EFTOn(1, 1, true)
	if s != 3 || f != 6 {
		t.Fatalf("EFTOn P1 = %g,%g", s, f)
	}
	p, s, f := pl.BestEFT(1, true)
	if p != 0 || s != 2 || f != 5 {
		t.Fatalf("BestEFT = %d,%g,%g", p, s, f)
	}
}

func TestPlacePanicsOnDouble(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double placement")
		}
	}()
	pl.Place(0, 1, 0)
}

func TestPlaceDupPanicsOnUnscheduled(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dup of unscheduled task")
		}
	}()
	pl.PlaceDup(0, 0, 0)
}

func TestCloneIsolation(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0)
	cp := pl.Clone()
	cp.Place(1, 0, 2)
	if pl.Scheduled(1) {
		t.Fatal("clone mutation leaked into original")
	}
	if !cp.Scheduled(1) {
		t.Fatal("clone lost its own mutation")
	}
	if pl.ProcReady(0) != 2 || cp.ProcReady(0) != 5 {
		t.Fatalf("timelines entangled: %g vs %g", pl.ProcReady(0), cp.ProcReady(0))
	}
}

func TestFinalizeAndValidate(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0)
	p, s, _ := pl.BestEFT(1, true)
	pl.Place(1, p, s)
	p, s, _ = pl.BestEFT(2, true)
	pl.Place(2, p, s)
	p, s, _ = pl.BestEFT(3, true)
	pl.Place(3, p, s)
	sch := pl.Finalize("test")
	if err := sch.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sch.Algorithm() != "test" {
		t.Fatalf("Algorithm = %q", sch.Algorithm())
	}
	if sch.Makespan() <= 0 {
		t.Fatalf("Makespan = %g", sch.Makespan())
	}
	if sch.NumDuplicates() != 0 {
		t.Fatalf("NumDuplicates = %d", sch.NumDuplicates())
	}
	if got := len(sch.All()); got != 4 {
		t.Fatalf("All() len = %d", got)
	}
}

func TestFinalizePanicsIncomplete(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.Place(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on incomplete finalize")
		}
	}()
	pl.Finalize("partial")
}

func TestValidateCatchesViolations(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())

	build := func(mutate func(pl *Plan)) *Schedule {
		pl := NewPlan(in)
		mutate(pl)
		return pl.Finalize("bad")
	}

	// Precedence violation: child starts before parent's data arrives.
	s := build(func(pl *Plan) {
		pl.Place(0, 0, 0) // finish 2
		pl.Place(1, 1, 0) // starts before data arrival 3
		pl.Place(2, 0, 2)
		pl.Place(3, 0, 50)
	})
	if err := s.Validate(); err == nil {
		t.Fatal("precedence violation not caught")
	}

	// Overlap violation on one processor.
	s = build(func(pl *Plan) {
		pl.Place(0, 0, 0)
		pl.Place(1, 0, 1) // overlaps [0,2)
		pl.Place(2, 0, 10)
		pl.Place(3, 0, 50)
	})
	if err := s.Validate(); err == nil {
		t.Fatal("overlap not caught")
	}

	// Negative start.
	s = build(func(pl *Plan) {
		pl.Place(0, 0, -5)
		pl.Place(1, 0, 10)
		pl.Place(2, 0, 20)
		pl.Place(3, 0, 50)
	})
	if err := s.Validate(); err == nil {
		t.Fatal("negative start not caught")
	}
}

func TestBlockProc(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	if got := pl.blockedFrom[0]; !math.IsInf(got, 1) {
		t.Fatalf("fresh plan blocked at %g", got)
	}
	pl.BlockProc(1, 5)
	// Duration 3 starting at 0 fits before the block; duration 3 at
	// ready 3 would end at 6 > 5: impossible.
	if got := pl.FindSlot(1, 0, 3, true); got != 0 {
		t.Fatalf("FindSlot = %g, want 0", got)
	}
	if got := pl.FindSlot(1, 3, 3, true); !math.IsInf(got, 1) {
		t.Fatalf("FindSlot past block = %g, want +Inf", got)
	}
	// Re-blocking keeps the earliest time.
	pl.BlockProc(1, 8)
	if pl.blockedFrom[1] != 5 {
		t.Fatalf("blocked from %g, want 5", pl.blockedFrom[1])
	}
	pl.BlockProc(1, 2)
	if pl.blockedFrom[1] != 2 {
		t.Fatalf("blocked from %g, want 2", pl.blockedFrom[1])
	}
	// BestEFT routes around a fully blocked processor.
	pl2 := NewPlan(in)
	pl2.BlockProc(0, 0)
	p, s, f := pl2.BestEFT(0, true)
	if p != 1 || s != 0 || math.IsInf(f, 1) {
		t.Fatalf("BestEFT = %d,%g,%g", p, s, f)
	}
	// Clone preserves blocks.
	cp := pl2.Clone()
	if cp.blockedFrom[0] != 0 {
		t.Fatal("clone lost block")
	}
}

// With every processor blocked, BestEFT used to report finish=+Inf but
// proc=0, start=0 — inviting a careless Place at time 0 on a blocked
// processor. The no-feasible-slot contract is now explicit: start and
// finish are both +Inf.
func TestBestEFTAllBlocked(t *testing.T) {
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	pl.BlockProc(0, 0)
	pl.BlockProc(1, 0)
	_, s, f := pl.BestEFT(0, true)
	if !math.IsInf(f, 1) {
		t.Fatalf("finish = %g, want +Inf", f)
	}
	if !math.IsInf(s, 1) {
		t.Fatalf("start = %g, want +Inf (callers must not Place here)", s)
	}
	// EFTOn on a blocked processor agrees.
	if es, ef := pl.EFTOn(0, 0, true); !math.IsInf(es, 1) || !math.IsInf(ef, 1) {
		t.Fatalf("EFTOn = %g,%g, want +Inf,+Inf", es, ef)
	}
}

func TestBlockProcMath(t *testing.T) {
	// Guard the +Inf arithmetic: a finite slot plus duration never trips
	// the unblocked (+Inf) comparison.
	g := diamondGraph(t)
	in := Consistent(g, twoProc())
	pl := NewPlan(in)
	if got := pl.FindSlot(0, 1e308, 1e308, true); math.IsInf(got, 1) {
		t.Fatal("huge finite request misclassified as blocked")
	}
}

// Property: greedy insertion scheduling in topological order always yields
// a valid schedule, on many random instances.
func TestGreedyTopoAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(t, rng, 2+rng.Intn(40), 1+rng.Intn(6))
		pl := NewPlan(in)
		for _, v := range in.G.TopoOrder() {
			p, s, _ := pl.BestEFT(v, true)
			pl.Place(v, p, s)
		}
		sch := pl.Finalize("greedy")
		if err := sch.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sch.Makespan() < in.CPMin()-eps {
			t.Fatalf("makespan %g below lower bound %g", sch.Makespan(), in.CPMin())
		}
	}
}

// Property: with duplicates placed in holes, validation still passes and
// DataReady never increases after adding a duplicate.
func TestDuplicationNeverHurtsReadiness(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := diamondGraph(t)
	in := Consistent(g, platform.Homogeneous(3, 1, 2))
	pl := NewPlan(in)
	pl.Place(0, 0, 0)
	_ = rng
	// Manually schedule 1 and 2 on P0, then duplicate 1 onto P1.
	p, s, _ := pl.BestEFT(1, true)
	pl.Place(1, p, s)
	p, s, _ = pl.BestEFT(2, true)
	pl.Place(2, p, s)
	mid := pl.DataReady(3, 1)
	ready := pl.DataReady(1, 1)
	slot := pl.FindSlot(1, ready, in.Cost(1, 1), true)
	pl.PlaceDup(1, 1, slot)
	after := pl.DataReady(3, 1)
	if after > mid+eps {
		t.Fatalf("duplicate increased readiness: %g -> %g", mid, after)
	}
	p, s, _ = pl.BestEFT(3, true)
	pl.Place(3, p, s)
	if err := pl.Finalize("dup").Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// linearBestEFT is the plain loop over every processor, the canonical
// semantics BestEFT's scan must reproduce: DataReady, then the linear
// reference slot scan (linearSlot), keeping the first smallest finish.
func linearBestEFT(pl *Plan, i dag.TaskID, insertion bool) (proc int, start, finish float64) {
	start, finish = math.Inf(1), math.Inf(1)
	for p := 0; p < pl.in.P(); p++ {
		dur := pl.in.Cost(i, p)
		s := linearSlot(pl, p, pl.DataReady(i, p), dur, insertion)
		if f := s + dur; f < finish {
			proc, start, finish = p, s, f
		}
	}
	return proc, start, finish
}

// linearSlot is FindSlot by the linear reference scan over p's
// assignments, with no gap index: the first gap at or after ready that
// dur fits with insertion, else the end of the last assignment; +Inf
// where the interval would cross p's block.
func linearSlot(pl *Plan, p int, ready, dur float64, insertion bool) float64 {
	start, prevFinish := math.NaN(), 0.0
	for _, a := range pl.OnProc(p) {
		if s := math.Max(ready, prevFinish); insertion && math.IsNaN(start) && s+dur <= a.Start+timeline.Eps {
			start = s
		}
		prevFinish = math.Max(prevFinish, a.Finish)
	}
	if math.IsNaN(start) {
		start = math.Max(ready, prevFinish)
	}
	if start+dur > pl.blockedFrom[p]+timeline.Eps {
		return math.Inf(1)
	}
	return start
}

// TestBestEFTTreeMatchesLinear grows random schedules task by task; at
// every step BestEFT's scan (predecessors gathered on the stack, the
// finish-floor skip, the gap-tree slot search and the tail-only answer)
// must return the same (proc, start, finish) as the linear loop, bit for
// bit — including ties engineered by integer costs on a homogeneous
// system, partially blocked processors, duplicated copies and one
// 64-processor system. Before every placement checkSlots holds FindSlot
// to the linear scan on every processor, and every fifth task is first
// placed in a trial and undone, which can leave an index with no finite
// gap again. A trial placement at a tail starts half a unit late, so the
// gap it leaves, shorter than any task, is not indexed: a shorter query
// must still find it through the scan.
func TestBestEFTTreeMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c slotCounts
	for trial := 0; trial < 31; trial++ {
		procs := 2 + rng.Intn(12)
		if trial == 30 {
			procs = 64
		}
		in := integerInstance(t, rng, 10+rng.Intn(60), procs)
		pl := NewPlan(in)
		if trial%3 == 1 {
			pl.BlockProc(rng.Intn(procs), float64(rng.Intn(20)))
		}
		insertion := trial%2 == 0
		for k, v := range in.G.TopoOrder() {
			checkSlots(t, pl, rng, &c)
			if p, s, f := pl.BestEFT(v, insertion); k%5 == 4 && !math.IsInf(f, 1) {
				_, before := pl.gaps[p].TailOnly()
				if s >= pl.ProcReady(p) {
					s += 0.5 // a gap shorter than any task, left out of the index
				}
				m := pl.Mark()
				pl.Place(v, p, s)
				_, during := pl.gaps[p].TailOnly()
				checkSlots(t, pl, rng, &c)
				pl.Undo(m)
				pl.Commit()
				if _, after := pl.gaps[p].TailOnly(); before && !during && after {
					c.emptied++
				}
				checkSlots(t, pl, rng, &c)
			}
			lp, ls, lf := linearBestEFT(pl, v, insertion)
			tp, ts, tf := pl.BestEFT(v, insertion)
			if lp != tp || ls != ts || lf != tf {
				t.Fatalf("trial %d task %d: BestEFT (%d,%.17g,%.17g) != linear (%d,%.17g,%.17g)",
					trial, v, tp, ts, tf, lp, ls, lf)
			}
			if math.IsInf(lf, 1) {
				// Fully blocked: place on the reference answer's processor
				// is impossible; stop growing this plan.
				break
			}
			pl.Place(v, lp, ls)
			// Occasionally duplicate onto another processor so later
			// data-ready bounds see multi-copy predecessors.
			if rng.Intn(6) == 0 && procs > 1 {
				q := (lp + 1 + rng.Intn(procs-1)) % procs
				ready := pl.DataReady(v, q)
				s := pl.FindSlot(q, ready, in.Cost(v, q), true)
				if !math.IsInf(s, 1) {
					pl.PlaceDup(v, q, s)
				}
			}
		}
	}
	if c.below == 0 || c.at == 0 || c.above == 0 || c.short == 0 || c.shortTailOnly == 0 || c.blocked == 0 || c.emptied == 0 {
		t.Fatalf("the battery missed a slot case: %+v", c)
	}
	t.Logf("slot cases: %+v", c)
}

// slotCounts tallies the FindSlot cases checkSlots met: a tail-only index
// (no finite gap) queried below, at and above its tail, a query shorter
// than m that the scan fits before the tail (shortTailOnly: on a
// tail-only index), an answer a block turned to +Inf, and an index a
// trial's Undo left tail-only again.
type slotCounts struct{ below, at, above, short, shortTailOnly, blocked, emptied int }

// checkSlots holds FindSlot, with and without insertion, to the linear
// scan on every processor of pl, for readies around the processor's tail
// and durations of m/2, m and m plus up to 4.
func checkSlots(t *testing.T, pl *Plan, rng *rand.Rand, c *slotCounts) {
	t.Helper()
	m := pl.in.minW
	for p := range pl.procs {
		tail, tailOnly := pl.gaps[p].TailOnly()
		for _, ready := range []float64{0, tail / 2, tail - 1, tail, tail + 1, float64(rng.Intn(int(tail) + 2))} {
			if ready < 0 {
				continue
			}
			for _, dur := range []float64{m / 2, m, m + float64(rng.Intn(5))} {
				for _, insertion := range []bool{true, false} {
					got, want := pl.FindSlot(p, ready, dur, insertion), linearSlot(pl, p, ready, dur, insertion)
					if got != want {
						t.Fatalf("FindSlot(%d, %v, %v, %v) = %v, linear scan %v (tail %v, tail-only %v)", p, ready, dur, insertion, got, want, tail, tailOnly)
					}
					switch {
					case !insertion:
					case math.IsInf(got, 1):
						c.blocked++
					case tailOnly && ready < tail && dur >= m:
						c.below++
					case tailOnly && ready == tail:
						c.at++
					case tailOnly && ready > tail:
						c.above++
					case dur < m && ready < tail && got < tail:
						c.short++
						if tailOnly {
							c.shortTailOnly++
						}
					}
				}
			}
		}
	}
}

// TestBestEFTTreeContended repeats the equivalence under the one-port
// model, where BestEFT's readiness routes through reservation queries.
func TestBestEFTTreeContended(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		procs := 3 + rng.Intn(6)
		base := integerInstance(t, rng, 8+rng.Intn(40), procs)
		in := base.WithComm(platform.OnePort(base.Sys))
		pl := NewPlan(in)
		for _, v := range in.G.TopoOrder() {
			lp, ls, lf := linearBestEFT(pl, v, true)
			tp, ts, tf := pl.BestEFT(v, true)
			if lp != tp || ls != ts || lf != tf {
				t.Fatalf("trial %d task %d: BestEFT (%d,%g,%g) != linear (%d,%g,%g)",
					trial, v, tp, ts, tf, lp, ls, lf)
			}
			pl.Place(v, lp, ls)
		}
	}
}

// integerInstance builds a random instance with small integer costs and
// comm data so EFT ties across processors are common — the regime where a
// wrong tie-break shows up immediately.
func integerInstance(t testing.TB, rng *rand.Rand, n, procs int) *Instance {
	t.Helper()
	b := dag.NewBuilder("int")
	for i := 0; i < n; i++ {
		b.AddTask("", float64(1+rng.Intn(5)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.15 {
				b.AddEdge(dag.TaskID(i), dag.TaskID(j), float64(rng.Intn(4)))
			}
		}
	}
	g := b.MustBuild()
	sys := platform.Homogeneous(procs, 0, 1)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, procs)
		for p := range w[i] {
			w[i][p] = float64(1 + rng.Intn(5))
		}
	}
	in, err := NewInstance(g, sys, w)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return in
}

// TestZeroCostBesideLongerCopy places a zero-cost task at the start of a
// longer one on the same processor. The zero-length copy sorts first, so
// the processor's last copy still has its latest finish: ProcReady and
// the gap index's tail must both read 15, not the zero task's 10. Two
// zero-cost copies then land at the tail, equal in start and finish,
// and the later goes last.
func TestZeroCostBesideLongerCopy(t *testing.T) {
	b := dag.NewBuilder("zero-cost")
	x, z := b.AddTask("X", 5), b.AddTask("Z", 0)
	z2, z3 := b.AddTask("Z2", 0), b.AddTask("Z3", 0)
	in := Consistent(b.MustBuild(), platform.Homogeneous(1, 0, 1))
	pl := NewPlan(in)
	pl.Place(x, 0, 10)
	s := pl.FindSlot(0, 10, 0, true)
	if s != 10 {
		t.Fatalf("zero-cost slot at ready 10 = %g, want 10", s)
	}
	pl.Place(z, 0, s)
	if got := pl.ProcReady(0); got != 15 {
		t.Errorf("ProcReady = %g, want 15", got)
	}
	if got := pl.FindSlot(0, 12, 1, true); got != 15 {
		t.Errorf("FindSlot(ready 12, dur 1) = %g, want 15", got)
	}
	pl.Place(z2, 0, 15)
	pl.Place(z3, 0, 15)
	var got []dag.TaskID
	for _, a := range pl.OnProc(0) {
		got = append(got, a.Task)
	}
	if want := []dag.TaskID{z, x, z2, z3}; !reflect.DeepEqual(got, want) {
		t.Errorf("processor order %v, want %v", got, want)
	}
}

// TestReadyRowMatchesDataReady grows plans whose last task is fed by
// every other task (more than 16 predecessors, the width the old
// stack-gathered scan stopped at), with zero-cost tasks, zero-data arcs
// and random duplicates, under each communication model: on one
// processor and on several with per-link startups and rates, and on
// uniform links (one, two, eight and 32 processors, latency 0 and 1),
// where the contention-free row is read from the largest remote arrival.
// The contention-free model runs as an explicit model object, as the
// instance's default, and doubled (doubledLinks), which no uniform row
// may serve. Before every placement ReadyRow must equal DataReady on
// every processor, bit for bit; entry tasks included. Then
// checkUniformRows pins hand-computed uniform rows.
func TestReadyRowMatchesDataReady(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var systems []func() *platform.System
	for _, procs := range []int{1, 4, 7} {
		systems = append(systems, func() *platform.System {
			sys, err := platform.Generate(platform.GenConfig{Procs: procs, Latency: 1, TimePerUnit: 1, StartupSpread: 0.5, LinkSpread: 0.5}, rng)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		})
	}
	for _, procs := range []int{1, 2, 8, 32} {
		systems = append(systems,
			func() *platform.System { return platform.Homogeneous(procs, 0, 1) },
			func() *platform.System { return platform.Homogeneous(procs, 1, 0.5) })
	}
	for _, sys := range systems {
		for _, kind := range platform.ModelKinds() {
			for trial := 0; trial < 4; trial++ {
				in := readyRowInstance(t, rng, 18+rng.Intn(12), sys())
				m, err := platform.ModelByKind(kind, in.Sys)
				if err != nil {
					t.Fatal(err)
				}
				checkReadyRows(t, in.WithComm(m), func() int { return rng.Intn(1 << 30) })
				if kind == platform.KindContentionFree {
					checkReadyRows(t, in, func() int { return rng.Intn(1 << 30) })
					checkReadyRows(t, in.WithComm(doubledLinks{m}), func() int { return rng.Intn(1 << 30) })
				}
			}
		}
	}

	checkUniformRows(t)

	pl := NewPlan(Consistent(diamondGraph(t), twoProc()))
	defer func() {
		if recover() == nil {
			t.Fatal("ReadyRow on a task with an unscheduled predecessor did not panic")
		}
	}()
	pl.ReadyRow(1)
}

// doubledLinks is a contention-free model whose transfers take twice the
// System's time: its costs are not the links', uniform or not.
type doubledLinks struct{ platform.CommModel }

func (m doubledLinks) Cost(p, q int, data float64) float64 { return 2 * m.CommModel.Cost(p, q, data) }

// checkUniformRows checks hand-computed rows on four uniform processors
// (latency 1, one time unit per data unit). A (finish 4 on P0) sends one
// unit, arriving at 6 elsewhere; B (finish 5 on P1) sends none, arriving
// at 6 too: they tie for the largest remote arrival on different
// processors. C has copies on P2 (finish 3) and P3 (finish 2) and sends
// four units, arriving at 2+5 = 7 where it has no copy.
func checkUniformRows(t *testing.T) {
	b := dag.NewBuilder("uniform-rows")
	a, bb, c := b.AddTask("A", 1), b.AddTask("B", 1), b.AddTask("C", 1)
	ab, only, all := b.AddTask("AB", 1), b.AddTask("A-only", 1), b.AddTask("ABC", 1)
	b.AddEdge(a, ab, 1)
	b.AddEdge(bb, ab, 0)
	b.AddEdge(a, only, 1)
	b.AddEdge(a, all, 1)
	b.AddEdge(bb, all, 0)
	b.AddEdge(c, all, 4)
	w := [][]float64{{4, 4, 4, 4}, {5, 5, 5, 5}, {3, 3, 3, 2}, {1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}}
	in, err := NewInstance(b.MustBuild(), platform.Homogeneous(4, 1, 1), w)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlan(in)
	pl.Place(a, 0, 0)
	pl.Place(bb, 1, 0)
	pl.Place(c, 2, 0)
	pl.PlaceDup(c, 3, 0)
	for _, tc := range []struct {
		task dag.TaskID
		want []float64
	}{
		{ab, []float64{6, 6, 6, 6}},   // the tie: each processor hears from the other
		{only, []float64{4, 6, 6, 6}}, // A's own processor reads its finish
		{all, []float64{7, 7, 6, 6}},  // C's copies arrive locally at 3 and 2
	} {
		row := pl.ReadyRow(tc.task)
		for p, r := range row {
			if d := pl.DataReady(tc.task, p); r != tc.want[p] || d != tc.want[p] {
				t.Errorf("task %s on P%d: ReadyRow %v, DataReady %v, want %v", in.G.Task(tc.task).Name, p, r, d, tc.want[p])
			}
		}
	}
}

// readyRowInstance draws an n-task DAG on sys whose last task has every
// other task as a predecessor, with costs and arc data from 0.
func readyRowInstance(t testing.TB, rng *rand.Rand, n int, sys *platform.System) *Instance {
	t.Helper()
	b := dag.NewBuilder("ready-row")
	for i := 0; i < n; i++ {
		b.AddTask("", 1)
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if j == n-1 || rng.Intn(5) == 0 {
				b.AddEdge(dag.TaskID(i), dag.TaskID(j), float64(rng.Intn(4)))
			}
		}
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, sys.Len())
		for p := range w[i] {
			w[i][p] = float64(rng.Intn(6))
		}
	}
	in, err := NewInstance(b.MustBuild(), sys, w)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// checkReadyRows places in's tasks in topological order, each at its
// earliest slot on the processor next picks, and while next picks so
// duplicates it on up to three processors. Before each task is placed,
// ReadyRow must equal DataReady on every processor, bit for bit.
func checkReadyRows(t *testing.T, in *Instance, next func() int) {
	t.Helper()
	pl := NewPlan(in)
	for _, v := range in.G.TopoOrder() {
		row := pl.ReadyRow(v)
		for p, r := range row {
			if d := pl.DataReady(v, p); math.Float64bits(r) != math.Float64bits(d) {
				t.Fatalf("%s, task %d on P%d: ReadyRow %v, DataReady %v", in.CommKind(), v, p, r, d)
			}
		}
		p := next() % in.P()
		pl.Place(v, p, pl.FindSlot(p, row[p], in.Cost(v, p), true))
		for dups := 0; dups < 3 && next()%3 == 0; dups++ {
			q := next() % in.P()
			pl.PlaceDup(v, q, pl.FindSlot(q, pl.DataReady(v, q), in.Cost(v, q), true))
		}
	}
}
