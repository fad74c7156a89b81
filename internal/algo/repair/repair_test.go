// Package repair holds no code. The one-crash repair that dagsched.Repair
// and dagsched.AssessFailure run is resched's remap-stranded policy on a
// single event; these tests pin that contract: work that started before
// the crash stays, pending work keeps its processor and only slides
// later, and work lost on the dead processor moves to the survivors.
package repair

import (
	"math"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/resched"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

const eps = 1e-9

// assess runs the one-crash repair the facade runs.
func assess(t *testing.T, s *sched.Schedule, ev resched.Event) (*sched.Schedule, resched.Outcome, error) {
	t.Helper()
	p, err := resched.ByName("remap-stranded")
	if err != nil {
		t.Fatal(err)
	}
	return p.Assess(s, []resched.Event{ev})
}

func heftTopcuoglu(t *testing.T) *sched.Schedule {
	t.Helper()
	s, err := listsched.HEFT{}.Schedule(testfix.Topcuoglu())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hasCopy reports whether r places a copy of task i on proc at start.
func hasCopy(r *sched.Schedule, i dag.TaskID, proc int, start float64) bool {
	for _, c := range r.Copies(i) {
		if c.Proc == proc && math.Abs(c.Start-start) < eps {
			return true
		}
	}
	return false
}

// checkPendingStay fails unless every primary of s that had not started
// by the crash and ran on a survivor keeps its processor in r and starts
// no earlier.
func checkPendingStay(t *testing.T, s, r *sched.Schedule, ev resched.Event) {
	t.Helper()
	for i := 0; i < s.Instance().N(); i++ {
		a := s.Primary(dag.TaskID(i))
		if a.Proc == ev.Proc || a.Start <= ev.Time+eps {
			continue
		}
		got := r.Primary(dag.TaskID(i))
		if got.Proc != a.Proc || got.Start < a.Start-eps {
			t.Fatalf("pending task %d moved from P%d@%g to P%d@%g", i, a.Proc, a.Start, got.Proc, got.Start)
		}
	}
}

func TestRepairValidation(t *testing.T) {
	s := heftTopcuoglu(t)
	if _, _, err := assess(t, s, resched.Event{Proc: -1, Time: 10}); err == nil {
		t.Fatal("negative proc accepted")
	}
	if _, _, err := assess(t, s, resched.Event{Proc: 9, Time: 10}); err == nil {
		t.Fatal("out-of-range proc accepted")
	}
	if _, _, err := assess(t, s, resched.Event{Proc: 0, Time: -1}); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestRepairSingleProcRefused(t *testing.T) {
	b := dag.NewBuilder("one")
	b.AddTask("", 1)
	g := b.MustBuild()
	in, err := sched.NewInstance(g, platform.Homogeneous(1, 0, 1), [][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := listsched.HEFT{}.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := assess(t, s, resched.Event{Proc: 0, Time: 0}); err == nil {
		t.Fatal("single-processor repair accepted")
	}
}

func TestRepairAtTimeZeroAvoidsProcEntirely(t *testing.T) {
	s := heftTopcuoglu(t)
	failed := s.Primary(0).Proc
	ev := resched.Event{Proc: failed, Time: 0}
	r, out, err := assess(t, s, ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, a := range r.All() {
		if a.Proc == failed {
			t.Fatalf("task %d still on failed P%d", a.Task, a.Proc)
		}
	}
	// Nothing had started, so every primary of the failed processor is
	// lost and every other one stays where it was, no earlier.
	lost := 0
	for _, a := range s.OnProc(failed) {
		if !a.Dup {
			lost++
		}
	}
	if out.Lost != lost || out.Frozen != 0 {
		t.Fatalf("crash at t=0: outcome %+v, want %d lost and nothing frozen", out, lost)
	}
	checkPendingStay(t, s, r, ev)
	// Not true of every repair (lost work may land on a faster survivor),
	// but on this instance losing a processor costs time.
	if r.Makespan() < s.Makespan() {
		t.Fatalf("losing a processor improved the makespan: %g < %g", r.Makespan(), s.Makespan())
	}
}

func TestRepairLateFailureKeepsEverything(t *testing.T) {
	s := heftTopcuoglu(t)
	// Failure after the makespan: nothing is lost, nothing moves.
	r, out, err := assess(t, s, resched.Event{Proc: 1, Time: s.Makespan() + 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Lost != 0 || out.Delayed+out.Remapped != 0 || out.DroppedDups != 0 {
		t.Fatalf("late failure cost %+v", out)
	}
	if r.Makespan() != s.Makespan() || out.Repaired != out.Nominal {
		t.Fatalf("late failure changed makespan: %g vs %g", r.Makespan(), s.Makespan())
	}
	if testfix.ScheduleDigest(r) != testfix.ScheduleDigest(s) {
		t.Fatal("late failure changed the schedule")
	}
}

func TestRepairMidExecution(t *testing.T) {
	s := heftTopcuoglu(t)
	in := s.Instance()
	// HEFT places work on all three processors; P0 has work on both
	// sides of the midpoint.
	ev := resched.Event{Proc: 0, Time: s.Makespan() / 2}
	r, out, err := assess(t, s, ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.Nominal != s.Makespan() || out.Repaired != r.Makespan() {
		t.Fatalf("outcome %+v inconsistent with schedules", out)
	}
	// Copies that started before the failure and were not destroyed by
	// it survive in place.
	for i := 0; i < in.N(); i++ {
		for _, c := range s.Copies(dag.TaskID(i)) {
			if c.Start > ev.Time+eps || (c.Proc == ev.Proc && c.Finish > ev.Time+eps) {
				continue
			}
			if !hasCopy(r, dag.TaskID(i), c.Proc, c.Start) {
				t.Fatalf("started task %d moved from P%d@%g", i, c.Proc, c.Start)
			}
		}
	}
	// No hindsight: every copy that starts by the failure was placed
	// there by the original schedule.
	for _, a := range r.All() {
		if a.Start <= ev.Time+eps && !hasCopy(s, a.Task, a.Proc, a.Start) {
			t.Fatalf("task %d newly started on P%d@%g before the failure at %g", a.Task, a.Proc, a.Start, ev.Time)
		}
	}
	// No new work on the failed processor after the failure.
	for _, a := range r.OnProc(ev.Proc) {
		if a.Finish > ev.Time+eps {
			t.Fatalf("task %d on failed proc finishes at %g after failure %g", a.Task, a.Finish, ev.Time)
		}
	}
	checkPendingStay(t, s, r, ev)
	if out.Repaired < out.Nominal-eps {
		t.Fatal("repair claims to beat the original schedule")
	}
}
