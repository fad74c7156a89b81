package algo_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/search"
	"dagsched/internal/core"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func TestScheduleContextLiveContext(t *testing.T) {
	in := testfix.Topcuoglu()
	for _, a := range []algo.Algorithm{listsched.HEFT{}, core.New(), listsched.CPOP{}} {
		s, err := algo.ScheduleContext(context.Background(), a, in)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
}

func TestScheduleContextPreCanceled(t *testing.T) {
	in := testfix.Topcuoglu()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Both a CtxScheduler and a plain Algorithm refuse a dead context.
	for _, a := range []algo.Algorithm{
		listsched.HEFT{},
		listsched.DSH{},
		listsched.BTDH{},
		listsched.DLS{}, // no ScheduleContext: checked by the dispatcher
	} {
		if _, err := algo.ScheduleContext(ctx, a, in); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", a.Name(), err)
		}
	}
}

func TestScheduleContextAbortsMidRun(t *testing.T) {
	in := testfix.Topcuoglu()
	for _, a := range []algo.Algorithm{
		core.New(),
		listsched.HEFT{},
		search.HillClimb{Iters: 1 << 30},
		search.Anneal{Iters: 1 << 30},
		search.Genetic{Pop: 16, Gens: 1 << 20},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := algo.ScheduleContext(ctx, a, in)
			done <- err
		}()
		// Give the run a head start, then cancel; an unbounded search
		// without checkpoints would never return.
		time.Sleep(5 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			// ILS/HEFT may legitimately finish the tiny instance before
			// the cancel lands; the unbounded searches cannot.
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v", a.Name(), err)
			}
			if err == nil {
				if _, unbounded := a.(search.HillClimb); unbounded {
					t.Fatalf("%s: unbounded search completed", a.Name())
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: did not abort within 10s of cancellation", a.Name())
		}
	}
}

func TestCheckpointNilDone(t *testing.T) {
	c := algo.NewCheckpoint(context.Background(), 1)
	for i := 0; i < 1000; i++ {
		if err := c.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointFirstCheckPolls is the regression test for the stride
// counter: a context canceled before the loop starts must surface on the
// very first Check, not after stride-1 free iterations.
func TestCheckpointFirstCheckPolls(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := algo.NewCheckpoint(ctx, 64)
	if err := c.Check(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Check = %v, want context.Canceled", err)
	}
}

// TestCheckpointStride pins the steady-state cadence: after the first
// poll, a live context is polled exactly once per stride Checks — verified
// by canceling between Checks and counting the delay until detection.
func TestCheckpointStride(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := algo.NewCheckpoint(ctx, 4)
	if err := c.Check(); err != nil { // first Check polls the live context
		t.Fatalf("live first Check = %v", err)
	}
	cancel()
	// Checks 2 and 3 fall inside the stride window; check 5 (= 1 + stride)
	// is the next poll and must report the cancellation.
	delay := 0
	for c.Check() == nil {
		delay++
		if delay > 4 {
			t.Fatalf("cancellation not seen within one stride")
		}
	}
	if delay != 3 {
		t.Fatalf("cancellation seen after %d Checks, want 3 (stride 4)", delay)
	}
}

var _ algo.CtxScheduler = core.New()
var _ algo.CtxScheduler = listsched.HEFT{}
var _ algo.CtxScheduler = listsched.CPOP{}
var _ algo.CtxScheduler = listsched.HLFET{}
var _ algo.CtxScheduler = listsched.ETF{}
var _ algo.CtxScheduler = listsched.DSH{}
var _ algo.CtxScheduler = listsched.BTDH{}
var _ algo.CtxScheduler = search.HillClimb{}
var _ algo.CtxScheduler = search.Anneal{}
var _ algo.CtxScheduler = search.Genetic{}
var _ algo.Algorithm = algo.Func{AlgName: "f", Fn: func(in *sched.Instance) (*sched.Schedule, error) { return nil, nil }}
