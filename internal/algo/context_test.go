package algo_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/search"
	"dagsched/internal/algo/suite"
	"dagsched/internal/core"
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
	plain := algo.Func{AlgName: "plain", Fn: listsched.DLS{}.Schedule} // checked by the dispatcher
	for _, a := range []algo.Algorithm{
		listsched.HEFT{},
		listsched.DSH{},
		listsched.BTDH{},
		plain,
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

// TestRegistryScheduleContextPreCanceled calls every registry
// algorithm's own ScheduleContext, not the dispatcher, with a context
// canceled before the run: each must implement algo.CtxScheduler, check
// its context before its first placement, and name itself first in the
// error.
func TestRegistryScheduleContextPreCanceled(t *testing.T) {
	in := testfix.Topcuoglu()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, a := range append(suite.All(), suite.Search()...) {
		ca, ok := a.(algo.CtxScheduler)
		if !ok {
			t.Errorf("%s does not implement algo.CtxScheduler", a.Name())
			continue
		}
		_, err := ca.ScheduleContext(ctx, in)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", a.Name(), err)
		} else if !strings.HasPrefix(err.Error(), a.Name()+": ") {
			t.Errorf("%s: err = %q, want it to start with %q", a.Name(), err, a.Name()+": ")
		}
	}
}
