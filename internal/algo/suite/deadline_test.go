package suite

import (
	"context"
	"errors"
	"testing"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/workload"
)

// TestRegistryStopsAtDeadline schedules a wide fork-join (300 parallel
// tasks) on 512 identical processors under a 50 ms deadline with every
// registry name, through the dispatcher schedd calls. Each must return
// within 150 ms, with a valid schedule or context.DeadlineExceeded. On
// this instance a pair pick scans 300×512 pairs and an ILS placement
// runs 512 trials, so an algorithm that checks its context only now and
// then, or only around the run, returns long after its deadline.
func TestRegistryStopsAtDeadline(t *testing.T) {
	g, err := workload.ForkJoin(300, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := sched.Consistent(g, platform.Homogeneous(512, 0, 1))
	const deadline, bound = 50 * time.Millisecond, 150 * time.Millisecond
	for _, a := range append(All(), Search()...) {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		s, err := algo.ScheduleContext(ctx, a, in)
		took := time.Since(start)
		cancel()
		switch {
		case err == nil:
			if verr := s.Validate(); verr != nil {
				t.Errorf("%s: invalid schedule: %v", a.Name(), verr)
			}
		case !errors.Is(err, context.DeadlineExceeded):
			t.Errorf("%s: err = %v, want a schedule or context.DeadlineExceeded", a.Name(), err)
		}
		if took > bound {
			t.Errorf("%s returned after %v under a %v deadline (bound %v)", a.Name(), took, deadline, bound)
		}
	}
}
