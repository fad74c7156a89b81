package algo

import (
	"context"
	"fmt"

	"dagsched/internal/sched"
)

// CtxScheduler is implemented by algorithms whose loops check their
// context once per placement, pick or search iteration: a canceled
// context makes ScheduleContext return promptly with the context's error
// instead of burning CPU to completion. Every algorithm in the registry
// implements it.
type CtxScheduler interface {
	ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error)
}

// ScheduleContext runs the algorithm under ctx. Algorithms implementing
// CtxScheduler abort mid-schedule on cancellation; for the rest the
// context is checked before the (uninterruptible) run and the run's
// result is discarded if the context expired meanwhile. Either way a
// non-nil ctx error is reported as context.Canceled/DeadlineExceeded
// wrapped with the algorithm name.
func ScheduleContext(ctx context.Context, a Algorithm, in *sched.Instance) (*sched.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), err)
	}
	if ca, ok := a.(CtxScheduler); ok {
		return ca.ScheduleContext(ctx, in)
	}
	s, err := a.Schedule(in)
	if err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("%s: %w", a.Name(), cerr)
	}
	return s, nil
}
