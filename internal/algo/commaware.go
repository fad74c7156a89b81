package algo

import (
	"context"
	"fmt"

	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// CommAware runs any registry algorithm contention-aware: it rebinds the
// instance to a contended communication model (sched.Instance.WithComm)
// and delegates, so the inner algorithm's own EFT queries and duplication
// trials all flow through the shared reservation layer
// in internal/platform — no scheduler needs bespoke contention code.
//
// Model resolution: an instance already carrying a contended model is
// scheduled as-is (the service selects models this way); otherwise Kind
// is built over the instance's system (empty Kind defaults to one-port).
type CommAware struct {
	// Inner is the wrapped algorithm (required).
	Inner Algorithm
	// Kind names the platform model built over the instance's system when
	// the instance specifies none; empty means one-port.
	Kind string
}

// Name implements Algorithm: "C-" + Inner.Name().
func (c CommAware) Name() string { return "C-" + c.Inner.Name() }

func (c CommAware) rebind(in *sched.Instance) (*sched.Instance, error) {
	if in.CommModel() != nil && in.CommKind() != platform.KindContentionFree {
		return in, nil
	}
	kind := c.Kind
	if kind == "" {
		kind = platform.KindOnePort
	}
	m, err := platform.ModelByKind(kind, in.Sys)
	if err != nil {
		return nil, err
	}
	return in.WithComm(m), nil
}

// Schedule implements Algorithm.
func (c CommAware) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return c.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements CtxScheduler, delegating cancellation to the
// inner algorithm when it supports it. Errors carry the wrapper's name
// and wrap the cause, so errors.Is still sees a context error.
func (c CommAware) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	bound, err := c.rebind(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name(), err)
	}
	s, err := ScheduleContext(ctx, c.Inner, bound)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name(), err)
	}
	return s.Renamed(c.Name()), nil
}
