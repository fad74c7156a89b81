package algo

import (
	"context"

	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// CommAware runs any registry algorithm contention-aware: it rebinds the
// instance to a contended communication model (sched.Instance.WithComm)
// and delegates, so the inner algorithm's own EFT queries and duplication
// trials all flow through the shared reservation layer
// in internal/platform — no scheduler needs bespoke contention code.
//
// Model resolution, most specific first: an instance already carrying a
// contended model is scheduled as-is (the service selects models this
// way); otherwise Model is used when set; otherwise Kind is built over
// the instance's system (empty Kind defaults to one-port).
type CommAware struct {
	// Inner is the wrapped algorithm (required).
	Inner Algorithm
	// Kind names the platform model built over the instance's system when
	// neither the instance nor Model specifies one; empty means one-port.
	Kind string
	// Model, when non-nil, overrides Kind with a prebuilt model.
	Model platform.CommModel
	// DisplayName overrides the default "C-" + Inner.Name().
	DisplayName string
}

// Name implements Algorithm.
func (c CommAware) Name() string {
	if c.DisplayName != "" {
		return c.DisplayName
	}
	return "C-" + c.Inner.Name()
}

func (c CommAware) rebind(in *sched.Instance) (*sched.Instance, error) {
	if in.CommModel() != nil && in.CommKind() != platform.KindContentionFree {
		return in, nil
	}
	m := c.Model
	if m == nil {
		kind := c.Kind
		if kind == "" {
			kind = platform.KindOnePort
		}
		var err error
		if m, err = platform.ModelByKind(kind, in.Sys); err != nil {
			return nil, err
		}
	}
	return in.WithComm(m), nil
}

// Schedule implements Algorithm.
func (c CommAware) Schedule(in *sched.Instance) (*sched.Schedule, error) {
	return c.ScheduleContext(context.Background(), in)
}

// ScheduleContext implements CtxScheduler, delegating cancellation to the
// inner algorithm when it supports it.
func (c CommAware) ScheduleContext(ctx context.Context, in *sched.Instance) (*sched.Schedule, error) {
	bound, err := c.rebind(in)
	if err != nil {
		return nil, err
	}
	s, err := ScheduleContext(ctx, c.Inner, bound)
	if err != nil {
		return nil, err
	}
	return s.Renamed(c.Name()), nil
}
