// Package algo defines the Algorithm interface implemented by every
// scheduler in this repository and the machinery they share: precedence-
// safe priority ordering, ready-list iteration and the critical-parent
// duplication trials (DSH's greedy, BTDH's chain) used by duplication-
// based heuristics.
package algo

import (
	"dagsched/internal/sched"
)

// Algorithm is a static scheduling heuristic: it maps a problem instance
// to a complete, valid schedule.
type Algorithm interface {
	// Name returns the short display name, e.g. "HEFT".
	Name() string
	// Schedule produces a complete schedule for the instance.
	Schedule(in *sched.Instance) (*sched.Schedule, error)
}

// Func adapts a function to the Algorithm interface.
type Func struct {
	AlgName string
	Fn      func(in *sched.Instance) (*sched.Schedule, error)
}

// Name implements Algorithm.
func (f Func) Name() string { return f.AlgName }

// Schedule implements Algorithm.
func (f Func) Schedule(in *sched.Instance) (*sched.Schedule, error) { return f.Fn(in) }
