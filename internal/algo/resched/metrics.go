package resched

import (
	"context"
	"fmt"
	"math"

	"dagsched/internal/sched"
	"dagsched/internal/sim"
)

// MakespanSlack returns the mean relative slack of the schedule's tasks:
// how much later each primary could finish without growing the makespan
// (placements and per-processor order held fixed), averaged over tasks
// and normalized by the makespan. A high-slack schedule has more room to
// absorb runtime faults without degrading.
func MakespanSlack(s *sched.Schedule) float64 {
	in := s.Instance()
	ms := s.Makespan()
	if in.N() == 0 || ms <= 0 {
		return 0
	}
	an := sched.Analyze(s)
	sum := 0.0
	for _, sl := range an.Slack {
		sum += sl
	}
	return sum / float64(in.N()) / ms
}

// RobustnessConfig parameterizes EvalRobustness.
type RobustnessConfig struct {
	// Samples is the number of fault plans drawn (default 20).
	Samples int
	// Rate is the per-processor permanent-crash probability of each
	// sampled plan (crash times uniform over the nominal makespan).
	Rate float64
	// Seed makes the sample set deterministic.
	Seed int64
	// Policy repairs the samples that strand work (zero value: auto).
	Policy Policy
}

// Robustness aggregates schedule degradation over sampled fault plans.
type Robustness struct {
	Samples int
	// CompletionRate is the fraction of samples the *unrepaired*
	// schedule survived: every task still computed by some copy.
	CompletionRate float64
	// MeanDegradation and MaxDegradation are over the makespans after
	// reactive repair (samples needing none count as their replayed
	// stretch), normalized by the nominal makespan; 1 = no degradation.
	MeanDegradation float64
	MaxDegradation  float64
	// MeanSlack is the schedule's makespan slack (fault-independent).
	MeanSlack float64
}

// EvalRobustness measures expected degradation of the schedule under
// sampled fail-stop fault plans, with reactive repair applied whenever a
// sample strands work. Deterministic per cfg.Seed. It checks ctx before
// every sample and returns its error once it is done.
func EvalRobustness(ctx context.Context, s *sched.Schedule, cfg RobustnessConfig) (Robustness, error) {
	if cfg.Rate < 0 || cfg.Rate > 1 || math.IsNaN(cfg.Rate) {
		return Robustness{}, fmt.Errorf("resched: crash rate %g out of [0,1]", cfg.Rate)
	}
	n := cfg.Samples
	if n <= 0 {
		n = 20
	}
	pol := cfg.Policy
	if pol.name == "" {
		pol = Default()
	}
	in := s.Instance()
	nominal := s.Makespan()
	r := Robustness{Samples: n, MeanSlack: MakespanSlack(s), MaxDegradation: 1}
	completed := 0
	sum := 0.0
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return Robustness{}, fmt.Errorf("resched: robustness sample %d of %d: %w", k, n, err)
		}
		fp := sim.SampleCrashes(in.P(), cfg.Rate, nominal, cfg.Seed+int64(k)*0x9E3779B9+1)
		rep, err := sim.Run(s, sim.Config{Faults: &fp})
		if err != nil {
			return Robustness{}, err
		}
		deg := 1.0
		if len(rep.Faults.Stranded) == 0 {
			completed++
			if nominal > 0 {
				deg = rep.Makespan / nominal
			}
		} else {
			repaired, _, err := React(s, &fp, pol)
			if err != nil {
				return Robustness{}, err
			}
			if nominal > 0 {
				deg = repaired.Makespan() / nominal
			}
		}
		sum += deg
		if deg > r.MaxDegradation {
			r.MaxDegradation = deg
		}
	}
	r.CompletionRate = float64(completed) / float64(n)
	r.MeanDegradation = sum / float64(n)
	return r, nil
}
