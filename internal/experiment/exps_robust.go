package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/resched"
	"dagsched/internal/core"
	"dagsched/internal/metrics"
)

// E21 — fault robustness: how do static schedules survive fail-stop
// processor crashes? For each crash rate the table reports, per
// algorithm, the fraction of sampled fault plans the unrepaired
// schedule completes on its own (duplicates are the only passive
// protection), then the expected repaired stretch under each reactive
// repair policy — the price of surviving the faults the schedule could
// not absorb. A second table reports the schedules' makespan slack, the
// fault-independent headroom that predicts passive survival.
func E21() Experiment {
	return Experiment{ID: "E21", Title: "Fault robustness: completion and repaired degradation under crash rates", Run: func(cfg Config) ([]*Table, error) {
		algs := []algo.Algorithm{
			core.New(),
			listsched.HEFT{},
			listsched.DSH{},
			listsched.BTDH{},
		}
		pols := resched.Policies()
		reps := cfg.reps(10)
		samples := 10
		if cfg.Quick {
			samples = 4
		}
		rates := cfg.FaultRates
		if len(rates) == 0 {
			rates = []float64{0.15, 0.4}
			if cfg.Quick {
				rates = []float64{0.4}
			}
		}

		t1 := &Table{ID: "E21a", Title: "Crash robustness: unrepaired completion rate and repaired stretch (n=60, P=8, CCR=1, β=1)",
			Columns: append([]string{"measure"}, names(algs)...)}
		t2 := &Table{ID: "E21b", Title: "Makespan slack (fault-independent headroom)",
			Columns: append([]string{"measure"}, names(algs)...)}

		slackAccs := make([]*metrics.Accumulator, len(algs))
		for i := range slackAccs {
			slackAccs[i] = &metrics.Accumulator{}
		}
		for ri, rate := range rates {
			rate := rate
			lastRate := ri == len(rates)-1
			// Per repetition and algorithm: completion rate, then the mean
			// repaired degradation under each policy (and, on the last rate
			// only, the slack — it does not depend on the rate).
			width := len(algs) * (1 + len(pols))
			rows, err := parallelReps(reps, cfg.Workers, cfg.Seed+2100+int64(ri), func(rep int, rng *rand.Rand) ([]float64, error) {
				in, err := randGen(randParams{})(rng)
				if err != nil {
					return nil, err
				}
				faultSeed := cfg.FaultSeed + rng.Int63()
				row := make([]float64, 0, width+len(algs))
				var slacks []float64
				for _, a := range algs {
					s, err := a.Schedule(in)
					if err != nil {
						return nil, err
					}
					for pi, pol := range pols {
						rb, err := resched.EvalRobustness(context.Background(), s, resched.RobustnessConfig{
							Samples: samples, Rate: rate, Seed: faultSeed, Policy: pol,
						})
						if err != nil {
							return nil, err
						}
						if pi == 0 {
							// Completion ignores the policy: it is the
							// unrepaired schedule's survival.
							row = append(row, rb.CompletionRate)
						}
						row = append(row, rb.MeanDegradation)
					}
					if lastRate {
						slacks = append(slacks, resched.MakespanSlack(s))
					}
				}
				// Slack trails the whole measure block so accs[i] below
				// always addresses measure i regardless of lastRate.
				row = append(row, slacks...)
				return row, nil
			})
			if err != nil {
				return nil, err
			}
			accs := make([]*metrics.Accumulator, width)
			for i := range accs {
				accs[i] = &metrics.Accumulator{}
			}
			for _, row := range rows {
				for i := 0; i < width; i++ {
					accs[i].Add(row[i])
				}
				if lastRate {
					for i := 0; i < len(algs); i++ {
						slackAccs[i].Add(row[width+i])
					}
				}
			}
			per := 1 + len(pols)
			pick := func(off int) []*metrics.Accumulator {
				out := make([]*metrics.Accumulator, len(algs))
				for i := range algs {
					out[i] = accs[i*per+off]
				}
				return out
			}
			t1.Rows = append(t1.Rows, fmtRow(fmt.Sprintf("r=%g completion (no repair)", rate), pick(0)))
			for pi, pol := range pols {
				t1.Rows = append(t1.Rows, fmtRow(fmt.Sprintf("r=%g E[stretch] %s", rate, pol.Name()), pick(1+pi)))
			}
		}
		t2.Rows = append(t2.Rows, fmtRow("mean slack", slackAccs))
		t1.Notes = fmt.Sprintf("Each point averages %d DAGs × %d sampled fail-stop plans; r is the per-processor crash probability, crash times uniform over the nominal makespan. Completion counts samples where every task still finishes without intervention (duplication is the only passive protection). E[stretch] is the repaired makespan / nominal makespan under the named reactive policy, over all samples (1.0 = faults fully absorbed).", reps, samples)
		t2.Notes = "Mean relative slack of the nominal schedules (same instances as the last E21a rate row): how much later tasks could finish without growing the makespan. Higher slack predicts higher unrepaired completion."
		return []*Table{t1, t2}, nil
	}}
}
