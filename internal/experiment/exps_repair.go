package experiment

import (
	"fmt"
	"math/rand"

	"dagsched/internal/algo/resched"
	"dagsched/internal/algo/suite"
	"dagsched/internal/metrics"
)

// E19 — fail-stop impact: the mean relative makespan growth after losing
// one of eight processors at a given fraction of the makespan, repaired
// by resched's remap-stranded policy reacting at the failure instant.
func E19() Experiment {
	return Experiment{ID: "E19", Title: "Fail-stop repair impact vs failure time", Run: func(cfg Config) ([]*Table, error) {
		pol, err := resched.ByName("remap-stranded")
		if err != nil {
			return nil, err
		}
		algs := suite.Heterogeneous()
		reps := cfg.reps(25)
		fracs := []float64{0, 0.25, 0.5, 0.75}
		if cfg.Quick {
			fracs = []float64{0.5}
		}
		t := &Table{ID: "E19", Title: "Mean repaired/original makespan vs failure time (P=8, n=60, CCR=1, β=1)",
			Columns: append([]string{"fail at"}, names(algs)...)}
		for i, frac := range fracs {
			frac := frac
			rows, err := parallelReps(reps, cfg.Workers, cfg.Seed+1900+int64(i), func(rep int, rng *rand.Rand) ([]float64, error) {
				in, err := randGen(randParams{})(rng)
				if err != nil {
					return nil, err
				}
				proc := rng.Intn(in.P())
				row := make([]float64, len(algs))
				for k, a := range algs {
					s, err := a.Schedule(in)
					if err != nil {
						return nil, err
					}
					r, err := pol.Repair(s, []resched.Event{{Proc: proc, Time: s.Makespan() * frac}})
					if err != nil {
						return nil, err
					}
					row[k] = r.Makespan() / s.Makespan()
				}
				return row, nil
			})
			if err != nil {
				return nil, err
			}
			accs := make([]*metrics.Accumulator, len(algs))
			for k := range accs {
				accs[k] = &metrics.Accumulator{}
			}
			for _, row := range rows {
				for k, v := range row {
					accs[k].Add(v)
				}
			}
			t.Rows = append(t.Rows, fmtRow(fmt.Sprintf("%g×ms", frac), accs))
		}
		t.Notes = "1.0 means the failure cost nothing after repair; early failures cost most (everything lost on the dead processor must be recomputed elsewhere)."
		return []*Table{t}, nil
	}}
}
