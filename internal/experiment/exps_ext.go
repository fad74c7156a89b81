package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/search"
	"dagsched/internal/core"
	"dagsched/internal/metrics"
	"dagsched/internal/platform"
	"dagsched/internal/sim"
)

// E14 — extended heterogeneous lineup: ILS against the wider 2000s field
// (HCPT, PETS, LMT) in addition to HEFT, across CCR.
func E14() Experiment {
	return Experiment{ID: "E14", Title: "Extended lineup: ILS vs HCPT/PETS/LMT (SLR vs CCR)", Run: func(cfg Config) ([]*Table, error) {
		algs := []algo.Algorithm{
			core.New(),
			listsched.HEFT{},
			listsched.HCPT{},
			listsched.PETS{},
			listsched.LMT{},
		}
		reps := cfg.reps(25)
		ccrs := []float64{0.1, 1, 5, 10}
		if cfg.Quick {
			ccrs = []float64{0.1, 5}
		}
		t := &Table{ID: "E14", Title: "Extended lineup: average SLR vs CCR (n=60, P=8, β=1)",
			Columns: append([]string{"CCR"}, names(algs)...)}
		for i, c := range ccrs {
			accs, err := meanOver(algs, reps, cfg.Seed+int64(100*i)+1401, randGen(randParams{ccr: c}), slr, cfg.Workers)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, fmtRow(fmt.Sprintf("%g", c), accs))
		}
		t.Notes = fmt.Sprintf("Mean SLR over %d random DAGs per point.", reps)
		return []*Table{t}, nil
	}}
}

// E15 — guided random search vs list scheduling: solution quality and
// scheduling cost of GA/SA/HC against HEFT and ILS.
func E15() Experiment {
	return Experiment{ID: "E15", Title: "Search-based vs list scheduling (quality and cost)", Run: func(cfg Config) ([]*Table, error) {
		algs := []algo.Algorithm{
			listsched.HEFT{},
			core.New(),
			search.HillClimb{Iters: 500},
			search.Anneal{Iters: 800},
			search.Genetic{Pop: 16, Gens: 25},
		}
		reps := cfg.reps(15)
		sizes := []int{20, 40}
		if cfg.Quick {
			sizes = []int{20}
		}
		t1 := &Table{ID: "E15a", Title: "Search vs list: mean SLR (P=8, CCR=1, β=1)",
			Columns: append([]string{"n"}, names(algs)...)}
		t2 := &Table{ID: "E15b", Title: "Search vs list: mean scheduling time (ms)",
			Columns: append([]string{"n"}, names(algs)...)}
		rng := rand.New(rand.NewSource(cfg.Seed + 1500))
		for _, n := range sizes {
			slrs := make([]*metrics.Accumulator, len(algs))
			times := make([]*metrics.Accumulator, len(algs))
			for i := range slrs {
				slrs[i] = &metrics.Accumulator{}
				times[i] = &metrics.Accumulator{}
			}
			for r := 0; r < reps; r++ {
				in, err := randGen(randParams{n: n})(rng)
				if err != nil {
					return nil, err
				}
				for i, a := range algs {
					start := time.Now()
					res, err := metrics.Evaluate(a, in)
					if err != nil {
						return nil, err
					}
					slrs[i].Add(res.SLR)
					times[i].Add(float64(time.Since(start).Microseconds()) / 1000)
				}
			}
			t1.Rows = append(t1.Rows, fmtRow(fmt.Sprintf("%d", n), slrs))
			t2.Rows = append(t2.Rows, fmtRow(fmt.Sprintf("%d", n), times))
		}
		t1.Notes = "All searches are seeded from HEFT, so they can only improve on it; the question is by how much and at what cost (see E15b)."
		return []*Table{t1, t2}, nil
	}}
}

// E16 — network contention: replayed stretch under the one-port model.
// Each contention-free algorithm is paired with itself wrapped through
// the shared contention layer (algo.CommAware, the same path C-HEFT
// takes): the unwrapped schedules assume free links and degrade when
// transfers serialize, the wrapped ones pay their port waits up front
// and replay almost unchanged.
func E16() Experiment {
	return Experiment{ID: "E16", Title: "One-port contention: replayed stretch", Run: func(cfg Config) ([]*Table, error) {
		var algs []algo.Algorithm
		for _, a := range []algo.Algorithm{listsched.HEFT{}, core.New(), listsched.BTDH{}} {
			algs = append(algs, a, algo.CommAware{Inner: a})
		}
		reps := cfg.reps(25)
		ccrs := []float64{0.1, 1, 5}
		if cfg.Quick {
			ccrs = []float64{1}
		}
		t := &Table{ID: "E16", Title: "Mean one-port contention stretch vs CCR (n=60, P=8, β=1)",
			Columns: append([]string{"CCR"}, names(algs)...)}
		for i, c := range ccrs {
			c := c
			rows, err := parallelReps(reps, cfg.Workers, cfg.Seed+1600+int64(i), func(rep int, rng *rand.Rand) ([]float64, error) {
				in, err := randGen(randParams{ccr: c})(rng)
				if err != nil {
					return nil, err
				}
				row := make([]float64, len(algs))
				for k, a := range algs {
					s, err := a.Schedule(in)
					if err != nil {
						return nil, err
					}
					r, err := sim.Run(s, sim.Config{Contention: true})
					if err != nil {
						return nil, err
					}
					row[k] = r.Stretch
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
			t.Rows = append(t.Rows, fmtRow(fmt.Sprintf("%g", c), accs))
		}
		t.Notes = "Stretch = one-port replayed makespan / analytic makespan (1.0 = schedule unaffected by port serialization). C-* columns are the same algorithms wrapped contention-aware through the shared communication-model layer."
		return []*Table{t}, nil
	}}
}

// E20 — communication-model sweep: the same instances scheduled by
// contention-free and contention-aware algorithms, each schedule
// replayed under every registered communication model. Reading down a
// column shows how one scheduler's output degrades as the network gets
// more contended; reading across a row shows which scheduler to pick
// for a given network.
func E20() Experiment {
	return Experiment{ID: "E20", Title: "Communication-model sweep: replayed makespan", Run: func(cfg Config) ([]*Table, error) {
		algs := []algo.Algorithm{
			listsched.HEFT{},
			algo.CommAware{Inner: listsched.HEFT{}},
			core.New(),
			algo.CommAware{Inner: core.New()},
		}
		reps := cfg.reps(20)
		kinds := platform.ModelKinds()
		t := &Table{ID: "E20", Title: "Mean replayed makespan by communication model (n=60, P=8, CCR=5, β=1)",
			Columns: append([]string{"model"}, names(algs)...)}
		for i, kind := range kinds {
			kind := kind
			rows, err := parallelReps(reps, cfg.Workers, cfg.Seed+2000+int64(i), func(rep int, rng *rand.Rand) ([]float64, error) {
				in, err := randGen(randParams{ccr: 5})(rng)
				if err != nil {
					return nil, err
				}
				model, err := platform.ModelByKind(kind, in.Sys)
				if err != nil {
					return nil, err
				}
				row := make([]float64, len(algs))
				for k, a := range algs {
					s, err := a.Schedule(in)
					if err != nil {
						return nil, err
					}
					r, err := sim.Run(s, sim.Config{Model: model})
					if err != nil {
						return nil, err
					}
					row[k] = r.Makespan
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
			t.Rows = append(t.Rows, fmtRow(kind, accs))
		}
		t.Notes = "Each row replays the four columns' schedules under one communication model; C-* schedule under one-port via the shared layer. The instances are identical across rows and columns."
		return []*Table{t}, nil
	}}
}
