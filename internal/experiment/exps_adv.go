package experiment

import (
	"context"
	"fmt"

	"dagsched/internal/adversary"
	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
)

// advPair is one attacker/victim matchup of the adversarial search.
type advPair struct {
	attacker, victim algo.Algorithm
}

// advPairs is the E22 lineup: each row searches for an instance where
// the attacker beats the victim by as much as possible.
func advPairs(quick bool) []advPair {
	pairs := []advPair{
		{core.New(), listsched.HEFT{}},
		{listsched.HEFT{}, listsched.CPOP{}},
		{listsched.HEFT{}, listsched.HLFET{}},
		{listsched.HEFT{}, listsched.ETF{}},
		{core.New(), listsched.CPOP{}},
		{listsched.HEFT{}, listsched.MCP{}},
	}
	if quick {
		return pairs[:3]
	}
	return pairs
}

// advBase is the shared base genome of E22: a mid-size heterogeneous
// instance with enough communication for insertion and rank choices to
// matter.
func advBase() adversary.Spec {
	return adversary.Spec{N: 30, Procs: 4, CCR: 2, Beta: 1, BaseSeed: 22}
}

// E22 — adversarial worst-case search: for each attacker/victim pair,
// hill-climb the instance space (per-task and per-edge cost
// multipliers) maximizing the victim/attacker makespan ratio. "base" is
// the ratio on the unperturbed random instance, "found" the ratio on
// the adversarial one; "gain" is their quotient — how much of the gap
// random testing misses.
func E22() Experiment {
	return Experiment{ID: "E22", Title: "Adversarial instance search: worst-case attacker/victim ratios", Run: func(cfg Config) ([]*Table, error) {
		iters := 400
		if cfg.Quick {
			iters = 40
		}
		t := &Table{ID: "E22", Title: "Worst-case makespan ratios found by instance-space hill climbing",
			Columns: []string{"attacker/victim", "base ratio", "found ratio", "gain", "evals"}}
		for i, p := range advPairs(cfg.Quick) {
			res, err := adversary.Search(context.Background(), advBase(), adversary.Config{
				Attacker: p.attacker,
				Victim:   p.victim,
				Method:   "hc",
				Iters:    iters,
				Seed:     cfg.Seed + 2200 + int64(i),
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s/%s", p.attacker.Name(), p.victim.Name()),
				fmt.Sprintf("%.3f", res.BaseRatio),
				fmt.Sprintf("%.3f", res.Ratio),
				fmt.Sprintf("%.3f", res.Ratio/res.BaseRatio),
				fmt.Sprintf("%d", res.Evals),
			})
		}
		t.Notes = fmt.Sprintf("Hill climbing over task/edge cost multipliers, %d iterations per pair (base spec: n=%d, P=%d, CCR=%g, β=%g).",
			iters, advBase().N, advBase().Procs, advBase().CCR, advBase().Beta)
		return []*Table{t}, nil
	}}
}

// e23Grid picks the component grid to ablate: the full factorial grid,
// or in quick mode the four baseline settings plus the single-component
// neighbors of HEFT.
func e23Grid(quick bool) []listsched.Param {
	if !quick {
		return listsched.Grid()
	}
	heft := listsched.HEFTParam()
	noIns := heft
	noIns.Insertion = false
	est := heft
	est.Select = listsched.SelectEST
	sl := heft
	sl.Priority = listsched.PrioStaticLevel
	dup := heft
	dup.Duplication = listsched.DupGreedy
	return []listsched.Param{
		heft, listsched.CPOPParam(), listsched.HLFETParam(), listsched.ETFParam(),
		noIns, est, sl, dup,
	}
}

// E23 — component ablation over the parameterized list scheduler: mean
// SLR of every grid point on one random-DAG batch, with the difference
// to the HEFT component setting. This decomposes the HEFT-vs-rest gap
// into its priority/order/selection/insertion/duplication components
// (arXiv:2403.07112 methodology).
func E23() Experiment {
	return Experiment{ID: "E23", Title: "Component ablation of the parameterized list scheduler", Run: func(cfg Config) ([]*Table, error) {
		grid := e23Grid(cfg.Quick)
		algs := make([]algo.Algorithm, len(grid))
		heftIdx := -1
		for i, pm := range grid {
			algs[i] = pm
			if pm == listsched.HEFTParam() {
				heftIdx = i
			}
		}
		reps := cfg.reps(25)
		accs, err := meanOver(algs, reps, cfg.Seed+2300, randGen(randParams{n: 50, procs: 4}), slr, cfg.Workers)
		if err != nil {
			return nil, err
		}
		t := &Table{ID: "E23", Title: "Mean SLR per component setting (n=50, P=4, CCR=1, β=1)",
			Columns: []string{"setting", "mean SLR", "Δ vs HEFT"}}
		var heftMean float64
		if heftIdx >= 0 {
			heftMean = accs[heftIdx].Mean()
		}
		for i, pm := range grid {
			t.Rows = append(t.Rows, []string{
				pm.String(),
				fmt.Sprintf("%.3f", accs[i].Mean()),
				fmt.Sprintf("%+.3f", accs[i].Mean()-heftMean),
			})
		}
		t.Notes = fmt.Sprintf("Mean SLR over %d random DAGs; Δ is relative to the HEFT component setting %s (negative = better than HEFT).",
			reps, listsched.HEFTParam())
		return []*Table{t}, nil
	}}
}
