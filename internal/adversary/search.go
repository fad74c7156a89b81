package adversary

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/sched"
)

// Config drives one adversarial search.
type Config struct {
	// Attacker is the algorithm the search tries to make look good.
	Attacker algo.Algorithm
	// Victim is the algorithm the search tries to make look bad.
	Victim algo.Algorithm
	// Method selects the searcher: "hc" (default), "sa" or "ga".
	Method string
	// Iters is the iteration (generation) budget; default 200.
	Iters int
	// Pop is the GA population size; default 24. HC and SA ignore it.
	Pop int
	// Seed drives every random draw of the search — population init,
	// mutation and crossover all share this one stream, so the same seed
	// finds the same instance.
	Seed int64
	// Budget, when non-zero, bounds each single algorithm run; a
	// candidate whose evaluation exceeds it scores -Inf instead of
	// aborting the search. Leave zero for deterministic experiments.
	Budget time.Duration
	// MutateKnobs additionally perturbs the CCR and Beta knobs, widening
	// the search beyond the multiplier vectors.
	MutateKnobs bool
}

// Result is the outcome of a search.
type Result struct {
	// Best is the worst-case genome found.
	Best Spec
	// Instance is Best decoded.
	Instance *sched.Instance
	// Ratio is victim makespan / attacker makespan on Instance.
	Ratio float64
	// BaseRatio is the same ratio on the unperturbed base spec.
	BaseRatio float64
	// AttackerMakespan and VictimMakespan are the two makespans on
	// Instance.
	AttackerMakespan float64
	VictimMakespan   float64
	// Evals counts fitness evaluations performed.
	Evals int
}

func (c *Config) defaults() error {
	if c.Attacker == nil || c.Victim == nil {
		return fmt.Errorf("adversary: attacker and victim are required")
	}
	if c.Method == "" {
		c.Method = "hc"
	}
	switch c.Method {
	case "hc", "sa", "ga":
	default:
		return fmt.Errorf("adversary: unknown method %q", c.Method)
	}
	if c.Iters <= 0 {
		c.Iters = 200
	}
	if c.Pop <= 0 {
		c.Pop = 24
	}
	return nil
}

// evaluator scores genomes: fitness is the victim/attacker makespan
// ratio on the decoded instance. Evaluation is pure, so the bounded
// parallel population evaluator is deterministic regardless of worker
// interleaving.
type evaluator struct {
	ctx    context.Context
	cfg    *Config
	evals  int
	budget time.Duration
}

type fitness struct {
	ratio      float64
	attackerMk float64
	victimMk   float64
	in         *sched.Instance
}

// eval scores one genome. Decode or scheduling failures (including a
// blown per-run budget) yield -Inf fitness rather than an error: the
// search steps around bad candidates instead of dying on them. Only the
// outer context canceling is fatal.
func (e *evaluator) eval(s *Spec) (fitness, error) {
	if err := e.ctx.Err(); err != nil {
		return fitness{}, err
	}
	in, err := s.Decode()
	if err != nil {
		return fitness{ratio: math.Inf(-1)}, nil
	}
	ctx := e.ctx
	if e.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.budget)
		defer cancel()
	}
	att, err := algo.ScheduleContext(ctx, e.cfg.Attacker, in)
	if err != nil {
		if e.ctx.Err() != nil {
			return fitness{}, e.ctx.Err()
		}
		return fitness{ratio: math.Inf(-1)}, nil
	}
	vic, err := algo.ScheduleContext(ctx, e.cfg.Victim, in)
	if err != nil {
		if e.ctx.Err() != nil {
			return fitness{}, e.ctx.Err()
		}
		return fitness{ratio: math.Inf(-1)}, nil
	}
	aMk, vMk := att.Makespan(), vic.Makespan()
	if aMk <= 0 {
		return fitness{ratio: math.Inf(-1)}, nil
	}
	return fitness{ratio: vMk / aMk, attackerMk: aMk, victimMk: vMk, in: in}, nil
}

// evalPop scores a whole population on at most GOMAXPROCS goroutines,
// each taking the next unscored spec until none is left. Results land in
// per-index slots, so the outcome is independent of scheduling order; the
// first context error (if any) is returned.
func (e *evaluator) evalPop(pop []Spec) ([]fitness, error) {
	fits := make([]fitness, len(pop))
	errs := make([]error, len(pop))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(pop)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pop); i = int(next.Add(1) - 1) {
				fits[i], errs[i] = e.eval(&pop[i])
			}
		}()
	}
	wg.Wait()
	e.evals += len(pop)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fits, nil
}

// mutate perturbs one gene of s in place: a random multiplier moves by
// a log-uniform factor in [1/2, 2] and clamps to [MinMult, MaxMult];
// with cfg.MutateKnobs a small share of mutations instead nudge CCR or
// Beta.
func mutate(s *Spec, rng *rand.Rand, knobs bool) {
	if knobs && rng.Float64() < 0.15 {
		if rng.Intn(2) == 0 {
			f := math.Exp((rng.Float64()*2 - 1) * math.Ln2)
			s.CCR = clamp(s.CCR*f, 0.05, MaxCCR)
		} else {
			s.Beta = clamp(s.Beta+(rng.Float64()*0.4-0.2), 0, 1.9)
		}
		return
	}
	nGenes := len(s.TaskMult) + len(s.EdgeMult)
	if nGenes == 0 {
		return
	}
	g := rng.Intn(nGenes)
	f := math.Exp((rng.Float64()*2 - 1) * math.Ln2)
	if g < len(s.TaskMult) {
		s.TaskMult[g] = clamp(s.TaskMult[g]*f, MinMult, MaxMult)
	} else {
		g -= len(s.TaskMult)
		s.EdgeMult[g] = clamp(s.EdgeMult[g]*f, MinMult, MaxMult)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Search runs an adversarial instance search from the given base genome
// and returns the worst case found. The base spec itself is always
// evaluated first, so the result is never worse than the starting
// point. Same seed and config ⇒ same result, bit for bit.
func Search(ctx context.Context, base Spec, cfg Config) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	// Materialize the full gene set so every multiplier is searchable.
	in, err := base.Decode()
	if err != nil {
		return nil, err
	}
	cur := base.clone()
	cur.materialize(in.G.NumEdges())

	e := &evaluator{ctx: ctx, cfg: &cfg, budget: cfg.Budget}
	baseFit, err := e.eval(&cur)
	if err != nil {
		return nil, err
	}
	e.evals++
	if math.IsInf(baseFit.ratio, -1) {
		return nil, fmt.Errorf("adversary: base spec is not evaluable under the budget")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	best, bestFit := cur.clone(), baseFit
	switch cfg.Method {
	case "hc":
		best, bestFit, err = hillClimb(e, rng, cur, baseFit, cfg)
	case "sa":
		best, bestFit, err = anneal(e, rng, cur, baseFit, cfg)
	case "ga":
		best, bestFit, err = genetic(e, rng, cur, baseFit, cfg)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Best:             best,
		Instance:         bestFit.in,
		Ratio:            bestFit.ratio,
		BaseRatio:        baseFit.ratio,
		AttackerMakespan: bestFit.attackerMk,
		VictimMakespan:   bestFit.victimMk,
		Evals:            e.evals,
	}, nil
}

// hillClimb is first-improvement hill climbing: mutate, keep on strict
// improvement.
func hillClimb(e *evaluator, rng *rand.Rand, cur Spec, curFit fitness, cfg Config) (Spec, fitness, error) {
	for i := 0; i < cfg.Iters; i++ {
		cand := cur.clone()
		mutate(&cand, rng, cfg.MutateKnobs)
		fit, err := e.eval(&cand)
		if err != nil {
			return cur, curFit, err
		}
		e.evals++
		if fit.ratio > curFit.ratio {
			cur, curFit = cand, fit
		}
	}
	return cur, curFit, nil
}

// anneal is simulated annealing with geometric cooling, tracking the
// best genome ever seen (the returned result), not just the walker.
func anneal(e *evaluator, rng *rand.Rand, cur Spec, curFit fitness, cfg Config) (Spec, fitness, error) {
	best, bestFit := cur.clone(), curFit
	// Ratios live near 1.0, so an initial temperature of a few percent
	// accepts early uphill-in-cost moves without random-walking forever.
	temp := 0.05
	cool := math.Pow(1e-3/temp, 1/float64(cfg.Iters))
	for i := 0; i < cfg.Iters; i++ {
		cand := cur.clone()
		mutate(&cand, rng, cfg.MutateKnobs)
		fit, err := e.eval(&cand)
		if err != nil {
			return best, bestFit, err
		}
		e.evals++
		delta := fit.ratio - curFit.ratio
		if delta > 0 || (!math.IsInf(fit.ratio, -1) && rng.Float64() < math.Exp(delta/temp)) {
			cur, curFit = cand, fit
		}
		if curFit.ratio > bestFit.ratio {
			best, bestFit = cur.clone(), curFit
		}
		temp *= cool
	}
	return best, bestFit, nil
}

// genetic is a steady generational GA: tournament selection, uniform
// crossover over the multiplier vectors, per-child mutation, elitism of
// one. Populations are evaluated concurrently (evalPop).
func genetic(e *evaluator, rng *rand.Rand, seed Spec, seedFit fitness, cfg Config) (Spec, fitness, error) {
	pop := make([]Spec, cfg.Pop)
	pop[0] = seed.clone()
	for i := 1; i < cfg.Pop; i++ {
		pop[i] = seed.clone()
		for m := 0; m < 3; m++ {
			mutate(&pop[i], rng, cfg.MutateKnobs)
		}
	}
	fits, err := e.evalPop(pop)
	if err != nil {
		return seed, seedFit, err
	}
	best, bestFit := seed.clone(), seedFit
	record := func(pop []Spec, fits []fitness) {
		for i := range pop {
			if fits[i].ratio > bestFit.ratio {
				best, bestFit = pop[i].clone(), fits[i]
			}
		}
	}
	record(pop, fits)

	gens := cfg.Iters / cfg.Pop
	if gens < 1 {
		gens = 1
	}
	tournament := func() int {
		a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
		if fits[a].ratio >= fits[b].ratio {
			return a
		}
		return b
	}
	for g := 0; g < gens; g++ {
		next := make([]Spec, 0, cfg.Pop)
		// Elitism: the current best individual survives unchanged.
		elite := 0
		for i := range pop {
			if fits[i].ratio > fits[elite].ratio {
				elite = i
			}
		}
		next = append(next, pop[elite].clone())
		for len(next) < cfg.Pop {
			child := crossover(&pop[tournament()], &pop[tournament()], rng)
			mutate(&child, rng, cfg.MutateKnobs)
			next = append(next, child)
		}
		pop = next
		fits, err = e.evalPop(pop)
		if err != nil {
			return best, bestFit, err
		}
		record(pop, fits)
	}
	return best, bestFit, nil
}

// crossover mixes two genomes gene-wise (uniform crossover); scalar
// knobs come from a random parent.
func crossover(a, b *Spec, rng *rand.Rand) Spec {
	child := a.clone()
	if rng.Intn(2) == 1 {
		child.CCR, child.Beta = b.CCR, b.Beta
	}
	for i := range child.TaskMult {
		if i < len(b.TaskMult) && rng.Intn(2) == 1 {
			child.TaskMult[i] = b.TaskMult[i]
		}
	}
	for i := range child.EdgeMult {
		if i < len(b.EdgeMult) && rng.Intn(2) == 1 {
			child.EdgeMult[i] = b.EdgeMult[i]
		}
	}
	return child
}
