package algo

import (
	"runtime"
	"sync"
)

// ParallelTrialThreshold is the task count from which the speculative
// schedulers (duplication, lookahead) evaluate their per-processor trials
// concurrently. Below it the round-trip cost of handing P closures to a
// worker group exceeds the trial work itself. Tests lower it (together
// with ForceTrialWorkers) to exercise the concurrent path on small
// instances under -race.
var ParallelTrialThreshold = 192

// ForceTrialWorkers, when positive, pins the worker count of every new
// TrialGroup regardless of GOMAXPROCS and ParallelTrialThreshold. It
// exists for tests that must drive the concurrent evaluator on small
// instances (and on single-CPU machines, where concurrency still shakes
// out sharing bugs under the race detector even without parallelism).
var ForceTrialWorkers = 0

// TrialGroup is a bounded worker group for evaluating the P per-processor
// placement trials of one scheduling step concurrently. Transactions make
// the trials independent — each works against its own sched.Txn and the
// base plan is read-only until the round's winner commits — so the group
// needs no locking beyond the round barrier.
//
// The workers persist across rounds (one group per Schedule call), so the
// per-round cost is P channel hops, not P goroutine spawns. A group whose
// worker count resolves to one runs trials inline; Run is always a
// barrier: it returns only when every trial of the round finished.
type TrialGroup struct {
	workers int
	fn      func(int)
	idx     chan int
	wg      sync.WaitGroup
}

// NewTrialGroup sizes a group for an instance with the given processor
// and task counts. The caller must Close it.
func NewTrialGroup(procs, tasks int) *TrialGroup {
	w := ForceTrialWorkers
	if w <= 0 {
		w = procs
		if mp := runtime.GOMAXPROCS(0); mp < w {
			w = mp
		}
		if w < 2 || tasks < ParallelTrialThreshold {
			return &TrialGroup{}
		}
	}
	g := &TrialGroup{workers: w, idx: make(chan int, procs)}
	for i := 0; i < w; i++ {
		go func() {
			for p := range g.idx {
				g.fn(p)
				g.wg.Done()
			}
		}()
	}
	return g
}

// Run evaluates fn(i) for every i in [0, n) and returns when all calls
// finished. fn must confine its writes to per-i state (its own Txn and
// result slot). Run is not reentrant.
func (g *TrialGroup) Run(n int, fn func(int)) {
	if g.workers == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	g.fn = fn
	g.wg.Add(n)
	for i := 0; i < n; i++ {
		g.idx <- i
	}
	g.wg.Wait()
}

// Close stops the workers. The group must not be used after.
func (g *TrialGroup) Close() {
	if g.idx != nil {
		close(g.idx)
	}
}
