// Package sim replays a static schedule as a discrete-event execution,
// independently re-deriving every start time from the schedule's
// placement decisions. With zero noise the replayed makespan equals the
// analytic makespan exactly (a strong cross-check of the scheduling
// machinery); with noise it measures the robustness of a static schedule
// against runtime execution-time variation; with a FaultPlan it measures
// how the schedule degrades when processors crash, links fail, and
// execution times drift.
//
// Replay semantics: task-copy order per processor and the data routing
// between copies are fixed at schedule time, as in a real static runtime.
// Each copy starts as soon as its processor is free and the data from its
// designated source copies has arrived; actual execution times are the
// estimates perturbed multiplicatively by the noise factor.
//
// Fault semantics: a copy running when its processor crashes is
// destroyed (restarted at recovery if the crash is transient, stranded if
// permanent); tasks whose every copy is destroyed strand their
// consumers too, except that a consumer falls back to any surviving
// completed copy of the predecessor. Data produced before a crash is
// assumed buffered at the receiver or in the network, so transfers
// survive their producer's later death.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
)

// Config controls a replay.
type Config struct {
	// Noise is the maximum relative execution-time perturbation: every
	// copy's actual duration is estimate × (1 + Noise×u) with u uniform in
	// [−1, 1). Zero replays estimates exactly. Must lie in [0, 1).
	Noise float64
	// Seed drives the perturbation; runs are deterministic per seed.
	Seed int64
	// Contention switches communication to the one-port model: every
	// processor has a single send port and a single receive port, and
	// inter-processor transfers serialize on both. A schedule computed
	// under the contention-free assumption degrades here; the contended
	// replay measures how optimistic its makespan was. Transfers are
	// issued in the consumers' scheduled-start order, each claiming the
	// earliest feasible window on its route.
	Contention bool
	// Model replays under an arbitrary communication model (overriding
	// Contention): transfer durations come from the model's idle costs
	// and transfers serialize on whatever resources the model contends.
	// Nil with Contention unset replays contention-free using the
	// schedule instance's idle costs.
	Model platform.CommModel
	// Faults injects the given fault plan during replay (nil injects
	// nothing). The plan's own Seed drives its jitter stream, so the
	// same instance and fault plan reproduce bit-identically regardless
	// of Noise/Seed.
	Faults *FaultPlan
}

// Report is the outcome of one replay.
type Report struct {
	// Makespan is the latest actual finish time of any primary copy (or,
	// under faults, of the surviving copy standing in for a destroyed
	// primary).
	Makespan float64
	// Start and Finish give actual times of every task's primary copy.
	// Under faults, a task whose primary was destroyed reports the
	// earliest-finishing surviving duplicate, and a stranded task (no
	// copy completed) reports +Inf for both.
	Start, Finish []float64
	// BusyTime is the total executing time per processor (including
	// duplicates and partial executions destroyed by crashes);
	// Utilization divides it by the makespan.
	BusyTime    []float64
	Utilization []float64
	// Stretch is the replayed makespan divided by the analytic one.
	Stretch float64
	// Transfers counts inter-processor data transfers; SendTime is the
	// total network time attributed to each source processor's transfers
	// (only meaningful under a contended model, where they serialize).
	Transfers int
	SendTime  []float64
	// Model is the kind of communication model the replay ran under.
	Model string
	// Faults is the degradation report, present iff Config.Faults was set.
	Faults *FaultReport
}

// Run replays the schedule under cfg. A schedule that references a
// processor index outside its platform (possible only for schedules
// rebuilt from external placements via sched.FromAssignments) yields an
// error wrapping ErrProcRange.
func Run(s *sched.Schedule, cfg Config) (Report, error) {
	if cfg.Noise < 0 || cfg.Noise >= 1 {
		return Report{}, fmt.Errorf("sim: noise %g out of [0,1)", cfg.Noise)
	}
	in := s.Instance()
	faults := cfg.Faults
	if err := faults.Validate(in.P()); err != nil {
		return Report{}, err
	}
	for _, a := range s.All() {
		if a.Proc < 0 || a.Proc >= in.P() {
			return Report{}, fmt.Errorf("sim: task %d placed on processor %d of a %d-processor platform: %w",
				a.Task, a.Proc, in.P(), ErrProcRange)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Collect all copies in global scheduled-start order. Every copy a
	// consumer reads from finishes (in the schedule) before the consumer
	// starts; zero-duration copies can share the consumer's start instant,
	// so equal starts break ties by topological order (sources first),
	// then by processor and timeline slot for determinism.
	type copyRef struct {
		a        sched.Assignment
		procSlot int // index within its processor's timeline
	}
	var copies []copyRef
	byTask := make([][]copyRef, in.N())
	for p := 0; p < in.P(); p++ {
		for k, a := range s.OnProc(p) {
			c := copyRef{a: a, procSlot: k}
			copies = append(copies, c)
			byTask[a.Task] = append(byTask[a.Task], c)
		}
	}
	topo := make([]int, in.N())
	for i, t := range in.G.TopoOrder() {
		topo[t] = i
	}
	sort.Slice(copies, func(x, y int) bool {
		cx, cy := copies[x], copies[y]
		if cx.a.Start != cy.a.Start {
			return cx.a.Start < cy.a.Start
		}
		if topo[cx.a.Task] != topo[cy.a.Task] {
			return topo[cx.a.Task] < topo[cy.a.Task]
		}
		if cx.a.Proc != cy.a.Proc {
			return cx.a.Proc < cy.a.Proc
		}
		return cx.procSlot < cy.procSlot
	})
	// Perturbed durations, drawn in deterministic copy order. Fault
	// jitter draws from its own stream so a fault plan replays
	// bit-identically under any noise settings.
	durs := make([]float64, len(copies))
	for i, c := range copies {
		d := c.a.Duration()
		if cfg.Noise > 0 {
			d *= 1 + cfg.Noise*(2*rng.Float64()-1)
		}
		durs[i] = d
	}
	if faults != nil && faults.Jitter > 0 {
		jrng := rand.New(rand.NewSource(faults.Seed))
		for i := range durs {
			durs[i] *= 1 + faults.Jitter*(2*jrng.Float64()-1)
		}
	}
	// Routing fixed at schedule time: for consumer copy c and predecessor
	// task m, the source is the copy of m with the earliest *scheduled*
	// arrival at c's processor (under the instance's own idle costs — the
	// view the scheduler routed with).
	route := func(c copyRef, m dag.TaskID, data float64) copyRef {
		best := byTask[m][0]
		bestT := math.Inf(1)
		for _, d := range byTask[m] {
			if t := d.a.Finish + in.CommCost(d.a.Proc, c.a.Proc, data); t < bestT {
				bestT, best = t, d
			}
		}
		return best
	}
	// The replay's communication model: cfg.Model, else one-port when
	// Contention is set, else the contention-free idle-cost replay.
	model := cfg.Model
	if model == nil && cfg.Contention {
		model, _ = platform.ModelByKind(platform.KindOnePort, in.Sys)
	}
	var network *platform.CommState
	if model != nil {
		network = model.NewState()
	}
	commCost := in.CommCost
	modelKind := platform.KindContentionFree
	if model != nil {
		commCost = model.Cost
		modelKind = model.Kind()
	}
	// Actual finish per copy, keyed by (processor, timeline slot): the one
	// identity that stays unique when copies of the same task share a
	// start instant (zero-duration tasks).
	type key struct {
		proc     int
		procSlot int
	}
	actualFinish := make(map[key]float64, len(copies))
	procFree := make([]float64, in.P())
	busy := make([]float64, in.P())
	sendBusy := make([]float64, in.P())
	rep := Report{
		Start:  make([]float64, in.N()),
		Finish: make([]float64, in.N()),
		Model:  modelKind,
	}
	var (
		downs        [][]window
		frep         *FaultReport
		strandedCopy map[key]bool
		lostPrimary  []dag.TaskID
		// rescue holds, per task whose primary was destroyed, the
		// earliest-finishing duplicate that did complete.
		rescue map[dag.TaskID][2]float64
	)
	if faults != nil {
		downs = faults.downWindows(in.P())
		frep = &FaultReport{Nominal: s.Makespan()}
		strandedCopy = make(map[key]bool)
		rescue = make(map[dag.TaskID][2]float64)
	}
	strand := func(c copyRef) {
		strandedCopy[key{c.a.Proc, c.procSlot}] = true
		if !c.a.Dup {
			lostPrimary = append(lostPrimary, c.a.Task)
		}
	}
	// deliver computes the actual arrival of data sent from fromProc
	// (available at f) to toProc, applying link faults and claiming
	// network capacity under a contended model. +Inf means a permanent
	// link outage makes delivery impossible.
	deliver := func(fromProc, toProc int, f, data float64) float64 {
		if fromProc == toProc {
			return f
		}
		dur := commCost(fromProc, toProc, data)
		sendReady := f
		if faults != nil && len(faults.Links) > 0 {
			sendReady, dur = faults.adjustTransfer(fromProc, toProc, sendReady, dur)
			if math.IsInf(sendReady, 1) {
				return sendReady
			}
		}
		var arrival float64
		if network != nil && dur > 0 {
			xferStart := network.TransferStart(fromProc, toProc, sendReady, dur)
			network.Reserve(fromProc, toProc, xferStart, dur)
			arrival = xferStart + dur
			sendBusy[fromProc] += dur
		} else {
			arrival = sendReady + dur
		}
		rep.Transfers++
		return arrival
	}
	for i, c := range copies {
		ready := 0.0
		doomed := false
		for _, pe := range in.G.Pred(c.a.Task) {
			src := route(c, pe.To, pe.Data)
			srcKey := key{src.a.Proc, src.procSlot}
			f, ok := actualFinish[srcKey]
			var arrival float64
			switch {
			case ok:
				arrival = deliver(src.a.Proc, c.a.Proc, f, pe.Data)
			case strandedCopy[srcKey]:
				// The designated source was destroyed: fall back to the
				// surviving completed copy with the earliest actual
				// arrival, or strand the consumer if none exists.
				bestFrom, bestF := -1, 0.0
				arrival = math.Inf(1)
				for _, d := range byTask[pe.To] {
					df, dok := actualFinish[key{d.a.Proc, d.procSlot}]
					if !dok {
						continue
					}
					var arr float64
					if d.a.Proc == c.a.Proc {
						arr = df
					} else {
						dur := commCost(d.a.Proc, c.a.Proc, pe.Data)
						sendReady := df
						if len(faults.Links) > 0 {
							sendReady, dur = faults.adjustTransfer(d.a.Proc, c.a.Proc, sendReady, dur)
						}
						if network != nil && dur > 0 && !math.IsInf(sendReady, 1) {
							arr = network.TransferStart(d.a.Proc, c.a.Proc, sendReady, dur) + dur
						} else {
							arr = sendReady + dur
						}
					}
					if arr < arrival {
						arrival, bestFrom, bestF = arr, d.a.Proc, df
					}
				}
				if bestFrom >= 0 {
					arrival = deliver(bestFrom, c.a.Proc, bestF, pe.Data)
				}
			default:
				return Report{}, fmt.Errorf("sim: copy of task %d consumed before its source (task %d on P%d) ran",
					c.a.Task, src.a.Task, src.a.Proc)
			}
			if math.IsInf(arrival, 1) {
				doomed = true
				break
			}
			if arrival > ready {
				ready = arrival
			}
		}
		if doomed {
			strand(c)
			continue
		}
		start := math.Max(ready, procFree[c.a.Proc])
		finish := start + durs[i]
		if faults != nil {
			var killed int
			var wasted float64
			start, finish, killed, wasted = execute(downs[c.a.Proc], start, durs[i])
			frep.Killed += killed
			busy[c.a.Proc] += wasted
			if math.IsInf(finish, 1) {
				strand(c)
				continue
			}
			frep.Restarts += killed
		}
		procFree[c.a.Proc] = finish
		busy[c.a.Proc] += durs[i]
		actualFinish[key{c.a.Proc, c.procSlot}] = finish
		if !c.a.Dup {
			rep.Start[c.a.Task] = start
			rep.Finish[c.a.Task] = finish
			if finish > rep.Makespan {
				rep.Makespan = finish
			}
		} else if faults != nil {
			if r, ok := rescue[c.a.Task]; !ok || finish < r[1] {
				rescue[c.a.Task] = [2]float64{start, finish}
			}
		}
	}
	if faults != nil {
		for _, t := range lostPrimary {
			if r, ok := rescue[t]; ok {
				rep.Start[t], rep.Finish[t] = r[0], r[1]
				if r[1] > rep.Makespan {
					rep.Makespan = r[1]
				}
				continue
			}
			rep.Start[t], rep.Finish[t] = math.Inf(1), math.Inf(1)
			frep.Stranded = append(frep.Stranded, int(t))
		}
		sort.Ints(frep.Stranded)
		frep.Completed = in.N() - len(frep.Stranded)
		rep.Faults = frep
	}
	rep.BusyTime = busy
	rep.SendTime = sendBusy
	rep.Utilization = make([]float64, in.P())
	for p := range busy {
		if rep.Makespan > 0 {
			rep.Utilization[p] = busy[p] / rep.Makespan
		}
	}
	if s.Makespan() > 0 {
		rep.Stretch = rep.Makespan / s.Makespan()
	} else {
		rep.Stretch = 1
	}
	return rep, nil
}
