package sched

import (
	"fmt"
	"math"
	"sort"

	"dagsched/internal/dag"
)

// Assignment is one placement of a task copy on a processor.
type Assignment struct {
	Task   dag.TaskID
	Proc   int
	Start  float64
	Finish float64
	// Dup marks duplicated copies inserted by duplication-based
	// heuristics; every task has exactly one non-Dup (primary) copy.
	Dup bool
}

// Duration returns Finish − Start.
func (a Assignment) Duration() float64 { return a.Finish - a.Start }

// Schedule is an immutable, validated result of a scheduling algorithm.
type Schedule struct {
	inst      *Instance
	algorithm string
	procs     [][]Assignment // per processor, sorted by Start
	byTask    [][]Assignment // per task, primary first then dups by Start
	makespan  float64
}

// Instance returns the problem this schedule solves.
func (s *Schedule) Instance() *Instance { return s.inst }

// Algorithm returns the name of the algorithm that produced the schedule.
func (s *Schedule) Algorithm() string { return s.algorithm }

// Makespan returns the overall schedule length (latest finish time of any
// primary copy; duplicates never extend it because a duplicate exists only
// to serve a later task).
func (s *Schedule) Makespan() float64 { return s.makespan }

// Primary returns the primary (non-duplicate) assignment of task i.
func (s *Schedule) Primary(i dag.TaskID) Assignment { return s.byTask[i][0] }

// Copies returns all assignments of task i, primary first. The returned
// slice must not be modified.
func (s *Schedule) Copies(i dag.TaskID) []Assignment { return s.byTask[i] }

// OnProc returns the assignments on processor p sorted by start time. The
// returned slice must not be modified.
func (s *Schedule) OnProc(p int) []Assignment { return s.procs[p] }

// NumCopies returns the total number of task copies including duplicates.
func (s *Schedule) NumCopies() int {
	total := 0
	for _, t := range s.procs {
		total += len(t)
	}
	return total
}

// NumDuplicates returns how many duplicated copies the schedule contains.
func (s *Schedule) NumDuplicates() int { return s.NumCopies() - s.inst.N() }

// All returns every assignment ordered by (processor, start).
func (s *Schedule) All() []Assignment {
	var out []Assignment
	for _, t := range s.procs {
		out = append(out, t...)
	}
	return out
}

// String implements fmt.Stringer.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule(%s: makespan=%.4g, %d copies on %d procs)",
		s.algorithm, s.makespan, s.NumCopies(), len(s.procs))
}

// Renamed returns a copy of the schedule attributed to a different
// algorithm name, sharing all placement data. Wrappers that delegate to
// an inner algorithm (algo.CommAware) use it to keep their registry name
// on the result.
func (s *Schedule) Renamed(algorithm string) *Schedule {
	cp := *s
	cp.algorithm = algorithm
	return &cp
}

// WithInstance returns a copy of the schedule over another instance of
// the same problem (same tasks, arcs, platform and costs), sharing all
// placement data. The streaming engine, whose instance grows in place,
// hands out mid-stream schedules over a compact snapshot this way.
func (s *Schedule) WithInstance(in *Instance) *Schedule {
	cp := *s
	cp.inst = in
	return &cp
}

// Validate re-checks every structural and temporal constraint of the
// schedule against its instance. It is the single source of truth used by
// tests, the simulator and the CLI tools. A nil return means the schedule
// is feasible.
func (s *Schedule) Validate() error {
	const eps = 1e-6
	in := s.inst
	// Every task has exactly one primary copy.
	for i := 0; i < in.N(); i++ {
		copies := s.byTask[i]
		if len(copies) == 0 {
			return fmt.Errorf("sched: task %d has no assignment", i)
		}
		primaries := 0
		for _, c := range copies {
			if !c.Dup {
				primaries++
			}
		}
		if primaries != 1 {
			return fmt.Errorf("sched: task %d has %d primary copies, want 1", i, primaries)
		}
	}
	// Per-processor slots are disjoint, sane and match execution costs.
	for p, timeline := range s.procs {
		if p >= in.P() && len(timeline) > 0 {
			return fmt.Errorf("sched: task %d placed on processor %d of a %d-processor platform", timeline[0].Task, p, in.P())
		}
		prevFinish := math.Inf(-1)
		for _, a := range timeline {
			if a.Start < -eps {
				return fmt.Errorf("sched: task %d starts at negative time %g", a.Task, a.Start)
			}
			if a.Proc != p {
				return fmt.Errorf("sched: assignment of task %d filed under proc %d but says proc %d", a.Task, p, a.Proc)
			}
			want := in.Cost(a.Task, p)
			if math.Abs(a.Duration()-want) > eps {
				return fmt.Errorf("sched: task %d on P%d runs %g, cost is %g", a.Task, p, a.Duration(), want)
			}
			if a.Start < prevFinish-eps {
				return fmt.Errorf("sched: overlap on P%d at task %d (start %g < previous finish %g)", p, a.Task, a.Start, prevFinish)
			}
			if a.Finish > prevFinish {
				prevFinish = a.Finish
			}
		}
	}
	// Every copy individually respects data arrival from the best copy of
	// each predecessor.
	for i := 0; i < in.N(); i++ {
		for _, c := range s.byTask[i] {
			for _, pe := range in.G.Pred(dag.TaskID(i)) {
				arrival := math.Inf(1)
				for _, pc := range s.byTask[pe.To] {
					t := pc.Finish + in.CommCost(pc.Proc, c.Proc, pe.Data)
					if t < arrival {
						arrival = t
					}
				}
				if c.Start < arrival-eps {
					return fmt.Errorf("sched: task %d copy on P%d starts %g before data from task %d arrives at %g",
						i, c.Proc, c.Start, pe.To, arrival)
				}
			}
		}
	}
	return nil
}

// FromAssignments rebuilds a Schedule from raw placements — the inverse
// of All(), used to reload schedules archived by export.WriteScheduleJSON.
// Only basic structure is checked here (task indices, exactly one primary
// per task, sane time windows); temporal feasibility is Validate's job,
// and a placement on a processor the instance does not have is
// deliberately preserved so downstream consumers (Validate, sim.Run)
// report it as a typed error instead of panicking on a cost lookup.
func FromAssignments(in *Instance, algorithm string, as []Assignment) (*Schedule, error) {
	maxProc := in.P() - 1
	primaries := make([]int, in.N())
	for _, a := range as {
		if a.Task < 0 || int(a.Task) >= in.N() {
			return nil, fmt.Errorf("sched: assignment names task %d of a %d-task graph", a.Task, in.N())
		}
		if a.Proc < 0 {
			return nil, fmt.Errorf("sched: assignment of task %d names negative processor %d", a.Task, a.Proc)
		}
		if a.Proc > maxProc {
			maxProc = a.Proc
		}
		if math.IsNaN(a.Start) || math.IsNaN(a.Finish) || a.Finish < a.Start {
			return nil, fmt.Errorf("sched: assignment of task %d has invalid window [%g, %g]", a.Task, a.Start, a.Finish)
		}
		if !a.Dup {
			primaries[a.Task]++
		}
	}
	for t, n := range primaries {
		if n != 1 {
			return nil, fmt.Errorf("sched: task %d has %d primary copies, want 1", t, n)
		}
	}
	procs := make([][]Assignment, maxProc+1)
	for _, a := range as {
		procs[a.Proc] = append(procs[a.Proc], a)
	}
	return buildSchedule(in, algorithm, procs), nil
}

// buildSchedule assembles the immutable Schedule from a finished Plan.
func buildSchedule(in *Instance, algorithm string, procs [][]Assignment) *Schedule {
	s := &Schedule{
		inst:      in,
		algorithm: algorithm,
		procs:     make([][]Assignment, len(procs)),
		byTask:    make([][]Assignment, in.N()),
	}
	total := 0
	for p := range procs {
		s.procs[p] = append([]Assignment(nil), procs[p]...)
		sort.Slice(s.procs[p], func(a, b int) bool { return s.procs[p][a].Start < s.procs[p][b].Start })
		total += len(s.procs[p])
	}
	// Bucket the copies into one arena keyed by task instead of growing
	// n per-task slices: two counting passes and two allocations.
	counts := make([]int32, in.N()+1)
	for p := range s.procs {
		for _, a := range s.procs[p] {
			counts[a.Task+1]++
		}
	}
	for i := 0; i < in.N(); i++ {
		counts[i+1] += counts[i]
	}
	arena := make([]Assignment, total)
	fill := make([]int32, in.N())
	for p := range s.procs {
		for _, a := range s.procs[p] {
			k := counts[a.Task] + fill[a.Task]
			arena[k] = a
			fill[a.Task]++
		}
	}
	for i := range s.byTask {
		lo, hi := counts[i], counts[i+1]
		s.byTask[i] = arena[lo:hi:hi]
	}
	for i := range s.byTask {
		copies := s.byTask[i]
		if len(copies) > 1 { // only a duplicated task has an order to fix
			sort.Slice(copies, func(a, b int) bool {
				if copies[a].Dup != copies[b].Dup {
					return !copies[a].Dup // primary first
				}
				return copies[a].Start < copies[b].Start
			})
		}
		for _, c := range copies {
			if !c.Dup && c.Finish > s.makespan {
				s.makespan = c.Finish
			}
		}
	}
	return s
}
