package export

import (
	"encoding/json"
	"fmt"
	"io"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// scheduleJSON is the stable on-disk form of a schedule.
type scheduleJSON struct {
	Algorithm   string           `json:"algorithm"`
	Makespan    float64          `json:"makespan"`
	Processors  int              `json:"processors"`
	Tasks       int              `json:"tasks"`
	Duplicates  int              `json:"duplicates"`
	Assignments []assignmentJSON `json:"assignments"`
}

type assignmentJSON struct {
	Task   int     `json:"task"`
	Name   string  `json:"name,omitempty"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
	Dup    bool    `json:"dup,omitempty"`
}

// WriteScheduleJSON writes the schedule as indented JSON with one record
// per task copy, ordered by (processor, start).
func WriteScheduleJSON(w io.Writer, s *sched.Schedule) error {
	in := s.Instance()
	out := scheduleJSON{
		Algorithm:  s.Algorithm(),
		Makespan:   s.Makespan(),
		Processors: in.P(),
		Tasks:      in.N(),
		Duplicates: s.NumDuplicates(),
	}
	for p := 0; p < in.P(); p++ {
		for _, a := range s.OnProc(p) {
			out.Assignments = append(out.Assignments, assignmentJSON{
				Task:   int(a.Task),
				Name:   in.G.Task(a.Task).Name,
				Proc:   a.Proc,
				Start:  a.Start,
				Finish: a.Finish,
				Dup:    a.Dup,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteChromeTrace writes the schedule in the Chrome trace-event format
// (load via chrome://tracing or https://ui.perfetto.dev). Each processor
// becomes a thread lane, each task copy a complete ("X") event; times are
// interpreted as microseconds.
func WriteChromeTrace(w io.Writer, s *sched.Schedule) error {
	in := s.Instance()
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var events []event
	for p := 0; p < in.P(); p++ {
		for _, a := range s.OnProc(p) {
			cat := "task"
			if a.Dup {
				cat = "duplicate"
			}
			events = append(events, event{
				Name: in.G.Task(a.Task).Name,
				Cat:  cat,
				Ph:   "X",
				Ts:   a.Start,
				Dur:  a.Duration(),
				PID:  1,
				TID:  p,
				Args: map[string]string{
					"task": fmt.Sprintf("%d", a.Task),
					"dup":  fmt.Sprintf("%v", a.Dup),
				},
			})
		}
	}
	wrapper := struct {
		TraceEvents []event `json:"traceEvents"`
		DisplayUnit string  `json:"displayTimeUnit"`
	}{events, "ms"}
	data, err := json.MarshalIndent(wrapper, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadScheduleJSON reloads a schedule written by WriteScheduleJSON,
// rebinding it to the instance it was computed for (archives store
// placements, not the cost model). A placement on a processor the
// instance does not have is deliberately preserved so downstream
// consumers (Schedule.Validate, sim.Run) can report it as a typed error
// rather than this reader guessing about platform drift.
func ReadScheduleJSON(in *sched.Instance, r io.Reader) (*sched.Schedule, error) {
	var sj scheduleJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("export: decoding schedule: %w", err)
	}
	if sj.Algorithm == "" {
		return nil, fmt.Errorf("export: schedule archive has no algorithm name")
	}
	if sj.Tasks != 0 && sj.Tasks != in.N() {
		return nil, fmt.Errorf("export: archive has %d tasks, instance has %d", sj.Tasks, in.N())
	}
	as := make([]sched.Assignment, 0, len(sj.Assignments))
	for _, a := range sj.Assignments {
		as = append(as, sched.Assignment{
			Task: dag.TaskID(a.Task), Proc: a.Proc,
			Start: a.Start, Finish: a.Finish, Dup: a.Dup,
		})
	}
	return sched.FromAssignments(in, sj.Algorithm, as)
}
