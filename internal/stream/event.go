// Package stream implements the streaming scheduling engine: a DAG that
// arrives as an append-only event log (tasks, edges, clock advances) is
// scheduled continuously, each flush ranking and re-placing only the
// affected suffix of the schedule while work that has virtually started
// stays frozen. Sealing the stream runs the
// configured list scheduler's exact placement semantics over the
// unfrozen remainder, so a sealed stream with a zero frozen horizon is
// bit-identical to static scheduling of the final graph (DESIGN.md
// invariant 13).
package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// Op is the event type tag of one log entry.
type Op string

const (
	// OpConfig configures the session: algorithm, platform, batching.
	// When present it must be the first event; the service requires it.
	OpConfig Op = "config"
	// OpAddTask appends a task. Id must equal the next unused id (dense
	// arrival order); costs optionally give the per-processor row,
	// otherwise weight/speed derives it.
	OpAddTask Op = "addTask"
	// OpAddEdge appends a dependency edge between present tasks.
	OpAddEdge Op = "addEdge"
	// OpAdvance moves the virtual clock forward, freezing every
	// placement that starts before the new value. It does not flush.
	OpAdvance Op = "advance"
	// OpFlush forces a re-plan of everything buffered so far.
	OpFlush Op = "flush"
	// OpSeal ends the stream: the final exact re-plan runs and the
	// engine emits its terminal delta.
	OpSeal Op = "seal"
)

// Event is one entry of the append log. It is the NDJSON wire format of
// the streaming endpoint and of schedrun -stream replay files: one JSON
// object per line, unused fields omitted.
type Event struct {
	Op Op `json:"op"`

	// addTask fields. Id is required and must equal the next unused id:
	// an explicit id makes logs self-checking (duplicates and gaps are
	// rejected rather than silently renumbered).
	ID     int       `json:"id,omitempty"`
	Name   string    `json:"name,omitempty"`
	Weight float64   `json:"weight,omitempty"`
	Costs  []float64 `json:"costs,omitempty"`

	// addEdge fields.
	From int     `json:"from,omitempty"`
	To   int     `json:"to,omitempty"`
	Data float64 `json:"data,omitempty"`

	// advance field.
	Clock float64 `json:"clock,omitempty"`

	// config fields (service and replay-file header).
	Algorithm   string  `json:"algorithm,omitempty"`
	Processors  int     `json:"processors,omitempty"`
	Latency     float64 `json:"latency,omitempty"`
	TimePerUnit float64 `json:"timePerUnit,omitempty"`
	BatchSize   int     `json:"batchSize,omitempty"`
	Priority    string  `json:"priority,omitempty"`
	TimeoutMs   int64   `json:"timeoutMs,omitempty"`
	// FinalAssignments asks for the full placement list on the sealed
	// delta, not just the changed suffix.
	FinalAssignments bool `json:"finalAssignments,omitempty"`
}

// DecodeEvent parses one NDJSON line into an Event, validating the op
// tag. Unknown fields are ignored (forward compatibility); an unknown op
// is an error.
func DecodeEvent(line []byte) (Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return Event{}, fmt.Errorf("stream: bad event: %w", err)
	}
	switch ev.Op {
	case OpConfig, OpAddTask, OpAddEdge, OpAdvance, OpFlush, OpSeal:
		return ev, nil
	case "":
		return Event{}, fmt.Errorf("stream: event missing op")
	default:
		return Event{}, fmt.Errorf("stream: unknown op %q", ev.Op)
	}
}

// ReadEvents parses a whole NDJSON stream (blank lines skipped).
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxEventBytes)
	var evs []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(trimSpace(b)) == 0 {
			continue
		}
		ev, err := DecodeEvent(b)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}

// WriteEvents writes events as NDJSON.
func WriteEvents(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// MaxEventBytes bounds one NDJSON line (a task's cost row is the only
// unbounded field; 1 MiB covers thousands of processors).
const MaxEventBytes = 1 << 20

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// Placement is one (re-)placed assignment reported in a Delta.
type Placement struct {
	Task   int     `json:"task"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// Delta is the schedule update emitted by one flush: what changed, how
// much work the bounded re-plan actually did, and the current makespan.
// The final delta of a stream has Sealed set.
type Delta struct {
	Seq    int     `json:"seq"`
	Clock  float64 `json:"clock"`
	Events int     `json:"events"` // events applied by this batch
	Tasks  int     `json:"tasks"`  // graph size after the batch
	Edges  int     `json:"edges"`
	// Replanned counts tasks whose placement was recomputed (the
	// affected suffix); Frozen counts placements pinned by the clock.
	Replanned int `json:"replanned"`
	Frozen    int `json:"frozen"`
	// RankRepaired counts the task priorities the flush computed: on an
	// incremental flush under the upward rank, the affected set, so it
	// equals Replanned; on a seal, a full-recompute flush or under any
	// other priority, all of them. FullRanks marks a flush that computed
	// every priority (those, or an incremental flush that affected every
	// task, such as the first).
	RankRepaired int  `json:"rankRepaired"`
	FullRanks    bool `json:"fullRanks,omitempty"`
	// FullReplan marks a flush that rebuilt the plan from the frozen
	// prefix (an already-placed task was affected, or baseline mode).
	FullReplan bool    `json:"fullReplan,omitempty"`
	Makespan   float64 `json:"makespan"`
	// Placed lists the assignments that changed in this flush (or all of
	// them on a sealed delta when the config asked for FinalAssignments).
	Placed []Placement `json:"placed,omitempty"`
	Sealed bool        `json:"sealed,omitempty"`
}

// InstanceEvents flattens a static instance into a replayable event log:
// tasks arrive in the given order (ids remapped to dense arrival
// positions), every edge arrives right after its later endpoint, and
// per-processor cost rows ride on the task events so replay reconstructs
// the instance exactly. A trailing seal event ends the log. The arrival
// slice must be a permutation of the instance's task ids but need not
// respect precedence — adversarial (e.g. reverse-topological) arrival
// orders are the point.
func InstanceEvents(in *sched.Instance, arrival []dag.TaskID) ([]Event, error) {
	n := in.N()
	if len(arrival) != n {
		return nil, fmt.Errorf("stream: arrival order has %d of %d tasks", len(arrival), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range arrival {
		if v < 0 || int(v) >= n || pos[v] != -1 {
			return nil, fmt.Errorf("stream: arrival order is not a permutation at %d", i)
		}
		pos[v] = i
	}
	evs := make([]Event, 0, n+in.G.NumEdges()+1)
	for i, v := range arrival {
		costs := make([]float64, in.P())
		for p := range costs {
			costs[p] = in.Cost(v, p)
		}
		evs = append(evs, Event{
			Op:     OpAddTask,
			ID:     i,
			Name:   in.G.Task(v).Name,
			Weight: in.G.Task(v).Weight,
			Costs:  costs,
		})
		// Emit every edge whose later-arriving endpoint is v, remapped to
		// arrival ids, deterministically ordered.
		var ready []dag.Edge
		for _, a := range in.G.Pred(v) {
			if pos[a.To] <= i {
				ready = append(ready, dag.Edge{From: dag.TaskID(pos[a.To]), To: dag.TaskID(i), Data: a.Data})
			}
		}
		for _, a := range in.G.Succ(v) {
			if pos[a.To] < i {
				ready = append(ready, dag.Edge{From: dag.TaskID(i), To: dag.TaskID(pos[a.To]), Data: a.Data})
			}
		}
		sort.Slice(ready, func(x, y int) bool {
			if ready[x].From != ready[y].From {
				return ready[x].From < ready[y].From
			}
			return ready[x].To < ready[y].To
		})
		for _, e := range ready {
			evs = append(evs, Event{Op: OpAddEdge, From: int(e.From), To: int(e.To), Data: e.Data})
		}
	}
	evs = append(evs, Event{Op: OpSeal})
	return evs, nil
}
