package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program, timed
// by the benchmark's own wrapper around the public call. Spans live in
// memory until the run ends.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int           // index of the parent in the same recorder; -1 for a root
	Op         int64         // the operation (schedule call, request, replay) the span serves
	Val        float64       // a quantity measured with the span: calls covered, bytes allocated
}

func (s span) ms() float64 { return ms(s.End - s.Start) }

// recorder collects the spans of one goroutine; it is not safe for
// concurrent use, so every load-generating goroutine owns one.
type recorder struct {
	tid   int
	epoch time.Time
	spans []span
}

// add records a finished span and returns its index.
func (r *recorder) add(name string, start, end time.Time, parent int, op int64, val float64) int {
	r.spans = append(r.spans, span{name, start.Sub(r.epoch), end.Sub(r.epoch), parent, op, val})
	return len(r.spans) - 1
}

// open records a span whose end is set by close once its children ran.
func (r *recorder) open(name string, start time.Time, parent int, op int64) int {
	return r.add(name, start, start, parent, op, 0)
}

func (r *recorder) close(i int, end time.Time) { r.spans[i].End = end.Sub(r.epoch) }

// extend moves span i's end to cover one more call and counts it in Val.
func (r *recorder) extend(i int, end time.Time) {
	r.close(i, end)
	r.spans[i].Val++
}

// tracer owns the recorders of one traced run, hands out operation ids
// that are unique across them, and keeps the run's named counters.
type tracer struct {
	epoch    time.Time
	mu       sync.Mutex
	recs     []*recorder
	ops      int64
	counters map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counters: map[string]float64{}} }

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += v
}

// counter returns the named counter's total.
func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// recorder registers and returns a recorder for the goroutine tid.
func (t *tracer) recorder(tid int) *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{tid: tid, epoch: t.epoch}
	t.recs = append(t.recs, r)
	return r
}

// op returns a fresh operation id.
func (t *tracer) op() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// each calls fn for every recorded span named name.
func (t *tracer) each(name string, fn func(span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.Name == name {
				fn(s)
			}
		}
	}
}

// durations returns the length in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	t.each(name, func(s span) { out = append(out, s.ms()) })
	return out
}

// sums returns the total length in milliseconds and the summed Val of
// the spans named name.
func (t *tracer) sums(name string) (totalMs, val float64) {
	t.each(name, func(s span) { totalMs += s.ms(); val += s.Val })
	return totalMs, val
}

// writeChrome writes every span as a complete ("X") event of the Chrome
// trace-event format, the format export.WriteChromeTrace writes for
// schedules: one lane per load-generating goroutine, the operation id, span id
// and parent id in args so one request's or one replay's spans can be
// picked out in the viewer.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type args struct {
		Op     int64   `json:"op"`
		ID     string  `json:"id"`
		Parent string  `json:"parent,omitempty"`
		Val    float64 `json:"val,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	for _, r := range t.recs {
		for i, s := range r.spans {
			ev := event{
				Name: s.Name,
				Cat:  strings.SplitN(s.Name, ".", 2)[0],
				Ph:   "X",
				Ts:   float64(s.Start) / float64(time.Microsecond),
				Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
				PID:  1,
				TID:  r.tid,
				Args: args{Op: s.Op, ID: fmt.Sprintf("%d.%d", r.tid, i), Val: s.Val},
			}
			if s.Parent >= 0 {
				ev.Args.Parent = fmt.Sprintf("%d.%d", r.tid, s.Parent)
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			if !first {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			first = false
			if _, err := bw.Write(data); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
