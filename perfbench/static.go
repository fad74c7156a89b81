package main

import (
	"fmt"
	"time"

	"dagsched/internal/metrics"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

// staticCase is one (algorithm, instance) pair of the round robin.
type staticCase struct {
	alg    kernelAlg
	family string
	in     *sched.Instance
	warm   *sched.Schedule // the warm-up round's schedule
	digest string          // of the warm-up round's schedule
}

// staticBlock holds the samples of one block of rounds.
type staticBlock struct {
	times             [][]float64 // per case: Schedule wall time in seconds
	allocs            []uint64    // per case: TotalAlloc growth inside its Schedule calls
	attempted, failed int
}

func (ph *staticBlock) ops() (attempted, failed int) { return ph.attempted, ph.failed }

// staticBench runs in-process Schedule calls round robin over every
// (algorithm, instance) pair, so a slow spell on the host hits every
// algorithm alike. No HTTP, JSON or stream code runs.
type staticBench struct {
	big   []namedInstance // the HEFT/HLFET instances
	cases []staticCase
	slr   float64
	next  int // next big instance to probe
}

func newStatic(seed int64, sz sizes, rec *recorder) (bench, error) {
	big, small, err := staticInputs(seed, sz, rec)
	if err != nil {
		return nil, err
	}
	b := &staticBench{big: big}
	for _, a := range kernelAlgs {
		ins := big
		if a.key == "ils" {
			ins = small
		}
		for _, ni := range ins {
			b.cases = append(b.cases, staticCase{alg: a, family: ni.Family, in: ni.In})
		}
	}
	return b, nil
}

// merge folds blocks into one; with none it returns an empty block.
func (b *staticBench) merge(bs []block) *staticBlock {
	out := &staticBlock{times: make([][]float64, len(b.cases)), allocs: make([]uint64, len(b.cases))}
	for _, x := range bs {
		ph := x.(*staticBlock)
		for i := range b.cases {
			out.times[i] = append(out.times[i], ph.times[i]...)
			out.allocs[i] += ph.allocs[i]
		}
		out.attempted += ph.attempted
		out.failed += ph.failed
	}
	return out
}

// warm runs one untimed round. Its schedules are the reference every
// later round's digest must equal, and its SLRs give mean_slr.
func (b *staticBench) warm() error {
	var slr float64
	for i := range b.cases {
		c := &b.cases[i]
		s, err := c.alg.alg.Schedule(c.in)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", c.alg.key, c.family, err)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("%s on %s: invalid schedule: %w", c.alg.key, c.family, err)
		}
		c.warm, c.digest = s, testfix.ScheduleDigest(s)
		slr += metrics.SLR(s)
	}
	b.slr = slr / float64(len(b.cases))
	return nil
}

// measure runs whole rounds until the deadline has passed. A traced
// block then times the kernel steps on one HEFT/HLFET instance and the
// codecs on the ILS instance of the same family, after its deadline, so
// the probes never count in the traced end-to-end numbers. With the
// codecs timed on a 20000-task instance instead, the traced blocks read
// about a fifth slower than the untraced ones.
func (b *staticBench) measure(until time.Time, tr *tracer) (block, error) {
	ph := b.merge(nil)
	var rec *recorder
	if tr != nil {
		rec = tr.recorder(0)
	}
	for {
		b.round(ph, rec, tr)
		if !time.Now().Before(until) {
			break
		}
	}
	if rec != nil {
		i := b.next % len(b.big)
		b.next++
		if _, err := probeKernel(b.big[i].In, nil, rec, tr); err != nil {
			return nil, err
		}
		// The last cases are ILS on each small instance in order.
		c := b.cases[len(b.cases)-len(b.big)+i]
		if err := probeCodec(c.in, c.warm, rec, tr); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// round makes one Schedule call per case. Only the call itself is inside
// the timing and allocation window; the output checks run outside it.
func (b *staticBench) round(ph *staticBlock, rec *recorder, tr *tracer) {
	for i := range b.cases {
		c := &b.cases[i]
		s, secs, allocs, err := timeSchedule(c.alg, c.in, rec, tr)
		ph.times[i] = append(ph.times[i], secs)
		ph.allocs[i] += allocs
		ph.attempted++
		if err != nil || s.Validate() != nil || testfix.ScheduleDigest(s) != c.digest {
			ph.failed++
		}
	}
}

// endToEnd reports the tasks per second of a round at every case's
// median Schedule call, so that a stray slow call does not move it; the
// call latency; and the bytes allocated inside the calls. p50_ms is the
// median of the cases' median calls: every case makes one call a round,
// so the median of all calls falls between two cases and would read
// the slowest call of one and the fastest of the next.
func (b *staticBench) endToEnd(bs []block) []metric {
	ph := b.merge(bs)
	var tasks, secs float64
	var medians, calls []float64
	for i, c := range b.cases {
		m := median(ph.times[i])
		tasks += float64(c.in.N())
		secs += m
		medians = append(medians, 1000*m)
		for _, t := range ph.times[i] {
			calls = append(calls, 1000*t)
		}
	}
	return []metric{
		{"tasks_per_s", tasks / secs},
		{"p50_ms", median(medians)},
		{"p90_ms", quantile(calls, 0.90)},
		{"alloc_bytes_per_task", b.allocPerTask(ph, "")},
		{"mean_slr", b.slr},
	}
}

// allocPerTask is the bytes allocated inside the Schedule calls of ph
// per task scheduled, over the cases of one algorithm, or of all when
// key is empty.
func (b *staticBench) allocPerTask(ph *staticBlock, key string) float64 {
	var bytes, tasks float64
	for i, c := range b.cases {
		if key == "" || c.alg.key == key {
			bytes += float64(ph.allocs[i])
			tasks += float64(len(ph.times[i]) * c.in.N())
		}
	}
	return ratio(bytes, tasks)
}

// details splits the kernel's work by algorithm and instance family.
func (b *staticBench) details(bs []block) []metric {
	ph := b.merge(bs)
	var out []metric
	for _, a := range kernelAlgs {
		var tasks, secs float64
		for i, c := range b.cases {
			if c.alg.key == a.key {
				tasks += float64(c.in.N())
				secs += median(ph.times[i])
			}
		}
		out = append(out,
			metric{a.key + "_tasks_per_s", tasks / secs},
			metric{a.key + ".alloc_bytes_per_task", b.allocPerTask(ph, a.key)})
	}
	var calls []float64
	for i, c := range b.cases {
		out = append(out, metric{c.alg.key + ".schedule_ms." + c.family, 1000 * median(ph.times[i])})
		for _, t := range ph.times[i] {
			calls = append(calls, 1000*t)
		}
	}
	return append(out, metric{"p99_ms", quantile(calls, 0.99)})
}

func (b *staticBench) props([]block) map[string]any {
	type inst struct {
		Role   string `json:"role"`
		Family string `json:"family"`
		N      int    `json:"n"`
		Edges  int    `json:"edges"`
		P      int    `json:"p"`
	}
	var out []inst
	for _, c := range b.cases {
		out = append(out, inst{c.alg.key, c.family, c.in.N(), c.in.G.NumEdges(), c.in.P()})
	}
	return map[string]any{"instances": out}
}

func (b *staticBench) close() {}
