package platform

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"dagsched/internal/sched/timeline"
)

// refSpans is the reference a link state must answer like: a sorted list
// of the busy intervals on one resource, scanned from its head.
type refSpans []refSpan

type refSpan struct{ s, e float64 }

// earliestFrom returns the earliest start >= t at which an interval of
// length dur fits between the busy intervals.
func (sp refSpans) earliestFrom(t, dur float64) float64 {
	for _, iv := range sp {
		if t+dur <= iv.s+1e-9 {
			return t
		}
		if iv.e > t {
			t = iv.e
		}
	}
	return t
}

// insert adds [s, e) after every interval starting at or before s.
func (sp refSpans) insert(s, e float64) refSpans {
	k := len(sp)
	for k > 0 && sp[k-1].s > s {
		k--
	}
	sp = append(sp, refSpan{})
	copy(sp[k+1:], sp[k:])
	sp[k] = refSpan{s, e}
	return sp
}

func (sp refSpans) remove(s, e float64) refSpans {
	k := sort.Search(len(sp), func(i int) bool { return sp[i].s >= s })
	for sp[k].e != e {
		k++
	}
	return append(sp[:k], sp[k+1:]...)
}

// refLinks is the reference reservation state: one span list per
// resource, the model's route, and a journal of reserved spans.
type refLinks struct {
	spans []refSpans
	route func(from, to int) (int, int)
	log   []refReservation
}

type refReservation struct {
	res  int
	s, e float64
}

// transferStart alternates between the route's resources until a start
// fits both.
func (r *refLinks) transferStart(from, to int, ready, dur float64) float64 {
	a, b := r.route(from, to)
	t := ready
	for {
		t1 := r.spans[a].earliestFrom(t, dur)
		if b < 0 {
			return t1
		}
		t2 := r.spans[b].earliestFrom(t1, dur)
		if t2 == t1 {
			return t1
		}
		t = t2
	}
}

func (r *refLinks) reserve(from, to int, start, dur float64) {
	a, b := r.route(from, to)
	for _, res := range []int{a, b} {
		if res >= 0 {
			r.spans[res] = r.spans[res].insert(start, start+dur)
			r.log = append(r.log, refReservation{res, start, start + dur})
		}
	}
}

func (r *refLinks) undo(mark int) {
	for len(r.log) > mark {
		l := r.log[len(r.log)-1]
		r.log = r.log[:len(r.log)-1]
		r.spans[l.res] = r.spans[l.res].remove(l.s, l.e)
	}
}

func (r *refLinks) clone() *refLinks {
	cp := &refLinks{spans: make([]refSpans, len(r.spans)), route: r.route}
	for i, sp := range r.spans {
		cp.spans[i] = append(refSpans(nil), sp...)
	}
	return cp
}

// gaps returns the idle gaps the busy intervals leave on each resource,
// as a gap index keeping every gap (m = 0) holds them: from the running
// maximum finish to the next start, from 0 first and the unbounded tail
// last.
func (r *refLinks) gaps() [][]timeline.Gap {
	out := make([][]timeline.Gap, len(r.spans))
	for i, sp := range r.spans {
		prev := 0.0
		for _, iv := range sp {
			out[i] = append(out[i], timeline.Gap{Start: prev, End: iv.s})
			prev = max(prev, iv.e)
		}
		out[i] = append(out[i], timeline.Gap{Start: prev, End: math.Inf(1)})
	}
	return out
}

// FuzzLinkState drives a one-port or a shared-link reservation state
// (1–6 processors; under shared-link 1–3 buses, each processor on the
// bus one leading byte per processor picks) and the reference span
// lists through steps of four bytes: an op, a
// source, a destination and a time byte. Op bits 0–1 pick the action
// (0 or 1: reserve a transfer at TransferStart's answer, 2: Mark, or
// Undo to the newest open mark when bit 2 is set, 3: Clone, continuing
// on the clone when bit 2 is set, else reserving one transfer on the
// clone and dropping it); bits 3–7 are the duration in 1/8 units past
// 1e-6 (durations shorter than timeline.Eps are outside the engine's
// exact range), and the time byte the ready time in 1/4 units, or,
// with bit 7 set, the end of the route's first resource's busy interval
// it indexes. After every step each pair's TransferStart at three
// probes and each resource's gaps must equal the reference's.
func FuzzLinkState(f *testing.F) {
	// Back-to-back transfers on one port and a rewind.
	f.Add(false, uint8(2), uint8(0), []byte{
		0x08, 0, 1, 0, // dur 1/8 at 0
		0x18, 0, 1, 0, // dur 3/8, right after it
		0x02, 0, 0, 0, // mark
		0x10, 0, 1, 0x80, // dur 2/8, ready at the first one's end: after both
		0x06, 0, 0, 0, // undo to the mark
		0x08, 1, 0, 8, // the other direction, ready 2
	})
	// Two buses: cross-bus transfers alternate between them.
	f.Add(true, uint8(4), uint8(1), []byte{
		0, 1, 0, 1, // procs on buses 0 1 0 1
		0x20, 0, 2, 4,
		0x20, 1, 3, 0,
		0x40, 0, 1, 0,
		0x07, 0, 0, 0, // clone, continue on it
		0x28, 2, 3, 0x81,
		0x03, 1, 0, 2, // clone, reserve on it, drop it
	})
	f.Add(true, uint8(6), uint8(2), []byte{0, 1, 2, 0, 1, 2, 0x30, 0, 5, 3, 0x02, 0, 0, 0, 0x31, 4, 1, 0, 0x06, 0, 0, 0})
	f.Fuzz(func(t *testing.T, shared bool, procs, buses uint8, steps []byte) {
		p := 1 + int(procs)%6
		sys := Homogeneous(p, 0, 1)
		var model CommModel = OnePort(sys)
		ref := &refLinks{route: func(from, to int) (int, int) { return from, p + to }}
		nres := 2 * p
		if shared {
			nb := 1 + int(buses)%3
			link := make([]int, p)
			for i := range link {
				if i < len(steps) {
					link[i] = int(steps[i]) % nb
				}
			}
			if len(steps) >= p {
				steps = steps[p:]
			} else {
				steps = nil
			}
			m, err := NewSharedLink(sys, SharedLinkConfig{ProcLink: link})
			if err != nil {
				t.Fatal(err)
			}
			model = m
			nres = 0
			for _, l := range link {
				nres = max(nres, l+1)
			}
			ref.route = func(from, to int) (int, int) {
				if link[from] == link[to] {
					return link[from], -1
				}
				return link[from], link[to]
			}
		}
		ref.spans = make([]refSpans, nres)
		st := model.NewState()
		if got := len(st.res); got != nres {
			t.Fatalf("%d resources, want %d", got, nres)
		}
		const maxSteps = 128
		if len(steps) > 4*maxSteps {
			steps = steps[:4*maxSteps]
		}
		var marks []int
		for k := 0; k+4 <= len(steps); k += 4 {
			op, from, to := steps[k], int(steps[k+1])%p, int(steps[k+2])%p
			dur := 1e-6 + float64(op>>3)/8
			ready := float64(steps[k+3]&0x7f) / 4
			if steps[k+3]&0x80 != 0 {
				if a, _ := ref.route(from, to); len(ref.spans[a]) > 0 {
					ready = ref.spans[a][int(steps[k+3]&0x7f)%len(ref.spans[a])].e
				}
			}
			reserve := func(st *CommState, ref *refLinks) {
				s := st.TransferStart(from, to, ready, dur)
				if want := ref.transferStart(from, to, ready, dur); s != want {
					t.Fatalf("step %d: TransferStart(%d, %d, %v, %v) = %v, reference %v", k/4, from, to, ready, dur, s, want)
				}
				st.Reserve(from, to, s, dur)
				ref.reserve(from, to, s, dur)
			}
			switch op & 3 {
			case 0, 1:
				reserve(st, ref)
			case 2:
				if op&4 == 0 || len(marks) == 0 {
					if st.Mark() != len(ref.log) {
						t.Fatalf("step %d: Mark = %d, reference journal %d", k/4, st.Mark(), len(ref.log))
					}
					marks = append(marks, st.Mark())
					break
				}
				m := marks[len(marks)-1]
				marks = marks[:len(marks)-1]
				st.Undo(m)
				ref.undo(m)
			case 3:
				cl, cref := st.Clone(), ref.clone()
				cref.log = nil
				if op&4 != 0 {
					st, ref, marks = cl, cref, nil
					break
				}
				// Reserve on the clone only; the original must not see it.
				reserve(cl, cref)
			}
			checkLinks(t, k/4, p, st, ref, ready, dur)
		}
	})
}

// checkLinks compares every pair's TransferStart at three probes, and
// every resource's gap index, with the reference.
func checkLinks(t *testing.T, step, p int, st *CommState, ref *refLinks, ready, dur float64) {
	t.Helper()
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			for _, q := range [][2]float64{{0, 1e-6}, {ready, dur}, {ready / 2, 2 * dur}} {
				got, want := st.TransferStart(from, to, q[0], q[1]), ref.transferStart(from, to, q[0], q[1])
				if got != want {
					t.Fatalf("step %d: TransferStart(%d, %d, %v, %v) = %v, reference %v", step, from, to, q[0], q[1], got, want)
				}
			}
		}
	}
	if got, want := allGaps(st), ref.gaps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: gaps %v, reference %v", step, got, want)
	}
}
