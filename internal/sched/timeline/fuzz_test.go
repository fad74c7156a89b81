package timeline

import (
	"math"
	"testing"
)

// FuzzGapIndex drives an index at threshold m, with every time offset by
// 0 or 1e12, through a sequence of steps of four bytes each: ready (two
// bytes, in 1/64 time units past the offset), duration (m plus one byte
// in 1/16 units) and a mode byte. The mode's low two bits pick the query
// (0: as the bytes say, 1: ready at a placed interval's start, 2: ready
// at its finish, 3: duration the exact length of an indexed gap plus
// 0–3 times Eps/2 by bits 2–3); bits 4–5 pick the action (0: query only,
// 1 or 2: place at the answer, 3: revert the newest placement still
// journaled).
//
// Every answer must equal referenceFit, a query shorter than m must get
// none unless it starts at or past the tail gap, where the answer is
// ready, and every Revert must restore the gap set the index had before
// the occupy it reverts. TailOnly must report the reference tail, and an
// index with no finite gap exactly when Gaps holds the tail alone; such
// an index's rule (ready at or past the tail, else the tail) must answer
// as the reference does. Occupying a reported fit may degrade the index
// only once an interval shorter than Eps is placed; the run ends there,
// since a degraded index answers nothing.
func FuzzGapIndex(f *testing.F) {
	// Dust gaps at m = 1: placements at the previous finish leave empty
	// gaps behind, and an exact-length fit plus Eps/2 leaves a negative
	// one; the index leaves them out and answers as the scan does.
	f.Add(1.0, false, []byte{
		0, 128, 32, 0x10, // ready 2, dur 3, place [2, 5)
		0, 0, 16, 0x12, // ready 5 (a finish), dur 2, place [5, 7)
		0, 1, 0, 0x12, // ready 7 (a finish), dur 1, place [7, 8)
		0, 0, 0, 0x17, // dur 2+Eps/2, the gap [0, 2) overrun, place
		0, 64, 0, 0x00, // ready 1, dur 1, query: 8
		0, 0, 0, 0x30, // revert
		0, 0, 0, 0x30, // revert
		0, 0, 8, 0x00, // ready 0, dur 1.5, query
	})
	// Far times: at 1e12 float spacing exceeds Eps, so Eps adds nothing
	// to the fit test.
	f.Add(0.5, true, []byte{
		0, 0, 40, 0x10,
		1, 0, 3, 0x20,
		0, 0, 0, 0x12,
		0, 0, 0, 0x13,
		0, 0, 0, 0x30,
		0, 7, 1, 0x00,
	})
	// Zero-length intervals at m = 0.
	f.Add(0.0, false, []byte{0, 0, 0, 0x10, 0, 0, 0, 0x10, 0, 0, 0, 0x30})
	f.Fuzz(func(t *testing.T, m float64, far bool, steps []byte) {
		if !(m >= 0 && m <= 64) {
			return
		}
		off := 0.0
		if far {
			off = 1e12
		}
		const maxSteps = 256
		if len(steps) > 4*maxSteps {
			steps = steps[:4*maxSteps]
		}
		type undo struct {
			log   OccupyLog
			gaps  []Gap
			items []interval
		}
		gi := New(m)
		var items []interval
		var journal []undo
		short := false // an interval shorter than Eps was placed
		for k := 0; k+4 <= len(steps); k += 4 {
			st := steps[k : k+4]
			ready := off + float64(int(st[0])<<8|int(st[1]))/64
			dur := m + float64(st[2])/16
			mode := st[3]
			switch mode & 3 {
			case 1, 2:
				if len(items) > 0 {
					it := items[int(st[1])%len(items)]
					ready = it.start
					if mode&3 == 2 {
						ready = it.finish
					}
				}
			case 3:
				if gaps := gi.Gaps(); len(gaps) > 0 {
					g := gaps[int(st[2])%len(gaps)]
					if l := g.End - g.Start; l >= m && !math.IsInf(l, 0) {
						dur = l + float64(mode>>2&3)*Eps/2
					}
				}
			}
			if mode>>4&3 == 3 {
				if len(journal) == 0 {
					continue
				}
				u := journal[len(journal)-1]
				journal = journal[:len(journal)-1]
				gi.Revert(u.log)
				if !gapsEqual(gi.Gaps(), u.gaps) {
					t.Fatalf("step %d: revert left gaps %v, want %v", k/4, gi.Gaps(), u.gaps)
				}
				items = u.items
				continue
			}
			want := referenceFit(items, ready, dur)
			got, ok := gi.EarliestFit(ready, dur)
			if !ok || got != want {
				t.Fatalf("step %d: EarliestFit(%v, %v) = %v, %v; reference %v", k/4, ready, dur, got, ok, want)
			}
			if tail, only := gi.TailOnly(); only != (len(gi.Gaps()) == 1) || tail != referenceTail(items) {
				t.Fatalf("step %d: TailOnly() = %v, %v with gaps %v; reference tail %v", k/4, tail, only, gi.Gaps(), referenceTail(items))
			} else if only {
				answer := tail
				if ready >= tail {
					answer = ready
				}
				if answer != want {
					t.Fatalf("step %d: tail-only answer to (%v, %v) = %v; reference %v", k/4, ready, dur, answer, want)
				}
			}
			if m > 0 {
				checkShortQuery(t, gi, items, ready, m)
			}
			if mode>>4&3 != 0 {
				u := undo{gaps: gi.Gaps(), items: append([]interval(nil), items...)}
				iv := interval{start: want, finish: want + dur}
				short = short || iv.finish < iv.start+Eps
				u.log = gi.OccupyLogged(iv.start, iv.finish)
				if !gi.OK() {
					if !short {
						t.Fatalf("step %d: occupying the reported fit [%v, %v] degraded the index", k/4, iv.start, iv.finish)
					}
					return
				}
				journal = append(journal, u)
				items = insertItem(items, iv)
			}
		}
	})
}
