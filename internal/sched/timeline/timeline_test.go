package timeline

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// interval mirrors one placed assignment for the reference model.
type interval struct{ start, finish float64 }

// referenceFit is the linear slot scan the index must reproduce bit for
// bit: the acceptance test and arithmetic are copied from the linear
// scan in sched.Plan.insertionSlot.
func referenceFit(items []interval, ready, dur float64) float64 {
	prevFinish := 0.0
	for _, a := range items {
		start := math.Max(ready, prevFinish)
		if start+dur <= a.start+Eps {
			return start
		}
		if a.finish > prevFinish {
			prevFinish = a.finish
		}
	}
	return math.Max(ready, prevFinish)
}

// referenceTail is the start of the scan's unbounded tail gap: the
// running maximum finish of every item, 0 with none.
func referenceTail(items []interval) float64 {
	tail := 0.0
	for _, a := range items {
		tail = math.Max(tail, a.finish)
	}
	return tail
}

// checkShortQuery asserts the answer to a query shorter than m: none,
// unless it starts at or past the tail gap, where the answer is ready.
func checkShortQuery(t *testing.T, gi *GapIndex, items []interval, ready, m float64) {
	t.Helper()
	got, ok := gi.EarliestFit(ready, m/2)
	if ready >= referenceTail(items) {
		if !ok || got != ready {
			t.Fatalf("EarliestFit(%v, %v) at or past the tail = %v, %v; want %v", ready, m/2, got, ok, ready)
		}
	} else if ok {
		t.Fatalf("EarliestFit(%v, %v) answered a query shorter than m = %v before the tail", ready, m/2, m)
	}
}

// occupy is OccupyLogged reporting whether the index stayed intact.
func occupy(gi *GapIndex, start, finish float64) bool {
	gi.OccupyLogged(start, finish)
	return gi.OK()
}

// insertItem mirrors sched.Plan.insert ordering (stable by start).
func insertItem(items []interval, iv interval) []interval {
	k := sort.Search(len(items), func(i int) bool { return items[i].start > iv.start })
	items = append(items, interval{})
	copy(items[k+1:], items[k:])
	items[k] = iv
	return items
}

// fitCases are the thresholds the randomized index tests run at. With
// m = 0 every gap is indexed and queries of length zero are drawn; with a
// positive m every query and placement is at least m long, and the far
// case adds 1e12 to every time, where float spacing (~1.2e-4) exceeds
// Eps.
var fitCases = []struct {
	name   string
	m, off float64
}{
	{"m=0", 0, 0},
	{"m=0.5", 0.5, 0},
	{"m=0.5/off=1e12", 0.5, 1e12},
}

// TestEarliestFitMatchesReference drives random schedules through the
// index and the linear reference simultaneously and requires identical
// earliest-fit answers at every step, including exact-fit gaps, queries
// of length m (zero at m = 0) and queries at gap boundaries. A query
// shorter than m must get no answer, unless it starts at or past the
// tail gap, where the answer is ready.
func TestEarliestFitMatchesReference(t *testing.T) {
	for _, fc := range fitCases {
		t.Run(fc.name, func(t *testing.T) {
			m, off := fc.m, fc.off
			for seed := int64(0); seed < 50; seed++ {
				rng := rand.New(rand.NewSource(seed))
				gi := New(m)
				var items []interval
				for step := 0; step < 400; step++ {
					ready := off
					switch rng.Intn(4) {
					case 0:
					case 1: // at an existing boundary
						if len(items) > 0 {
							it := items[rng.Intn(len(items))]
							if rng.Intn(2) == 0 {
								ready = it.start
							} else {
								ready = it.finish
							}
						}
					default:
						ready = off + rng.Float64()*50
					}
					dur := m
					switch rng.Intn(5) {
					case 0:
					case 1: // exact length of a random current gap
						if gaps := gi.Gaps(); len(gaps) > 0 {
							g := gaps[rng.Intn(len(gaps))]
							if l := g.End - g.Start; l > 0 && l >= m && !math.IsInf(l, 0) {
								dur = l
							}
						}
					default:
						dur = m + rng.Float64()*8
					}

					want := referenceFit(items, ready, dur)
					got, ok := gi.EarliestFit(ready, dur)
					if !ok {
						t.Fatalf("seed %d step %d: index degraded unexpectedly", seed, step)
					}
					if got != want {
						t.Fatalf("seed %d step %d: EarliestFit(ready=%v, dur=%v) = %v, reference %v (items %v)",
							seed, step, ready, dur, got, want, items)
					}
					if m > 0 {
						checkShortQuery(t, gi, items, ready, m)
					}

					// Occasionally commit the placement, as a scheduler would.
					if rng.Intn(3) != 0 {
						if !occupy(gi, want, want+dur) {
							t.Fatalf("seed %d step %d: Occupy of a reported fit failed (start %v dur %v)", seed, step, want, dur)
						}
						items = insertItem(items, interval{start: want, finish: want + dur})
					}
				}
			}
		})
	}
}

// TestOccupyOutsideGapDegrades asserts the overlap fallback: occupying a
// slot straddling an existing assignment turns the index off rather than
// corrupting answers.
func TestOccupyOutsideGapDegrades(t *testing.T) {
	gi := New(0)
	if !occupy(gi, 10, 20) {
		t.Fatal("occupying the tail gap must succeed")
	}
	if occupy(gi, 15, 25) {
		t.Fatal("occupying across an assignment must fail")
	}
	if gi.OK() {
		t.Fatal("index must report degraded after a straddling occupy")
	}
	if _, ok := gi.EarliestFit(0, 1); ok {
		t.Fatal("degraded index must refuse queries")
	}
}

// TestCloneIndependence asserts a clone evolves independently of its
// parent.
func TestCloneIndependence(t *testing.T) {
	gi := New(0)
	occupy(gi, 5, 10)
	cp := gi.Clone()
	occupy(cp, 0, 5)

	got, _ := gi.EarliestFit(0, 5)
	if got != 0 {
		t.Fatalf("parent index affected by clone: EarliestFit = %v, want 0", got)
	}
	got, _ = cp.EarliestFit(0, 5)
	if got != 10 {
		t.Fatalf("clone: EarliestFit = %v, want 10", got)
	}
}

// TestGapCount sanity-checks the gap bookkeeping: k assignments inside
// the timeline produce exactly k+1 gaps (degenerate remainders included).
func TestGapCount(t *testing.T) {
	gi := New(0)
	rng := rand.New(rand.NewSource(7))
	var items []interval
	for i := 0; i < 200; i++ {
		ready := rng.Float64() * 100
		dur := rng.Float64() * 5
		s, ok := gi.EarliestFit(ready, dur)
		if !ok {
			t.Fatal("index degraded")
		}
		if !occupy(gi, s, s+dur) {
			t.Fatal("occupy failed")
		}
		items = insertItem(items, interval{start: s, finish: s + dur})
	}
	if got, want := len(gi.Gaps()), len(items)+1; got != want {
		t.Fatalf("gap count %d, want %d", got, want)
	}
	// The gaps must tile the complement: keys non-decreasing, tail open.
	gaps := gi.Gaps()
	for i := 1; i < len(gaps); i++ {
		if gaps[i].Start < gaps[i-1].Start {
			t.Fatalf("gap starts out of order at %d: %v", i, gaps)
		}
	}
	if !math.IsInf(gaps[len(gaps)-1].End, 1) {
		t.Fatal("missing unbounded tail gap")
	}
}

func BenchmarkEarliestFit(b *testing.B) {
	gi := New(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		s, _ := gi.EarliestFit(rng.Float64()*1e6, rng.Float64()*10)
		occupy(gi, s, s+rng.Float64()*10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gi.EarliestFit(rng.Float64()*1e6, 5)
	}
}
