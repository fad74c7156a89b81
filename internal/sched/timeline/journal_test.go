package timeline

import (
	"math/rand"
	"testing"
)

func gapsEqual(a, b []Gap) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOccupyLoggedRevertExact drives random occupy bursts and asserts
// that reverting them in LIFO order restores the exact gap set and
// priority counter — the invariant sched.Plan.Undo depends on — at every
// threshold of fitCases.
func TestOccupyLoggedRevertExact(t *testing.T) {
	for _, fc := range fitCases {
		t.Run(fc.name, func(t *testing.T) {
			m, off := fc.m, fc.off
			for seed := int64(0); seed < 30; seed++ {
				rng := rand.New(rand.NewSource(seed))
				gi := New(m)
				// A committed baseline of real assignments.
				for i := 0; i < 20; i++ {
					ready := off + rng.Float64()*40
					dur := m + rng.Float64()*3
					s, _ := gi.EarliestFit(ready, dur)
					occupy(gi, s, s+dur)
				}
				for burst := 0; burst < 50; burst++ {
					before := gi.Gaps()
					ctrBefore := gi.ctr
					var logs []OccupyLog
					for k := rng.Intn(4) + 1; k > 0; k-- {
						ready := off + rng.Float64()*60
						dur := m + rng.Float64()*4
						s, ok := gi.EarliestFit(ready, dur)
						if !ok {
							t.Fatal("index degraded unexpectedly")
						}
						logs = append(logs, gi.OccupyLogged(s, s+dur))
					}
					for i := len(logs) - 1; i >= 0; i-- {
						gi.Revert(logs[i])
					}
					if !gapsEqual(gi.Gaps(), before) {
						t.Fatalf("seed %d burst %d: gap set not restored\n got %v\nwant %v", seed, burst, gi.Gaps(), before)
					}
					if gi.ctr != ctrBefore {
						t.Fatalf("seed %d burst %d: priority counter %d, want %d", seed, burst, gi.ctr, ctrBefore)
					}
				}
			}
		})
	}
}

// TestRevertOnDegradedIndex asserts degradation is sticky: a revert never
// resurrects a degraded index, and reverting a record that itself caused
// degradation is a no-op.
func TestRevertOnDegradedIndex(t *testing.T) {
	gi := New(0)
	occupy(gi, 10, 20)
	// Straddle the assignment: degrades.
	l := gi.OccupyLogged(15, 25)
	if gi.OK() {
		t.Fatal("straddling OccupyLogged must degrade the index")
	}
	gi.Revert(l)
	if gi.OK() {
		t.Fatal("revert must not resurrect a degraded index")
	}
	if _, ok := gi.EarliestFit(0, 1); ok {
		t.Fatal("degraded index must keep refusing queries after revert")
	}
	// A log captured before degradation also reverts to nothing once the
	// index is down.
	gi2 := New(0)
	good := gi2.OccupyLogged(0, 1)
	occupy(gi2, 5, 6)
	gi2.OccupyLogged(5.5, 10) // degrade
	gi2.Revert(good)
	if gi2.OK() {
		t.Fatal("degradation must be permanent")
	}
}
