package suite

import (
	"testing"

	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

// forceKernelFastPaths flips processor selection onto the bound-pruned
// selection heap for one test, restoring the default after.
func forceKernelFastPaths(t *testing.T) {
	t.Helper()
	old := sched.ForceTreeSelect
	sched.ForceTreeSelect = true
	t.Cleanup(func() { sched.ForceTreeSelect = old })
}

// TestKernelFastPathsBitIdentical is the end-to-end golden equivalence
// proof for the selection heap: every suite algorithm must produce a
// bit-identical schedule (same digest — same copies at the same float64
// times) whether BestEFT runs the linear scan or the selection heap.
func TestKernelFastPathsBitIdentical(t *testing.T) {
	type run struct {
		name   string
		digest string
	}
	baseline := make(map[string][]run)
	for _, a := range All() {
		for _, ni := range testfix.GoldenInstances() {
			s, err := a.Schedule(ni.In)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), ni.Name, err)
			}
			baseline[a.Name()] = append(baseline[a.Name()],
				run{ni.Name, testfix.ScheduleDigest(s)})
		}
	}

	forceKernelFastPaths(t)
	for _, a := range All() {
		for k, ni := range testfix.GoldenInstances() {
			s, err := a.Schedule(ni.In)
			if err != nil {
				t.Fatalf("%s on %s (fast paths): %v", a.Name(), ni.Name, err)
			}
			want := baseline[a.Name()][k]
			if got := testfix.ScheduleDigest(s); got != want.digest {
				t.Errorf("%s on %s: fast-path schedule diverges from sequential baseline\n got %s\nwant %s",
					a.Name(), ni.Name, got, want.digest)
			}
		}
	}
}

// TestKernelFastPathsBattery repeats the equivalence over a random
// battery for every suite algorithm, ILS's trials included, where the
// selection heap is on the hot path of every placement.
func TestKernelFastPathsBattery(t *testing.T) {
	algos := All()
	type key struct {
		alg   string
		trial int
	}
	baseline := make(map[key]string)
	testfix.Battery(testfix.BatteryConfig{Trials: 8, Seed: 9300}, func(trial int, in *sched.Instance) {
		for _, a := range algos {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("%s trial %d: %v", a.Name(), trial, err)
			}
			baseline[key{a.Name(), trial}] = testfix.ScheduleDigest(s)
		}
	})
	forceKernelFastPaths(t)
	testfix.Battery(testfix.BatteryConfig{Trials: 8, Seed: 9300}, func(trial int, in *sched.Instance) {
		for _, a := range algos {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("%s trial %d (fast paths): %v", a.Name(), trial, err)
			}
			if got, want := testfix.ScheduleDigest(s), baseline[key{a.Name(), trial}]; got != want {
				t.Errorf("%s trial %d: fast-path digest %s != sequential %s", a.Name(), trial, got, want)
			}
		}
	})
}
