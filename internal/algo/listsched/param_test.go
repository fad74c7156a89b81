package listsched_test

import (
	"context"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/core"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

// pairings maps each canonical baseline's dedicated loop, kept in
// testfix, to the grid point that must reproduce it bit for bit.
func pairings() []struct {
	name  string
	ref   func(*sched.Instance) *sched.Schedule
	param listsched.Param
} {
	return []struct {
		name  string
		ref   func(*sched.Instance) *sched.Schedule
		param listsched.Param
	}{
		{"HEFT", testfix.RefHEFT, listsched.HEFTParam()},
		{"CPOP", testfix.RefCPOP, listsched.CPOPParam()},
		{"HLFET", testfix.RefHLFET, listsched.HLFETParam()},
		{"ETF", testfix.RefETF, listsched.ETFParam()},
	}
}

// TestParamReproducesBaselinesOnGoldens proves the parameterized
// scheduler is an exact factoring: at the HEFT/CPOP/HLFET/ETF component
// settings it produces placement-digest-identical schedules to the
// dedicated loops on every golden instance — and matches the committed
// goldens themselves.
func TestParamReproducesBaselinesOnGoldens(t *testing.T) {
	golden, err := testfix.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range testfix.GoldenInstances() {
		for _, pair := range pairings() {
			want := pair.ref(ni.In)
			got, err := pair.param.Schedule(ni.In)
			if err != nil {
				t.Fatalf("%s on %s: %v", pair.param.Name(), ni.Name, err)
			}
			wantD, gotD := testfix.ScheduleDigest(want), testfix.ScheduleDigest(got)
			if wantD != gotD {
				t.Errorf("%s on %s: param digest differs from %s (makespans %v vs %v)",
					pair.param.Name(), ni.Name, pair.name, got.Makespan(), want.Makespan())
			}
			// And against the committed golden record directly, so the
			// equivalence is anchored to the frozen fixtures, not just to
			// the reference loop.
			if rec, ok := golden[ni.Name][pair.name]; ok {
				if gotD != rec.Digest {
					t.Errorf("%s on %s: param digest drifted from committed %s golden",
						pair.param.Name(), ni.Name, pair.name)
				}
				if got.Makespan() != rec.Makespan {
					t.Errorf("%s on %s: param makespan %v, golden %v",
						pair.param.Name(), ni.Name, got.Makespan(), rec.Makespan)
				}
			} else {
				t.Errorf("no committed %s golden on %s", pair.name, ni.Name)
			}
		}
	}
}

// TestParamReproducesBaselinesOnBattery is the differential property
// test over a fresh random battery: same digests on instances the
// goldens never saw, for the grid points and for the registry names
// that run them.
func TestParamReproducesBaselinesOnBattery(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 25, MaxTasks: 45, Seed: 22001}, func(trial int, in *sched.Instance) {
		for _, pair := range pairings() {
			want := testfix.ScheduleDigest(pair.ref(in))
			named, _ := listsched.Baseline(pair.name)
			for _, pm := range []listsched.Param{pair.param, named} {
				got, err := pm.Schedule(in)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, pm.Name(), err)
				}
				if testfix.ScheduleDigest(got) != want {
					t.Errorf("trial %d: %s digest differs from %s", trial, pm.Name(), pair.name)
				}
			}
		}
	})
}

// TestGridAllValidate runs every grid point over a small battery and
// requires valid schedules — the grid contains no broken compositions.
func TestGridAllValidate(t *testing.T) {
	grid := listsched.Grid()
	if len(grid) < 40 {
		t.Fatalf("grid has only %d points", len(grid))
	}
	seen := map[string]bool{}
	for _, pm := range grid {
		if seen[pm.String()] {
			t.Fatalf("duplicate grid point %s", pm)
		}
		seen[pm.String()] = true
	}
	dsh, _ := listsched.Baseline("DSH")
	for _, want := range []listsched.Param{listsched.HEFTParam(), listsched.CPOPParam(), listsched.HLFETParam(), listsched.ETFParam(), dsh} {
		if !seen[want.String()] {
			t.Errorf("grid is missing baseline point %s", want)
		}
	}
	testfix.Battery(testfix.BatteryConfig{Trials: 4, MaxTasks: 20, Seed: 22002}, func(trial int, in *sched.Instance) {
		for _, pm := range grid {
			s, err := pm.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pm, err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("trial %d %s: invalid schedule: %v", trial, pm, err)
			}
		}
	})
}

// TestParamParseRoundTrip pins the canonical naming: String and
// ParseParam are inverses over the whole grid and the named ILS, DSH and
// BTDH points, and malformed names error. Stream session names arrive
// from the network, so a bad duplication budget must error too.
func TestParamParseRoundTrip(t *testing.T) {
	named := []listsched.Param{core.New(), core.NoDuplication(), core.NoLookahead(), core.RankOnly()}
	for _, name := range []string{"DSH", "BTDH"} {
		pm, _ := listsched.Baseline(name)
		named = append(named, pm)
	}
	for _, pm := range append(listsched.Grid(), named...) {
		pm.DisplayName = ""
		got, err := listsched.ParseParam(pm.String())
		if err != nil {
			t.Fatalf("parse %s: %v", pm, err)
		}
		if got != pm {
			t.Errorf("round trip %s -> %s", pm, got)
		}
	}
	for _, bad := range []string{
		"", "HEFT", "LS/u/static/eft/ins", "LS/x/static/eft/ins/nodup",
		"LS/u/never/eft/ins/nodup", "LS/u/static/xxx/ins/nodup",
		"LS/u/static/eft/maybe/nodup", "LS/u/static/eft/ins/maybe",
		"LS/u/static/eft/ins/dup0", "LS/u/static/eft/ins/dup-1",
		"LS/u/static/eft/ins/dupx", "LS/u/static/eft/ins/dup08",
		"LS/u/static/eft/ins/chain0", "LS/u/static/eft/ins/nodup8",
		"LS/u/static/eft/ins/dup99999999999999999999",
	} {
		if _, err := listsched.ParseParam(bad); err == nil {
			t.Errorf("ParseParam(%q) accepted", bad)
		}
	}
}

// TestDuplicationIgnoresInsertion pins why Grid has no duplicating point
// without insertion: duplication trials always insert, so flipping
// Insertion on a duplicating point leaves every golden digest unchanged.
// The trials run on a forced worker group, so under -race the test also
// shakes out sharing between concurrent speculative trials.
func TestDuplicationIgnoresInsertion(t *testing.T) {
	oldW, oldT := algo.ForceTrialWorkers, algo.ParallelTrialThreshold
	algo.ForceTrialWorkers, algo.ParallelTrialThreshold = 4, 0
	t.Cleanup(func() { algo.ForceTrialWorkers, algo.ParallelTrialThreshold = oldW, oldT })
	golden, err := testfix.Golden()
	if err != nil {
		t.Fatal(err)
	}
	var points []listsched.Param
	for _, pm := range listsched.Grid() {
		if pm.Duplication != listsched.DupNone {
			points = append(points, pm)
		}
	}
	dsh, _ := listsched.Baseline("DSH")
	btdh, _ := listsched.Baseline("BTDH")
	points = append(points, dsh, btdh, core.New(), core.NoLookahead())
	for _, ni := range testfix.GoldenInstances() {
		for _, pm := range points {
			flipped := pm
			flipped.Insertion = !pm.Insertion
			a, errA := pm.Schedule(ni.In)
			b, errB := flipped.Schedule(ni.In)
			if errA != nil || errB != nil {
				t.Fatalf("%s on %s: %v %v", pm, ni.Name, errA, errB)
			}
			want := testfix.ScheduleDigest(a)
			if rec, ok := golden[ni.Name][pm.Name()]; ok {
				want = rec.Digest
			}
			if testfix.ScheduleDigest(b) != want {
				t.Errorf("%s on %s: flipping insertion to %v moved the schedule", pm, ni.Name, flipped.Insertion)
			}
		}
	}
}

// TestParamContextCancel proves the grid scheduler aborts promptly on an
// already-canceled context, like every other CtxScheduler.
func TestParamContextCancel(t *testing.T) {
	in := testfix.Topcuoglu()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pm := range []listsched.Param{HEFTlike(), listsched.CPOPParam()} {
		if _, err := algo.ScheduleContext(ctx, pm, in); err == nil {
			t.Errorf("%s: canceled context not reported", pm)
		}
	}
}

// HEFTlike returns a HEFT-setting Param with a display name, also
// covering the DisplayName override.
func HEFTlike() listsched.Param {
	pm := listsched.HEFTParam()
	pm.DisplayName = "HEFT*"
	return pm
}
