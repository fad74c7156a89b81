package core

import (
	"math/rand"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// TestNamesAndOptions pins the mapping of each ILS configuration onto
// its listsched grid point: σ-rank is the PrioSigma priority, lookahead
// the SelectLookahead rule and duplication the greedy policy with ILS's
// budget of 8, all on HEFT's static order with insertion.
func TestNamesAndOptions(t *testing.T) {
	heft := listsched.HEFTParam()
	with := func(name string, prio listsched.Priority, sel listsched.Select, dup listsched.Duplication, maxDups int) listsched.Param {
		pm := heft
		pm.DisplayName, pm.Priority, pm.Select, pm.Duplication, pm.MaxDups = name, prio, sel, dup, maxDups
		return pm
	}
	cases := []struct {
		got, want listsched.Param
		canonical string
	}{
		{New(), with("ILS", listsched.PrioSigma, listsched.SelectLookahead, listsched.DupGreedy, 8), "LS/sigma/static/look/ins/dup8"},
		{NoDuplication(), with("ILS-L", listsched.PrioSigma, listsched.SelectLookahead, listsched.DupNone, 0), "LS/sigma/static/look/ins/nodup"},
		{NoLookahead(), with("ILS-D", listsched.PrioSigma, listsched.SelectEFT, listsched.DupGreedy, 8), "LS/sigma/static/eft/ins/dup8"},
		{RankOnly(), with("ILS-R", listsched.PrioSigma, listsched.SelectEFT, listsched.DupNone, 0), "LS/sigma/static/eft/ins/nodup"},
		{Variant("plain", Options{}), with("plain", listsched.PrioUpward, listsched.SelectEFT, listsched.DupNone, 0), "LS/u/static/eft/ins/nodup"},
		{Variant("custom", Options{Lookahead: true, Duplication: true, MaxDups: 3}), with("custom", listsched.PrioUpward, listsched.SelectLookahead, listsched.DupGreedy, 3), "LS/u/static/look/ins/dup3"},
		// A budget without duplication has nothing to bound.
		{Variant("nodup", Options{SigmaRank: true, MaxDups: 3}), with("nodup", listsched.PrioSigma, listsched.SelectEFT, listsched.DupNone, 0), "LS/sigma/static/eft/ins/nodup"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %+v, want %+v", c.want.DisplayName, c.got, c.want)
		}
		if c.got.Name() != c.want.DisplayName {
			t.Errorf("Name = %q, want %q", c.got.Name(), c.want.DisplayName)
		}
		if c.got.String() != c.canonical {
			t.Errorf("%s grid name = %q, want %q", c.got.Name(), c.got.String(), c.canonical)
		}
	}
}

func TestAllVariantsValidOnBattery(t *testing.T) {
	variants := []listsched.Param{New(), NoDuplication(), NoLookahead(), RankOnly(),
		Variant("plain", Options{})}
	testfix.Battery(testfix.BatteryConfig{Trials: 30, Seed: 808}, func(trial int, in *sched.Instance) {
		for _, a := range variants {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if s.Makespan() < in.CPMin()-1e-6 {
				t.Fatalf("trial %d %s: below CP bound", trial, a.Name())
			}
		}
	})
}

func TestValidOnAppGraphs(t *testing.T) {
	for _, in := range testfix.AppGraphs(4, 88) {
		s, err := New().Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", in.G.Name(), err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", in.G.Name(), err)
		}
	}
}

// With every mechanism disabled, ILS is schedule-identical to HEFT.
func TestPlainVariantEqualsHEFT(t *testing.T) {
	plain := Variant("plain", Options{})
	testfix.Battery(testfix.BatteryConfig{Trials: 25, Seed: 909}, func(trial int, in *sched.Instance) {
		a, _ := plain.Schedule(in)
		b, _ := listsched.HEFT{}.Schedule(in)
		if a.Makespan() != b.Makespan() {
			t.Fatalf("trial %d: plain ILS %g != HEFT %g", trial, a.Makespan(), b.Makespan())
		}
	})
}

// On homogeneous systems σ = 0, so ILS-R (σ-rank only) must equal HEFT.
func TestRankOnlyEqualsHEFTOnHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		g, err := workload.Random(workload.RandomConfig{N: 2 + rng.Intn(60)}, rng)
		if err != nil {
			t.Fatal(err)
		}
		in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 1 + rng.Intn(5), CCR: rng.Float64() * 5, Beta: 0}, rng)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := RankOnly().Schedule(in)
		b, _ := listsched.HEFT{}.Schedule(in)
		if a.Makespan() != b.Makespan() {
			t.Fatalf("trial %d: ILS-R %g != HEFT %g on homogeneous system", trial, a.Makespan(), b.Makespan())
		}
	}
}

// The headline claim: over a batch of heterogeneous random DAGs, full ILS
// must win or tie HEFT on a solid majority of instances and on average.
func TestILSBeatsHEFTOnAverage(t *testing.T) {
	var wins, ties, losses int
	var ilsSum, heftSum float64
	testfix.Battery(testfix.BatteryConfig{Trials: 60, MaxTasks: 60, MaxProcs: 8, Seed: 1001}, func(trial int, in *sched.Instance) {
		a, _ := New().Schedule(in)
		b, _ := listsched.HEFT{}.Schedule(in)
		ilsSum += a.Makespan() / in.CPMin()
		heftSum += b.Makespan() / in.CPMin()
		switch {
		case a.Makespan() < b.Makespan()-1e-9:
			wins++
		case a.Makespan() > b.Makespan()+1e-9:
			losses++
		default:
			ties++
		}
	})
	if wins <= losses {
		t.Fatalf("ILS vs HEFT: %d wins, %d ties, %d losses — expected strictly more wins", wins, ties, losses)
	}
	if ilsSum >= heftSum {
		t.Fatalf("ILS mean SLR %.4f not better than HEFT %.4f", ilsSum/60, heftSum/60)
	}
	t.Logf("ILS vs HEFT: %d wins / %d ties / %d losses; mean SLR %.4f vs %.4f",
		wins, ties, losses, ilsSum/60, heftSum/60)
}

// Duplication must pay off on a broadcast-heavy graph.
func TestILSDuplicatesOnFanOut(t *testing.T) {
	b := dag.NewBuilder("fan")
	root := b.AddTask("root", 1)
	for i := 0; i < 6; i++ {
		c := b.AddTask("", 5)
		b.AddEdge(root, c, 20)
	}
	in := sched.Consistent(b.MustBuild(), platform.Homogeneous(3, 0, 1))
	full, _ := New().Schedule(in)
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	noDup, _ := NoDuplication().Schedule(in)
	if full.Makespan() > noDup.Makespan() {
		t.Fatalf("duplication hurt: %g vs %g", full.Makespan(), noDup.Makespan())
	}
	if full.Makespan() != 11 {
		t.Fatalf("ILS fan-out makespan = %g, want 11", full.Makespan())
	}
	if full.NumDuplicates() == 0 {
		t.Fatal("no duplicates on broadcast-heavy graph")
	}
}

func TestDeterminism(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 10, Seed: 1102}, func(trial int, in *sched.Instance) {
		a1, _ := New().Schedule(in)
		a2, _ := New().Schedule(in)
		if a1.Makespan() != a2.Makespan() {
			t.Fatalf("trial %d: not deterministic", trial)
		}
	})
}

func TestSingleProcessor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _ := workload.Random(workload.RandomConfig{N: 25}, rng)
	in, _ := workload.MakeInstance(g, workload.HetConfig{Procs: 1, CCR: 3, Beta: 0}, rng)
	s, err := New().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := 0; i < in.N(); i++ {
		total += in.Cost(dag.TaskID(i), 0)
	}
	if s.Makespan() < total-1e-6 || s.Makespan() > total+1e-6 {
		t.Fatalf("single-proc makespan = %g, want %g", s.Makespan(), total)
	}
	if s.NumDuplicates() != 0 {
		t.Fatal("duplicates on a single processor are always useless")
	}
}
