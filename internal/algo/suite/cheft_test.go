package suite

import (
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/dag"
	"dagsched/internal/platform"
	"dagsched/internal/sched"
	"dagsched/internal/sim"
	"dagsched/internal/testfix"
)

// C-HEFT is HEFT run through the shared one-port reservation layer by
// algo.CommAware (Sinnen and Sousa's one send port and one receive port
// per processor, transfers serializing on both). These tests pin the
// registered entry.

// cheft returns the registered C-HEFT.
func cheft(t *testing.T) algo.Algorithm {
	t.Helper()
	a, err := ByName("C-HEFT")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCHEFTValidOnBattery(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 30, Seed: 7001}, func(trial int, in *sched.Instance) {
		s, err := cheft(t).Schedule(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Makespan() < in.CPMin()-1e-6 {
			t.Fatalf("trial %d: below CP bound", trial)
		}
	})
}

func TestCHEFTValidOnAppGraphs(t *testing.T) {
	for _, in := range testfix.AppGraphs(4, 7002) {
		s, err := cheft(t).Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", in.G.Name(), err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", in.G.Name(), err)
		}
	}
}

// C-HEFT is, by construction, HEFT behind the generic CommAware wrapper;
// wrapping HEFT by hand must produce the identical schedule, and the
// result must carry the wrapper's display name.
func TestCHEFTIsWrappedHEFT(t *testing.T) {
	testfix.Battery(testfix.BatteryConfig{Trials: 10, MaxCCR: 8, Seed: 7005}, func(trial int, in *sched.Instance) {
		a, err := cheft(t).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		w := algo.CommAware{Inner: listsched.HEFT{}, Kind: platform.KindOnePort}
		b, err := w.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan() != b.Makespan() {
			t.Fatalf("trial %d: CHEFT %g != wrapped HEFT %g", trial, a.Makespan(), b.Makespan())
		}
		for i := 0; i < in.N(); i++ {
			pa, pb := a.Primary(dag.TaskID(i)), b.Primary(dag.TaskID(i))
			if pa.Proc != pb.Proc || pa.Start != pb.Start {
				t.Fatalf("trial %d: task %d placed differently", trial, i)
			}
		}
		if a.Algorithm() != "C-HEFT" || b.Algorithm() != "C-HEFT" {
			t.Fatalf("names %q / %q", a.Algorithm(), b.Algorithm())
		}
	})
}

// The point of the algorithm: under the one-port replay, C-HEFT schedules
// must degrade much less than HEFT schedules on communication-heavy
// instances.
func TestCHEFTRobustToContention(t *testing.T) {
	var heftStretch, cheftStretch float64
	trials := 0
	testfix.Battery(testfix.BatteryConfig{Trials: 20, MaxCCR: 8, Seed: 7003}, func(trial int, in *sched.Instance) {
		h, err := listsched.HEFT{}.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cheft(t).Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := sim.Run(h, sim.Config{Contention: true})
		if err != nil {
			t.Fatal(err)
		}
		cr, err := sim.Run(c, sim.Config{Contention: true})
		if err != nil {
			t.Fatal(err)
		}
		heftStretch += hr.Stretch
		cheftStretch += cr.Stretch
		trials++
	})
	if cheftStretch >= heftStretch {
		t.Fatalf("C-HEFT mean contention stretch %.3f not below HEFT's %.3f",
			cheftStretch/float64(trials), heftStretch/float64(trials))
	}
	t.Logf("mean one-port stretch: C-HEFT %.3f vs HEFT %.3f",
		cheftStretch/float64(trials), heftStretch/float64(trials))
}

// Contended ABSOLUTE makespan must also be no worse on average —
// otherwise low stretch would just mean pessimistic scheduling.
func TestCHEFTContendedMakespanCompetitive(t *testing.T) {
	var heftMS, cheftMS float64
	testfix.Battery(testfix.BatteryConfig{Trials: 20, MaxCCR: 8, Seed: 7004}, func(trial int, in *sched.Instance) {
		h, _ := listsched.HEFT{}.Schedule(in)
		c, _ := cheft(t).Schedule(in)
		hr, err := sim.Run(h, sim.Config{Contention: true})
		if err != nil {
			t.Fatal(err)
		}
		cr, err := sim.Run(c, sim.Config{Contention: true})
		if err != nil {
			t.Fatal(err)
		}
		heftMS += hr.Makespan
		cheftMS += cr.Makespan
	})
	if cheftMS > heftMS*1.05 {
		t.Fatalf("C-HEFT contended makespan total %.4g much worse than HEFT %.4g", cheftMS, heftMS)
	}
}

func TestCHEFTOnLocalChainReservesNothing(t *testing.T) {
	b := dag.NewBuilder("chain")
	var prev dag.TaskID = -1
	for i := 0; i < 5; i++ {
		id := b.AddTask("", 2)
		if prev >= 0 {
			b.AddEdge(prev, id, 10)
		}
		prev = id
	}
	in := sched.Consistent(b.MustBuild(), platform.Homogeneous(3, 0, 1))
	s, err := cheft(t).Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// No placement reads a remote input, so no transfer is reserved.
	for _, a := range s.All() {
		for _, pr := range in.G.Pred(a.Task) {
			if local := s.Primary(pr.To); local.Proc != a.Proc {
				t.Fatalf("task %d on P%d reads task %d from P%d", a.Task, a.Proc, pr.To, local.Proc)
			}
		}
	}
	if s.Makespan() != 10 {
		t.Fatalf("chain makespan = %g, want 10", s.Makespan())
	}
}

func TestCHEFTDeterministic(t *testing.T) {
	in := testfix.Topcuoglu()
	s1, _ := cheft(t).Schedule(in)
	s2, _ := cheft(t).Schedule(in)
	if s1.Makespan() != s2.Makespan() {
		t.Fatal("not deterministic")
	}
}
