package resched_test

import (
	"context"
	"math"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/resched"
	"dagsched/internal/dag"
	"dagsched/internal/sched"
	"dagsched/internal/sim"
	"dagsched/internal/testfix"
)

func heftTopcuoglu(t *testing.T) *sched.Schedule {
	t.Helper()
	s, err := listsched.HEFT{}.Schedule(testfix.Topcuoglu())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPolicyRegistry(t *testing.T) {
	names := resched.Names()
	if len(names) != 3 {
		t.Fatalf("registry has %v", names)
	}
	for _, n := range names {
		p, err := resched.ByName(n)
		if err != nil || p.Name() != n || p.Description() == "" {
			t.Fatalf("policy %q: %v / %+v", n, err, p)
		}
	}
	if _, err := resched.ByName("nope"); err == nil {
		t.Fatal("unknown policy resolved")
	}
	if resched.Default().Name() != "auto" {
		t.Fatalf("default policy %s", resched.Default())
	}
}

func TestRepairSurvivesCrash(t *testing.T) {
	s := heftTopcuoglu(t)
	in := s.Instance()
	for _, row := range []struct {
		name string
		ev   resched.Event
		// empty: the dead processor must end up with no copy at all;
		// free: the crash may lose, delay or remap nothing.
		empty, free bool
	}{
		{name: "mid-run", ev: resched.Event{Proc: 0, Time: s.Makespan() * 0.4}},
		// The entry task's processor dies before anything ran.
		{name: "at-zero", ev: resched.Event{Proc: s.Primary(0).Proc, Time: 0}, empty: true},
		{name: "after-makespan", ev: resched.Event{Proc: 1, Time: s.Makespan() + 1}, free: true},
	} {
		ev := row.ev
		for _, p := range resched.Policies() {
			r, out, err := p.Assess(s, []resched.Event{ev})
			if err != nil {
				t.Fatalf("%s/%s: %v", row.name, p, err)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s/%s: repaired schedule invalid: %v", row.name, p, err)
			}
			// Nothing on the dead processor past the crash instant.
			for _, a := range r.OnProc(ev.Proc) {
				if a.Finish > ev.Time+1e-9 {
					t.Fatalf("%s/%s: task %d runs on dead P%d until %g (crash at %g)", row.name, p, a.Task, ev.Proc, a.Finish, ev.Time)
				}
			}
			// Frozen work is preserved exactly: every original copy that had
			// started by the reaction time and survived the crash reappears.
			for i := 0; i < in.N(); i++ {
				for _, c := range s.Copies(dag.TaskID(i)) {
					if c.Start > ev.Time+1e-9 || (c.Proc == ev.Proc && c.Finish > ev.Time+1e-9) {
						continue
					}
					found := false
					for _, rc := range r.Copies(dag.TaskID(i)) {
						if rc.Proc == c.Proc && math.Abs(rc.Start-c.Start) < 1e-9 {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%s/%s: frozen copy of task %d on P%d@%g was restarted or dropped", row.name, p, i, c.Proc, c.Start)
					}
				}
			}
			if out.Nominal != s.Makespan() || out.Repaired != r.Makespan() {
				t.Fatalf("%s/%s: outcome %+v inconsistent with schedules", row.name, p, out)
			}
			if out.Policy != p.Name() {
				t.Fatalf("%s/%s: outcome policy %q", row.name, p, out.Policy)
			}
			if n := len(r.OnProc(ev.Proc)); row.empty && n != 0 {
				t.Fatalf("%s/%s: %d copies left on P%d, dead from t=0", row.name, p, n, ev.Proc)
			}
			if row.free && (out.Lost+out.Delayed+out.Remapped != 0 || out.Repaired != out.Nominal) {
				t.Fatalf("%s/%s: a crash after the makespan cost %+v", row.name, p, out)
			}
		}
	}
}

func TestAutoNeverWorseThanEitherPrimitive(t *testing.T) {
	s := heftTopcuoglu(t)
	ev := []resched.Event{{Proc: 2, Time: s.Makespan() * 0.3}}
	mk := func(name string) float64 {
		p, err := resched.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Repair(s, ev)
		if err != nil {
			t.Fatal(err)
		}
		return r.Makespan()
	}
	auto, remap, suffix := mk("auto"), mk("remap-stranded"), mk("reschedule-suffix")
	if auto > remap+1e-9 || auto > suffix+1e-9 {
		t.Fatalf("auto %g worse than remap %g or suffix %g", auto, remap, suffix)
	}
}

func TestRepairErrors(t *testing.T) {
	s := heftTopcuoglu(t)
	p := resched.Default()
	if _, err := p.Repair(s, nil); err == nil {
		t.Fatal("no events accepted")
	}
	if _, err := p.Repair(s, []resched.Event{{Proc: 99, Time: 1}}); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
	if _, err := p.Repair(s, []resched.Event{{Proc: -1, Time: 1}}); err == nil {
		t.Fatal("negative processor accepted")
	}
	if _, err := p.Repair(s, []resched.Event{{Proc: 0, Time: -1}}); err == nil {
		t.Fatal("negative time accepted")
	}
	var all []resched.Event
	for q := 0; q < s.Instance().P(); q++ {
		all = append(all, resched.Event{Proc: q, Time: 1})
	}
	if _, err := p.Repair(s, all); err == nil {
		t.Fatal("all-processors-dead accepted")
	}
}

func TestReactIterativeProtocol(t *testing.T) {
	s := heftTopcuoglu(t)
	ms := s.Makespan()
	fp := &sim.FaultPlan{Crashes: []sim.Crash{
		{Proc: 0, At: ms * 0.3},
		{Proc: 1, At: ms * 0.6},
		{Proc: 2, At: ms * 0.2, Until: ms * 0.25}, // transient: ignored by repair
	}}
	r, out, err := resched.React(s, fp, resched.Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("repaired schedule invalid: %v", err)
	}
	for _, c := range fp.Crashes {
		if c.Until != 0 {
			continue
		}
		for _, a := range r.OnProc(c.Proc) {
			if a.Finish > c.At+1e-9 {
				t.Fatalf("task %d still on crashed P%d until %g", a.Task, c.Proc, a.Finish)
			}
		}
	}
	if out.Repaired != r.Makespan() || out.Nominal != ms {
		t.Fatalf("outcome %+v", out)
	}
	// No permanent crashes: schedule unchanged.
	calm := &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 0, At: 1, Until: 2}}, Jitter: 0.1}
	same, _, err := resched.React(s, calm, resched.Default())
	if err != nil {
		t.Fatal(err)
	}
	if same != s {
		t.Fatal("transient-only plan rebuilt the schedule")
	}
}

func TestCrashEvents(t *testing.T) {
	fp := &sim.FaultPlan{Crashes: []sim.Crash{
		{Proc: 2, At: 9},
		{Proc: 0, At: 4},
		{Proc: 1, At: 4, Until: 6},
		{Proc: 3, At: 4},
		{Proc: 2, At: 12}, // a dead processor cannot die again
		{Proc: 2, At: 7},  // only its earliest crash counts
	}}
	evs := resched.CrashEvents(fp)
	want := []resched.Event{{Proc: 0, Time: 4}, {Proc: 3, Time: 4}, {Proc: 2, Time: 7}}
	if len(evs) != len(want) {
		t.Fatalf("events %+v", evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d: %+v want %+v", i, evs[i], want[i])
		}
	}
	if resched.CrashEvents(nil) != nil {
		t.Fatal("nil plan has events")
	}

	// 20000 crashes of one processor repair once, exactly like the plan
	// holding only its earliest crash.
	s := heftTopcuoglu(t)
	ms := s.Makespan()
	const k = 20000
	many := &sim.FaultPlan{}
	for i := k - 1; i >= 0; i-- {
		many.Crashes = append(many.Crashes, sim.Crash{Proc: 0, At: ms * (0.3 + 0.7*float64(i)/k)})
	}
	one := &sim.FaultPlan{Crashes: []sim.Crash{{Proc: 0, At: ms * 0.3}}}
	if evs := resched.CrashEvents(many); len(evs) != 1 || evs[0] != resched.CrashEvents(one)[0] {
		t.Fatalf("%d crashes of P0 give %d events", k, len(evs))
	}
	for _, p := range resched.Policies() {
		rm, _, err := resched.React(s, many, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		r1, _, err := resched.React(s, one, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if testfix.ScheduleDigest(rm) != testfix.ScheduleDigest(r1) {
			t.Fatalf("%s: %d crashes of P0 repair differently from its earliest crash", p, k)
		}
	}
}

func TestMakespanSlack(t *testing.T) {
	s := heftTopcuoglu(t)
	sl := resched.MakespanSlack(s)
	if sl < 0 || sl > 1 || math.IsNaN(sl) {
		t.Fatalf("slack %g out of [0,1]", sl)
	}
}

func TestEvalRobustness(t *testing.T) {
	s := heftTopcuoglu(t)
	cfg := resched.RobustnessConfig{Samples: 12, Rate: 0.5, Seed: 3}
	a, err := resched.EvalRobustness(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := resched.EvalRobustness(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("robustness not deterministic: %+v vs %+v", a, b)
	}
	if a.Samples != 12 || a.CompletionRate < 0 || a.CompletionRate > 1 {
		t.Fatalf("robustness %+v", a)
	}
	if a.MeanDegradation <= 0 || a.MaxDegradation < a.MeanDegradation && a.CompletionRate == 0 {
		t.Fatalf("degradation stats implausible: %+v", a)
	}
	if a.MaxDegradation < 1 {
		t.Fatalf("max degradation %g < 1", a.MaxDegradation)
	}
	if _, err := resched.EvalRobustness(context.Background(), s, resched.RobustnessConfig{Rate: 1.5}); err == nil {
		t.Fatal("rate out of range accepted")
	}
}
