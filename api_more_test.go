package dagsched_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dagsched"
	"dagsched/internal/testfix"
)

func demoSchedule(t *testing.T) *dagsched.Schedule {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	g, err := dagsched.GaussianEliminationDAG(6)
	if err != nil {
		t.Fatal(err)
	}
	in, err := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 3, CCR: 1, Beta: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := dagsched.ILS().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExportersThroughFacade(t *testing.T) {
	s := demoSchedule(t)
	var svg, js, trace, img bytes.Buffer
	if err := dagsched.WriteGanttSVG(&svg, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Fatal("no svg")
	}
	if err := dagsched.WriteScheduleJSON(&js, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"algorithm"`) {
		t.Fatal("no schedule json")
	}
	if err := dagsched.WriteChromeTrace(&trace, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "traceEvents") {
		t.Fatal("no trace")
	}
	if err := dagsched.WriteGanttPNG(&img, s, 400); err != nil {
		t.Fatal(err)
	}
	if img.Len() == 0 {
		t.Fatal("no png bytes")
	}
}

func TestAnalyzeAndRepairThroughFacade(t *testing.T) {
	s := demoSchedule(t)
	an := dagsched.Analyze(s)
	if len(an.Critical) == 0 || len(an.Slack) != s.Instance().N() {
		t.Fatalf("analysis = %+v", an)
	}
	r, out, err := dagsched.AssessFailure(s, dagsched.RepairEvent{Proc: 0, Time: s.Makespan() / 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.Nominal != s.Makespan() || out.Repaired < out.Nominal-1e-9 {
		t.Fatalf("outcome = %+v", out)
	}
	r2, err := dagsched.Repair(s, dagsched.RepairEvent{Proc: 1, Time: 0})
	if err != nil || r2.Validate() != nil {
		t.Fatalf("Repair: %v", err)
	}
}

// TestAssessFailureKeepsStartedWork pins Repair's contract on the random
// battery: the repaired schedule validates and leaves the dead processor
// idle from the failure on, and since a repair happens at the failure
// instant, every copy that had started by then and was not destroyed
// reappears unchanged, and no other copy starts before the failure.
func TestAssessFailureKeepsStartedWork(t *testing.T) {
	const eps = 1e-9
	type placed struct {
		task  dagsched.TaskID
		proc  int
		start float64
	}
	var algs []dagsched.Algorithm
	for _, name := range []string{"HEFT", "BTDH", "ILS"} {
		a, err := dagsched.AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	repairs, broken := 0, 0
	testfix.Battery(testfix.BatteryConfig{Trials: 30, Seed: 77}, func(trial int, in *dagsched.Instance) {
		if in.P() < 2 {
			return // no survivor to repair onto
		}
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			for proc := 0; proc < in.P(); proc++ {
				for _, frac := range []float64{0, 0.3, 0.7} {
					f := dagsched.RepairEvent{Proc: proc, Time: s.Makespan() * frac}
					r, _, err := dagsched.AssessFailure(s, f)
					if err != nil {
						t.Fatalf("trial %d %s %+v: %v", trial, a.Name(), f, err)
					}
					repairs++
					if err := r.Validate(); err != nil {
						t.Fatalf("trial %d %s %+v: repaired schedule invalid: %v", trial, a.Name(), f, err)
					}
					for _, c := range r.OnProc(f.Proc) {
						if c.Finish > f.Time+eps {
							t.Fatalf("trial %d %s %+v: task %d runs on the dead processor until %g", trial, a.Name(), f, c.Task, c.Finish)
						}
					}
					started := map[placed]bool{}
					for _, c := range s.All() {
						if c.Start <= f.Time+eps && (c.Proc != f.Proc || c.Finish <= f.Time+eps) {
							started[placed{c.Task, c.Proc, c.Start}] = true
						}
					}
					var why string
					for _, c := range r.All() {
						k := placed{c.Task, c.Proc, c.Start}
						switch {
						case started[k]:
							delete(started, k)
						case c.Start < f.Time-eps:
							why = fmt.Sprintf("task %d starts anew on P%d at %g", c.Task, c.Proc, c.Start)
						}
					}
					for k := range started {
						why = fmt.Sprintf("started copy of task %d on P%d at %g moved or dropped", k.task, k.proc, k.start)
					}
					if why != "" {
						if broken == 0 {
							t.Errorf("trial %d %s, P%d fails at %g: %s", trial, a.Name(), f.Proc, f.Time, why)
						}
						broken++
					}
				}
			}
		}
	})
	if broken > 0 {
		t.Errorf("%d of %d repairs broke the contract", broken, repairs)
	}
}

func TestInstanceJSONThroughFacade(t *testing.T) {
	s := demoSchedule(t)
	in := s.Instance()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := dagsched.ReadInstanceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := dagsched.ILS().Schedule(back)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Makespan() != s.Makespan() {
		t.Fatalf("round-tripped instance schedules differently: %g vs %g", s2.Makespan(), s.Makespan())
	}
}

func TestDAXThroughFacade(t *testing.T) {
	const mini = `<adag name="m"><job id="a" runtime="2"/><job id="b" runtime="3"/>
	  <child ref="b"><parent ref="a"/></child></adag>`
	g, err := dagsched.ReadDAX(strings.NewReader(mini), dagsched.DAXOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestMoreWorkloadsThroughFacade(t *testing.T) {
	gens := map[string]func() (*dagsched.Graph, error){
		"intree":      func() (*dagsched.Graph, error) { return dagsched.InTreeDAG(2, 3) },
		"outtree":     func() (*dagsched.Graph, error) { return dagsched.OutTreeDAG(2, 3) },
		"epigenomics": func() (*dagsched.Graph, error) { return dagsched.EpigenomicsDAG(2, 2) },
		"cybershake":  func() (*dagsched.Graph, error) { return dagsched.CyberShakeDAG(3) },
		"ligo":        func() (*dagsched.Graph, error) { return dagsched.LIGODAG(2, 2) },
	}
	for name, gen := range gens {
		g, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Len() == 0 {
			t.Fatalf("%s empty", name)
		}
	}
}

func TestVariantsAndSystemsThroughFacade(t *testing.T) {
	v := dagsched.ILSVariant("my-ils", dagsched.ILSOptions{SigmaRank: true})
	if v.Name() != "my-ils" {
		t.Fatal("variant name lost")
	}
	if _, err := dagsched.NewSystem(dagsched.SystemConfig{}); err == nil {
		t.Fatal("empty system accepted")
	}
	rng := rand.New(rand.NewSource(4))
	b := dagsched.NewGraph("g")
	b.AddTask("", 1)
	g, _ := b.Build()
	in, err := dagsched.UnrelatedInstance(g, dagsched.HomogeneousSystem(2, 0, 1), 0.5, rng)
	if err != nil || in.P() != 2 {
		t.Fatalf("UnrelatedInstance: %v", err)
	}
}
