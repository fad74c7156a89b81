package resched_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/resched"
	"dagsched/internal/sched"
	"dagsched/internal/sim"
	"dagsched/internal/testfix"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_robust.json from the current fault/repair path")

type goldenRepair struct {
	Makespan float64 `json:"makespan"`
	Digest   string  `json:"digest"`
}

type goldenEntry struct {
	Makespan float64                 `json:"makespan"`
	Stranded []int                   `json:"stranded"`
	Killed   int                     `json:"killed"`
	Restarts int                     `json:"restarts"`
	Repaired map[string]goldenRepair `json:"repaired"`
}

// TestGoldenFaultReplay pins the acceptance contract: the same instance
// and the same fault seed produce a bit-identical degradation report and
// a bit-identical repaired schedule (captured as the placement digest),
// for every repair policy.
func TestGoldenFaultReplay(t *testing.T) {
	type fixture struct {
		name string
		in   *sched.Instance
	}
	fixtures := []fixture{{"topcuoglu", testfix.Topcuoglu()}}
	for i, in := range testfix.AppGraphs(4, 5)[:2] {
		fixtures = append(fixtures, fixture{fmt.Sprintf("app%d", i), in})
	}
	algs := []algo.Algorithm{listsched.HEFT{}, listsched.BTDH{}}
	seeds := []int64{31, 207}

	got := map[string]goldenEntry{}
	for _, fx := range fixtures {
		for _, a := range algs {
			s, err := a.Schedule(fx.in)
			if err != nil {
				t.Fatalf("%s/%s: %v", fx.name, a.Name(), err)
			}
			for _, seed := range seeds {
				fp := sim.SampleCrashes(fx.in.P(), 0.5, s.Makespan(), seed)
				fp.Jitter, fp.Seed = 0.15, seed
				rep, err := sim.Run(s, sim.Config{Faults: &fp})
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", fx.name, a.Name(), seed, err)
				}
				e := goldenEntry{
					Makespan: rep.Makespan,
					Stranded: append([]int{}, rep.Faults.Stranded...),
					Killed:   rep.Faults.Killed,
					Restarts: rep.Faults.Restarts,
					Repaired: map[string]goldenRepair{},
				}
				for _, pol := range resched.Policies() {
					r, _, err := resched.React(s, &fp, pol)
					if err != nil {
						t.Fatalf("%s/%s/%d/%s: %v", fx.name, a.Name(), seed, pol, err)
					}
					e.Repaired[pol.Name()] = goldenRepair{
						Makespan: r.Makespan(),
						Digest:   testfix.ScheduleDigest(r),
					}
				}
				got[fmt.Sprintf("%s/%s/%d", fx.name, a.Name(), seed)] = e
			}
		}
	}

	path := filepath.Join("testdata", "golden_robust.json")
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d entries)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d entries, current run produced %d", len(want), len(got))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("fixture entry %s not reproduced", k)
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s drifted:\n  fixture %+v\n  current %+v", k, w, g)
		}
	}
}
