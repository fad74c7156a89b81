package suite_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dagsched/internal/adversary"
	"dagsched/internal/algo/exact"
	"dagsched/internal/algo/suite"
	"dagsched/internal/testfix"
)

// stressDir holds the adversarially-found stress fixtures (see
// docs/ADVERSARY.md); stressGolden pins the full registry's schedules
// on them.
const (
	stressDir    = "../../../testdata/adversarial"
	stressGolden = "golden_stress.json"
)

// TestAdversarialStressSuite runs the whole registry over every
// checked-in adversarial instance. It asserts the corpus itself
// (fixtures reproduce their recorded gaps, at least three pairs clear
// the 1.15 ratio bar, genomes decode to the pinned instances —
// DESIGN.md invariant 11), then pins every algorithm's makespan and
// placement digest against golden_stress.json, and checks the exact
// lower bound where branch-and-bound is feasible. Every registry name,
// the unpinned search schedulers included, must also meet the oracles:
// the critical-path and work bounds, and the sum of costs on one
// processor.
func TestAdversarialStressSuite(t *testing.T) {
	m, err := adversary.ReadManifest(stressDir)
	if err != nil {
		t.Fatalf("reading stress manifest (regenerate with cmd/schedadv): %v", err)
	}
	if len(m.Fixtures) == 0 {
		t.Fatal("stress manifest is empty")
	}

	// Acceptance bar: at least 3 distinct attacker/victim pairs with a
	// found ratio of 1.15 or better.
	strongPairs := map[string]bool{}
	for _, fx := range m.Fixtures {
		if fx.Ratio >= 1.15 {
			strongPairs[fx.Attacker+"/"+fx.Victim] = true
		}
	}
	if len(strongPairs) < 3 {
		t.Errorf("only %d attacker/victim pairs reach ratio >= 1.15, want >= 3", len(strongPairs))
	}

	goldenPath := filepath.Join(stressDir, stressGolden)
	update := *updateGolden
	var golden map[string]map[string]testfix.GoldenRecord
	if update {
		golden = map[string]map[string]testfix.GoldenRecord{}
	} else {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("reading stress goldens (run with -update): %v", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}

	for _, fx := range m.Fixtures {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) {
			in, err := fx.Load(stressDir)
			if err != nil {
				t.Fatal(err)
			}

			// Invariant 11, first half: the genome re-decodes to the very
			// instance that was checked in.
			dec, err := fx.Spec.Decode()
			if err != nil {
				t.Fatalf("fixture genome no longer decodes: %v", err)
			}
			d, err := adversary.Digest(dec)
			if err != nil {
				t.Fatal(err)
			}
			if d != fx.InstanceDigest {
				t.Errorf("genome decodes to digest %s, fixture pins %s", d, fx.InstanceDigest)
			}

			// The recorded gap reproduces: attacker and victim makespans
			// match the manifest.
			att, err := suite.ByName(fx.Attacker)
			if err != nil {
				t.Fatal(err)
			}
			vic, err := suite.ByName(fx.Victim)
			if err != nil {
				t.Fatal(err)
			}
			as, err := att.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			vs, err := vic.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			if got := as.Makespan(); math.Abs(got-fx.AttackerMakespan) > 1e-9 {
				t.Errorf("attacker %s makespan %v, manifest records %v", fx.Attacker, got, fx.AttackerMakespan)
			}
			if got := vs.Makespan(); math.Abs(got-fx.VictimMakespan) > 1e-9 {
				t.Errorf("victim %s makespan %v, manifest records %v", fx.Victim, got, fx.VictimMakespan)
			}
			if got := vs.Makespan() / as.Makespan(); math.Abs(got-fx.Ratio) > 1e-9 {
				t.Errorf("ratio %v, manifest records %v", got, fx.Ratio)
			}

			// Exact lower bound where branch and bound is feasible.
			opt := math.Inf(-1)
			if in.N() <= 10 && in.P() <= 3 {
				o, proven, err := exact.BnB{}.Makespan(in)
				if err != nil {
					t.Fatal(err)
				}
				if proven {
					opt = o
				}
			}

			// Invariant 11, second half: every registry algorithm schedules
			// the adversarial instance validly, with pinned results.
			if update {
				golden[fx.Name] = map[string]testfix.GoldenRecord{}
			}
			for _, a := range suite.All() {
				s, err := a.Schedule(in)
				if err != nil {
					t.Fatalf("%s: %v", a.Name(), err)
				}
				if err := s.Validate(); err != nil {
					t.Errorf("%s: invalid schedule on stress fixture: %v", a.Name(), err)
				}
				if s.NumDuplicates() == 0 && s.Makespan() < opt-1e-6 {
					t.Errorf("%s: makespan %g beats proven optimum %g", a.Name(), s.Makespan(), opt)
				}
				checkBounds(t, a.Name(), fx.Name, in, s)
				checkOneProcessor(t, a, fx.Name, in)
				if update {
					golden[fx.Name][a.Name()] = testfix.GoldenRecord{
						Makespan: s.Makespan(),
						Digest:   testfix.ScheduleDigest(s),
					}
					continue
				}
				rec, ok := golden[fx.Name][a.Name()]
				if !ok {
					t.Errorf("%s missing from stress goldens (run with -update)", a.Name())
					continue
				}
				if got := s.Makespan(); got != rec.Makespan {
					t.Errorf("%s: makespan %v, stress golden %v", a.Name(), got, rec.Makespan)
				}
				if got := testfix.ScheduleDigest(s); got != rec.Digest {
					t.Errorf("%s: placement digest drifted from stress golden", a.Name())
				}
			}
			for _, a := range suite.Search() {
				s, err := a.Schedule(in)
				if err != nil {
					t.Fatalf("%s: %v", a.Name(), err)
				}
				if err := s.Validate(); err != nil {
					t.Errorf("%s: invalid schedule on stress fixture: %v", a.Name(), err)
				}
				checkBounds(t, a.Name(), fx.Name, in, s)
				checkOneProcessor(t, a, fx.Name, in)
			}
		})
	}

	if update {
		out, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d fixtures × %d algorithms)", goldenPath, len(m.Fixtures), len(suite.All()))
	}
}
