package suite

import (
	"testing"

	"dagsched/internal/algo"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func TestAllUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if seen[a.Name()] {
			t.Fatalf("duplicate algorithm name %q", a.Name())
		}
		seen[a.Name()] = true
	}
	if len(seen) != 19 {
		t.Fatalf("registry has %d algorithms, want 19", len(seen))
	}
	for _, a := range Search() {
		if seen[a.Name()] {
			t.Fatalf("search algorithm %q collides with a heuristic name", a.Name())
		}
		seen[a.Name()] = true
	}
	if len(seen) != 22 {
		t.Fatalf("full registry has %d algorithms, want 22", len(seen))
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"HEFT", "ILS", "BTDH", "DSC", "PETS", "HCPT", "LMT", "GA", "SA", "HC"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("ByName(%q) returned %q", name, a.Name())
		}
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestLineupsAreSubsetsOfAll(t *testing.T) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name()] = true
	}
	for _, lineup := range [][]string{namesOf(Heterogeneous()), namesOf(Homogeneous())} {
		for _, n := range lineup {
			if !known[n] {
				t.Fatalf("lineup algorithm %q not in All()", n)
			}
		}
	}
}

func namesOf(algs []algo.Algorithm) []string {
	var out []string
	for _, a := range algs {
		out = append(out, a.Name())
	}
	return out
}

// The grand integration test: every registered algorithm produces a valid
// schedule on every instance of the battery and on every application
// graph.
func TestEveryAlgorithmEverywhere(t *testing.T) {
	algs := All()
	testfix.Battery(testfix.BatteryConfig{Trials: 20, Seed: 4242}, func(trial int, in *sched.Instance) {
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
		}
	})
	for _, in := range testfix.AppGraphs(5, 4343) {
		for _, a := range algs {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), in.G.Name(), err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s on %s: %v", a.Name(), in.G.Name(), err)
			}
		}
	}
}
