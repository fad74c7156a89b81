package adversary

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dagsched/internal/algo/listsched"
)

func baseSpec() Spec {
	return Spec{N: 24, Procs: 3, CCR: 2, Beta: 0.75, BaseSeed: 7}
}

func TestSpecDecodeDeterministic(t *testing.T) {
	s := baseSpec()
	a, err := s.Decode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Decode()
	if err != nil {
		t.Fatal(err)
	}
	da, err := Digest(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Digest(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("same spec decoded to different instances: %s vs %s", da, db)
	}
}

func TestSpecMultipliersApply(t *testing.T) {
	s := baseSpec()
	plain, err := s.Decode()
	if err != nil {
		t.Fatal(err)
	}
	s.TaskMult = make([]float64, s.N)
	for i := range s.TaskMult {
		s.TaskMult[i] = 2
	}
	scaled, err := s.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.W {
		for p := range plain.W[i] {
			if got, want := scaled.W[i][p], 2*plain.W[i][p]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("W[%d][%d] = %g, want %g", i, p, got, want)
			}
		}
	}
	// Edge multipliers of the wrong length must error at decode (the
	// edge count is only known after generation).
	s.EdgeMult = []float64{1, 1}
	if plain.G.NumEdges() != 2 {
		if _, err := s.Decode(); err == nil {
			t.Fatal("mismatched edge multiplier length accepted")
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := map[string]Spec{
		"zero tasks":    {N: 0, Procs: 2, BaseSeed: 1},
		"huge tasks":    {N: MaxTasks + 1, Procs: 2, BaseSeed: 1},
		"zero procs":    {N: 5, Procs: 0, BaseSeed: 1},
		"huge procs":    {N: 5, Procs: MaxProcs + 1, BaseSeed: 1},
		"nan ccr":       {N: 5, Procs: 2, CCR: math.NaN(), BaseSeed: 1},
		"inf ccr":       {N: 5, Procs: 2, CCR: math.Inf(1), BaseSeed: 1},
		"beta 2":        {N: 5, Procs: 2, Beta: 2, BaseSeed: 1},
		"neg shape":     {N: 5, Procs: 2, Shape: -1, BaseSeed: 1},
		"big outdeg":    {N: 5, Procs: 2, OutDegree: MaxOutDegree + 1, BaseSeed: 1},
		"short taskmul": {N: 5, Procs: 2, TaskMult: []float64{1}, BaseSeed: 1},
		"nan taskmul":   {N: 5, Procs: 2, TaskMult: []float64{1, 1, math.NaN(), 1, 1}, BaseSeed: 1},
		"tiny edgemul":  {N: 5, Procs: 2, EdgeMult: []float64{MinMult / 2}, BaseSeed: 1},
		"huge edgemul":  {N: 5, Procs: 2, EdgeMult: []float64{MaxMult * 2}, BaseSeed: 1},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	for name, data := range map[string]string{
		"garbage":       "{",
		"unknown field": `{"n":5,"procs":2,"baseSeed":1,"bogus":true}`,
		"wrong type":    `{"n":"five","procs":2,"baseSeed":1}`,
		"out of range":  `{"n":5,"procs":2,"baseSeed":1,"ccr":1e30}`,
	} {
		if _, err := ParseSpec([]byte(data)); err == nil {
			t.Errorf("%s: ParseSpec accepted %s", name, data)
		}
	}
	good := `{"n":5,"procs":2,"baseSeed":1,"ccr":1.5}`
	if _, err := ParseSpec([]byte(good)); err != nil {
		t.Fatalf("ParseSpec rejected valid spec: %v", err)
	}
}

// TestSearchDeterministic is the seed-threading regression test of the
// issue: same seed ⇒ same found instance digest, for every method.
func TestSearchDeterministic(t *testing.T) {
	for _, method := range []string{"hc", "sa", "ga"} {
		cfg := Config{
			Attacker: listsched.HEFT{},
			Victim:   listsched.HLFET{},
			Method:   method,
			Iters:    30,
			Pop:      6,
			Seed:     42,
		}
		r1, err := Search(context.Background(), baseSpec(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		r2, err := Search(context.Background(), baseSpec(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		d1, err := Digest(r1.Instance)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Digest(r2.Instance)
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Errorf("%s: same seed found different instances (%s vs %s)", method, d1, d2)
		}
		if r1.Ratio != r2.Ratio {
			t.Errorf("%s: same seed found different ratios (%v vs %v)", method, r1.Ratio, r2.Ratio)
		}
		if r1.Evals == 0 {
			t.Errorf("%s: no evaluations counted", method)
		}
	}
}

// TestSearchImproves: the search must never return something worse than
// the base spec, and hill climbing should widen the HEFT-vs-HLFET gap
// on a heterogeneous base within a modest budget.
func TestSearchImproves(t *testing.T) {
	cfg := Config{
		Attacker: listsched.HEFT{},
		Victim:   listsched.HLFET{},
		Method:   "hc",
		Iters:    120,
		Seed:     3,
	}
	res, err := Search(context.Background(), baseSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < res.BaseRatio {
		t.Fatalf("search returned ratio %v below base %v", res.Ratio, res.BaseRatio)
	}
	if res.Ratio <= res.BaseRatio {
		t.Errorf("hc made no progress from base ratio %v in %d iters", res.BaseRatio, cfg.Iters)
	}
	// The found instance is a *valid* instance: decode re-validates, and
	// the attacker/victim makespans must be positive and consistent.
	if res.Instance == nil || res.AttackerMakespan <= 0 || res.VictimMakespan <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if got := res.VictimMakespan / res.AttackerMakespan; math.Abs(got-res.Ratio) > 1e-9 {
		t.Errorf("ratio %v inconsistent with makespans (%v)", res.Ratio, got)
	}
}

func TestSearchConfigErrors(t *testing.T) {
	if _, err := Search(context.Background(), baseSpec(), Config{}); err == nil {
		t.Error("missing attacker/victim accepted")
	}
	cfg := Config{Attacker: listsched.HEFT{}, Victim: listsched.ETF{}, Method: "bogus"}
	if _, err := Search(context.Background(), baseSpec(), cfg); err == nil {
		t.Error("unknown method accepted")
	}
	bad := baseSpec()
	bad.N = -1
	cfg.Method = "hc"
	if _, err := Search(context.Background(), bad, cfg); err == nil {
		t.Error("invalid base spec accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, baseSpec(), cfg); err == nil {
		t.Error("canceled context not reported")
	}
}

// TestFixtureRoundTrip saves a search result as a fixture and reloads
// it through the manifest, checking the digest pins hold.
func TestFixtureRoundTrip(t *testing.T) {
	cfg := Config{Attacker: listsched.HEFT{}, Victim: listsched.ETF{}, Method: "hc", Iters: 15, Seed: 9}
	res, err := Search(context.Background(), baseSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fx, err := SaveFixture(dir, "heft_vs_etf", baseSpec(), cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Version: 1, Fixtures: []Fixture{*fx}}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fixtures) != 1 || got.Fixtures[0].Name != "heft_vs_etf" {
		t.Fatalf("manifest round trip: %+v", got)
	}
	in, err := got.Fixtures[0].Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Digest(in)
	if err != nil {
		t.Fatal(err)
	}
	if d != fx.InstanceDigest {
		t.Fatalf("loaded digest %s != saved %s", d, fx.InstanceDigest)
	}
	// The genome must decode back to the very same instance.
	dec, err := got.Fixtures[0].Spec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	dd, err := Digest(dec)
	if err != nil {
		t.Fatal(err)
	}
	if dd != fx.InstanceDigest {
		t.Fatalf("spec decodes to digest %s, fixture pins %s", dd, fx.InstanceDigest)
	}
	// Tampering with the instance file must be caught by Load.
	if err := os.WriteFile(filepath.Join(dir, fx.File), []byte(`{"graph":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Fixtures[0].Load(dir); err == nil {
		t.Fatal("tampered fixture loaded without error")
	}
}
