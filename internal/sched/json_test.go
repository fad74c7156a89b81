package sched

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

func TestInstanceJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := randomInstance(t, rng, 25, 4)
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstanceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != in.N() || back.P() != in.P() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", back.N(), back.P(), in.N(), in.P())
	}
	for i := 0; i < in.N(); i++ {
		for p := 0; p < in.P(); p++ {
			if back.Cost(dag.TaskID(i), p) != in.Cost(dag.TaskID(i), p) {
				t.Fatalf("cost changed at %d,%d", i, p)
			}
		}
	}
	for p := 0; p < in.P(); p++ {
		for q := 0; q < in.P(); q++ {
			if got, want := back.Sys.CommCost(p, q, 7), in.Sys.CommCost(p, q, 7); !almostEqual(got, want) {
				t.Fatalf("comm cost changed at %d,%d: %g vs %g", p, q, got, want)
			}
		}
	}
	// Scheduling the round-tripped instance gives the identical result.
	plA := NewPlan(in)
	plB := NewPlan(back)
	for _, v := range in.G.TopoOrder() {
		pa, sa, _ := plA.BestEFT(v, true)
		pb, sb, _ := plB.BestEFT(v, true)
		if pa != pb || sa != sb {
			t.Fatalf("diverged at task %d", v)
		}
		plA.Place(v, pa, sa)
		plB.Place(v, pb, sb)
	}
}

func TestInstanceJSONHeterogeneousLinks(t *testing.T) {
	b := dag.NewBuilder("two")
	x := b.AddTask("", 1)
	y := b.AddTask("", 2)
	b.AddEdge(x, y, 3)
	g := b.MustBuild()
	sys := platform.MustNew(platform.Config{
		Speeds:        []float64{1, 2},
		StartupMatrix: [][]float64{{0, 1.5}, {2.5, 0}},
		InvRateMatrix: [][]float64{{0, 0.5}, {0.25, 0}},
	})
	in := Consistent(g, sys)
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstanceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Sys.CommCost(0, 1, 4); !almostEqual(got, 1.5+4*0.5) {
		t.Fatalf("link 0->1 = %g", got)
	}
	if got := back.Sys.CommCost(1, 0, 4); !almostEqual(got, 2.5+4*0.25) {
		t.Fatalf("link 1->0 = %g", got)
	}
}

func TestReadInstanceJSONErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":      `{`,
		"missing graph": `{"system":{"speeds":[1]},"costs":[]}`,
		"bad system":    `{"graph":{"tasks":[{"id":0,"weight":1}],"edges":[]},"system":{"speeds":[]},"costs":[[1]]}`,
		"bad costs":     `{"graph":{"tasks":[{"id":0,"weight":1}],"edges":[]},"system":{"speeds":[1]},"costs":[[-1]]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadInstanceJSON(strings.NewReader(in)); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestInstanceJSONBuildCapped checks the processor cap counts declared
// speeds: at the cap the instance builds, one above it is rejected.
func TestInstanceJSONBuildCapped(t *testing.T) {
	in := `{"graph":{"tasks":[{"id":0,"weight":1}],"edges":[]},"system":{"speeds":[1,1]},"costs":[[1,1]]}`
	var ij InstanceJSON
	if err := json.Unmarshal([]byte(in), &ij); err != nil {
		t.Fatal(err)
	}
	if _, err := ij.Build(2); err != nil {
		t.Fatalf("2 processors under a cap of 2: %v", err)
	}
	if _, err := ij.Build(1); err == nil || !strings.Contains(err.Error(), "limit of 1") {
		t.Fatalf("2 processors under a cap of 1: got %v, want the limit error", err)
	}
}

// TestInstanceJSONExactLinks round-trips link values that do not survive
// a re-derivation from costs (1 + 0.3 - 1 != 0.3): reading back what
// WriteJSON wrote must reproduce every link value and comm cost exactly,
// on uniform and on per-pair links.
func TestInstanceJSONExactLinks(t *testing.T) {
	g := dag.NewBuilder("two")
	x := g.AddTask("", 1)
	y := g.AddTask("", 2)
	g.AddEdge(x, y, 3)
	graph := g.MustBuild()
	for _, cfg := range []platform.Config{
		{Speeds: []float64{1, 1, 1}, Latency: 1, TimePerUnit: 0.3},
		{Speeds: []float64{1, 1, 1}, Latency: 0.7, TimePerUnit: 2.9},
		{Speeds: []float64{1, 2}, StartupMatrix: [][]float64{{0, 1}, {0.7, 0}}, InvRateMatrix: [][]float64{{0, 0.3}, {2.9, 0}}},
	} {
		in := Consistent(graph, platform.MustNew(cfg))
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadInstanceJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < in.P(); p++ {
			for q := 0; q < in.P(); q++ {
				if back.Sys.Startup(p, q) != in.Sys.Startup(p, q) || back.Sys.InvRate(p, q) != in.Sys.InvRate(p, q) {
					t.Fatalf("%+v: link %d->%d read back as %v/%v, wrote %v/%v", cfg, p, q,
						back.Sys.Startup(p, q), back.Sys.InvRate(p, q), in.Sys.Startup(p, q), in.Sys.InvRate(p, q))
				}
				if got, want := back.Sys.CommCost(p, q, 3), in.Sys.CommCost(p, q, 3); got != want {
					t.Fatalf("%+v: CommCost(%d,%d,3) = %v after the round trip, want %v", cfg, p, q, got, want)
				}
			}
		}
	}
}
