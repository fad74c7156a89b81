package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"dagsched/internal/stream"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := quantile(hundred, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %g, want 99.01", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %g", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
}

func TestThroughputHelpers(t *testing.T) {
	if got := perSecond(300, 2*time.Second); got != 150 {
		t.Errorf("perSecond(300, 2s) = %g", got)
	}
	if got := perSecond(5, 0); got != 0 {
		t.Errorf("perSecond over no time = %g, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %g", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %g, want 0", got)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms(1.5ms) = %g", got)
	}
}

func TestCalm(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{5, 0, 20, 1}, []int{1, 3}},
		{[]float64{3, 0, 9}, []int{0, 1}},
		{[]float64{2, 1, 0, 2.5, 9}, []int{0, 1, 2, 3}},
		{[]float64{0, 0, 0}, []int{0, 1, 2}},
		{[]float64{7}, []int{0}},
	} {
		if got := calm(c.steal); !slices.Equal(got, c.want) {
			t.Errorf("calm(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
	if got := pick([]string{"a", "b", "c"}, []int{2, 0}); !slices.Equal(got, []string{"c", "a"}) {
		t.Errorf("pick = %v", got)
	}
	if got := stealPct(hostCPU{total: 1000, steal: 10}, hostCPU{total: 1200, steal: 30}); got != 10 {
		t.Errorf("stealPct = %g, want 10", got)
	}
	if got := stealPct(hostCPU{}, hostCPU{}); got != 0 {
		t.Errorf("stealPct without readings = %g, want 0", got)
	}
}

// metricName is the naming rule every metric obeys: a letter or digit
// first, then at most 63 letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) bool { return metricName.MatchString(name) }

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p99%", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"p50_ms", "cache.tier.local", "heft.schedule_ms.het", "9lives", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]decl(nil), endToEndDecls...), layerDecls...) {
		if !validName(d.Name) {
			t.Errorf("declared metric %q has an invalid name", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	if err := checkMetrics([]metric{{"p50_ms", 1}, {"p50_ms", 2}}); err == nil {
		t.Error("checkMetrics accepted a duplicate")
	}
	if err := checkMetrics([]metric{{"no_such_metric", 1}}); err == nil {
		t.Error("checkMetrics accepted an undeclared metric")
	}
	if err := checkMetrics([]metric{{"p50_ms", math.NaN()}}); err == nil {
		t.Error("checkMetrics accepted NaN")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the declarations.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEndDecls) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, %d declared", len(bj.EndToEnd), len(endToEndDecls))
	}
	for i, m := range bj.EndToEnd {
		d := endToEndDecls[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, declared %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(layerDecls) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, %d declared", len(bj.PerLayer), len(layerDecls))
	}
	for i, m := range bj.PerLayer {
		d := layerDecls[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, declared %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
}

// tinySizes keeps the tests fast; the generators are the ones a run uses.
var tinySizes = sizes{
	BigN: 300, ILSHetN: 60, ILSHomoN: 40,
	PoolSize: 16, PoolN: 20, ZipfS: 1.1,
	StreamN: 200, StreamLogs: 2, AdvanceGap: 16, BatchSize: 8,
}

// inputBytes serializes every input a seed generates.
func inputBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	big, small, err := staticInputs(seed, tinySizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ni := range append(big, small...) {
		if err := ni.In.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := servicePool(seed, tinySizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range pool {
		data, err := json.Marshal(it.Req)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	for c := 0; c < 2; c++ {
		ks := newKeyStream(seed, c, tinySizes)
		for i := 0; i < 200; i++ {
			buf.WriteByte(byte(ks.next()))
		}
	}
	logs, err := streamLogs(seed, tinySizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range logs {
		if err := stream.WriteEvents(&buf, l.Events); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputBytes(t, 7), inputBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, inputBytes(t, 8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

func TestAdvancingLogsMoveTheClock(t *testing.T) {
	logs, err := streamLogs(3, tinySizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range logs {
		advances, last := 0, 0.0
		for _, ev := range l.Events {
			if ev.Op == stream.OpAdvance {
				if ev.Clock <= last {
					t.Errorf("log %d: clock %g does not rise past %g", i, ev.Clock, last)
				}
				advances, last = advances+1, ev.Clock
			}
		}
		if l.Advances != (advances > 0) {
			t.Errorf("log %d: Advances = %v with %d advance events", i, l.Advances, advances)
		}
	}
}

// TestWorkloadsReportDeclaredMetrics runs every workload briefly on tiny
// inputs, traced, and checks that it passes its output checks and
// reports every declared metric, each one measured.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	for name, setup := range workloads {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			b, err := setup(1, tinySizes, tr.recorder(0))
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if err := b.warm(); err != nil {
				t.Fatal(err)
			}
			var blocks [2][]block
			attempted, failed := 0, 0
			for i, during := range []*tracer{nil, tr, nil, tr} {
				blk, err := b.measure(time.Now().Add(100*time.Millisecond), during)
				if err != nil {
					t.Fatal(err)
				}
				blocks[i%2] = append(blocks[i%2], blk)
				a, f := blk.ops()
				attempted += a
				failed += f
			}
			if attempted == 0 || failed != 0 {
				t.Fatalf("attempted %d, failed %d", attempted, failed)
			}
			got := map[string]bool{}
			for _, m := range append(b.endToEnd(blocks[0]), b.endToEnd(blocks[1])...) {
				got[m.Name] = true
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %g, want a positive number", m.Name, m.Value)
				}
			}
			for _, m := range layerMetrics(tr) {
				got[m.Name] = true
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %g, want a positive number", m.Name, m.Value)
				}
			}
			// main adds these from the set-ups, the GC and the two phases.
			got["setup_s"] = true
			for _, d := range layerDecls[:3] {
				got[d.Name] = true
			}
			for _, d := range endToEndDecls {
				got[overheadPrefix+d.Name] = true
			}
			for _, ds := range [][]decl{endToEndDecls, layerDecls} {
				for _, d := range ds {
					if !got[d.Name] {
						t.Errorf("declared metric %s not reported", d.Name)
					}
					delete(got, d.Name)
				}
			}
			for n := range got {
				t.Errorf("undeclared metric %s reported", n)
			}
			if len(b.details(blocks[0])) == 0 {
				t.Error("no layer details")
			}
		})
	}
}
