// Command perfbench is dagsched's end-to-end benchmark. It generates one
// workload's inputs from a seed, sets up several times, warms up, then
// measures for a fixed time in one-second blocks and prints one JSON
// result line: every end-to-end metric with tracing off, or, with
// -trace 1, every per-layer metric reduced from spans the benchmark
// records around its calls into each layer, plus the tracing overhead.
// Every workload reports the same metrics, each in its own terms; the
// full report beside the trace adds the workload's own layer breakdown.
// README.md lists the workloads and metrics.
//
//	perfbench --workload static|service|stream --seed N --seconds S --trace 0|1 [--out DIR]
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// bench is one workload after set-up.
type bench interface {
	// warm runs untimed operations so caches fill and lazy set-up ends.
	warm() error
	// measure runs operations until the deadline, at least one round of
	// them, and returns their samples as one block. With a tracer it
	// records the block's spans. A failed output check is counted in the
	// block, not returned; an error means the workload could not run.
	measure(until time.Time, tr *tracer) (block, error)
	// endToEnd reduces blocks to every end-to-end metric but setup_s.
	endToEnd(bs []block) []metric
	// details reduces blocks to the workload's own layer breakdown,
	// which goes to the full report only.
	details(bs []block) []metric
	// props describes the inputs the layers' behaviour depends on, and
	// what the blocks saw of them.
	props(bs []block) map[string]any
	close()
}

// block holds the samples of one measured block of a workload.
type block interface {
	ops() (attempted, failed int)
}

type setupFunc func(seed int64, sz sizes, rec *recorder) (bench, error)

var workloads = map[string]setupFunc{
	"static":  newStatic,
	"service": newService,
	"stream":  newStream,
}

const (
	minSetups   = 3               // set-ups per phase, at least,
	maxSetups   = 15              // and at most;
	setupBudget = 3 * time.Second // more than the least run while all so far took less
	blockLen    = time.Second     // the measured time is split into blocks this long
	// calmSteal is the host steal share, in percent, at or below which a
	// block or set-up counts as calm.
	calmSteal = 2.5
)

func nproc() int { return runtime.NumCPU() }

type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: static, service or stream")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "results"), "directory for the full report and the trace")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds >= 1 and --trace 0 or 1")
	}
	traced := *trace == 1
	host := hostFacts(*seed)
	fmt.Println("# host", mustJSON(host))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set up several times and keep the last. A quick set-up runs more
	// often, so that the median of its times repeats. A traced run
	// alternates untraced and traced set-ups so both can be compared.
	var setups, setupSteal [2][]float64
	var b bench
	phases := 1 + *trace
	setupStart := time.Now()
	for i := 0; i < phases*maxSetups; i++ {
		if i%phases == 0 && i >= phases*minSetups && time.Since(setupStart) >= setupBudget {
			break
		}
		var rec *recorder
		phase := 0
		if traced && i%2 == 1 {
			rec, phase = tr.recorder(0), 1
		}
		if b != nil {
			b.close()
		}
		runtime.GC()
		h0 := readHostCPU()
		t0 := time.Now()
		nb, err := setup(*seed, fullSizes, rec)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups[phase] = append(setups[phase], time.Since(t0).Seconds())
		setupSteal[phase] = append(setupSteal[phase], stealPct(h0, readHostCPU()))
		b = nb
	}
	defer b.close()
	if err := b.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	// Measure in blocks; a traced run alternates untraced and traced
	// ones, so host drift hits both alike. While fewer than half of the
	// blocks were calm, an untraced run measures up to half as many again.
	var (
		blocks [2][]block
		steal  [2][]float64 // host steal share over each block, in percent
		gc     gcDelta
		calmN  int
	)
	n := *seconds * int(time.Second/blockLen)
	if traced {
		n = max(2, n+n%2)
	}
	start := time.Now()
	for i := 0; i < n || (!traced && i < n+n/2 && 2*calmN < n); i++ {
		phase, btr := 0, (*tracer)(nil)
		if traced && i%2 == 1 {
			phase, btr = 1, tr
			gc.start()
		}
		h0 := readHostCPU()
		blk, err := b.measure(start.Add(time.Duration(i+1)*blockLen), btr)
		if err != nil {
			return err
		}
		s := stealPct(h0, readHostCPU())
		if s <= calmSteal {
			calmN++
		}
		steal[phase] = append(steal[phase], s)
		blocks[phase] = append(blocks[phase], blk)
		if btr != nil {
			gc.stop()
		}
	}

	var res result
	for _, bs := range blocks {
		for _, blk := range bs {
			a, f := blk.ops()
			res.Attempted += a
			res.Failed += f
		}
	}
	res.Correct = res.Failed == 0
	// Every end-to-end metric is reduced over the calm set-ups and
	// blocks; see calm.
	endToEnd := func(phase int) []metric {
		return append([]metric{{"setup_s", median(pick(setups[phase], calm(setupSteal[phase])))}},
			b.endToEnd(pick(blocks[phase], calm(steal[phase])))...)
	}
	plain := endToEnd(0)
	report := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": host, "inputs": b.props(slices.Concat(blocks[0], blocks[1])),
		"setupRuns": setups, "setupStealPct": setupSteal, "blockStealPct": steal,
		"calmStealPct": calmSteal, "keptBlocks": [2]int{len(calm(steal[0])), len(calm(steal[1]))},
		"details": finite(b.details(pick(blocks[0], calm(steal[0])))),
	}
	out := plain
	if traced {
		withTrace := endToEnd(1)
		overhead := make(map[string]float64, len(plain))
		out = []metric{
			{"workload.instance_build_ms", buildMs(tr, len(setups[1]))},
			{"gc.cycles", float64(gc.cycles)},
			{"gc.pause_ms", gc.pauseMs},
		}
		out = append(out, layerMetrics(tr)...)
		for i, m := range plain {
			overhead[m.Name] = overheadPct(m, withTrace[i])
			out = append(out, metric{overheadPrefix + m.Name, overhead[m.Name]})
		}
		report["untraced"] = byName(plain)
		report["traced"] = byName(withTrace)
		report["overheadPct"] = overhead
		report["tracedDetails"] = finite(b.details(blocks[1]))
	}
	if err := checkMetrics(out); err != nil {
		return err
	}
	res.Metrics = byName(out)
	report["result"] = res
	if traced {
		fmt.Println("# trace overhead %", mustJSON(report["overheadPct"]))
	}
	fmt.Println("# host steal % per block", mustJSON(steal))
	fmt.Println("# inputs", mustJSON(report["inputs"]))
	if err := writeReport(*outDir, *name, *seed, *trace, report, tr); err != nil {
		return err
	}
	fmt.Println(mustJSON(res))
	return nil
}

// overheadPct is how much worse, in percent, tracing made one metric.
func overheadPct(untraced, traced metric) float64 {
	pct := 100 * (traced.Value - untraced.Value) / untraced.Value
	if d, _ := declared(untraced.Name); d.Better == "higher" {
		return -pct
	}
	return pct
}

// calm returns the indices of the samples whose host steal share is at
// most calmSteal, or, when fewer than half are, at most the median
// share: the calmer half. Where steal cannot be read it reads zero, and
// every sample is kept. Neighbours on a shared host steal CPU in bursts
// of seconds; a sample taken in a burst measures them more than the
// program, while a change to the program shows in calm and stolen
// samples alike.
func calm(steal []float64) []int {
	limit := max(calmSteal, median(steal))
	var idx []int
	for i, s := range steal {
		if s <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// pick returns the elements of xs at the indices idx.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// hostCPU is the host's CPU time in clock ticks from the first line of
// /proc/stat: all of it, and the part a hypervisor ran other guests
// while this one had work to run (steal).
type hostCPU struct{ total, steal uint64 }

// readHostCPU reads /proc/stat; it returns zero where that file does
// not exist or does not parse.
func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var c hostCPU
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealPct is the share of host CPU time stolen between two readings, in
// percent; zero when no time passed or the readings are missing.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// buildMs is the instance build time of one traced set-up.
func buildMs(tr *tracer, setups int) float64 {
	total, _ := tr.sums("workload.instance_build")
	return total / float64(setups)
}

// gcDelta accumulates the Go runtime's collections over the traced blocks.
type gcDelta struct {
	m0      runtime.MemStats
	cycles  uint32
	pauseMs float64
}

func (g *gcDelta) start() { runtime.ReadMemStats(&g.m0) }

func (g *gcDelta) stop() {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	g.cycles += m1.NumGC - g.m0.NumGC
	g.pauseMs += float64(m1.PauseTotalNs-g.m0.PauseTotalNs) / 1e6
}

// hostFacts are recorded with every result.
func hostFacts(seed int64) map[string]any {
	return map[string]any{
		"nproc":      nproc(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"seed":       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeReport writes the full report, and the spans of a traced run as
// a Chrome trace next to it.
func writeReport(dir, name string, seed int64, trace int, report map[string]any, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(data)
}

// finite keys metrics by name, leaving out those with no samples (NaN),
// which JSON cannot hold.
func finite(ms []metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			out[m.Name] = m.Value
		}
	}
	return out
}

// byName keys metrics by name, with their declared units.
func byName(ms []metric) map[string]valueOut {
	out := make(map[string]valueOut, len(ms))
	for _, m := range ms {
		d, _ := declared(m.Name)
		out[m.Name] = valueOut{m.Value, d.Unit}
	}
	return out
}
