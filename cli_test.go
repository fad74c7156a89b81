package dagsched_test

// End-to-end smoke tests of the four CLI tools and the example programs,
// exercising the same binaries a user would run. They shell out to the go
// tool, so they are skipped under -short.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runTool executes `go run ./cmd/<tool> args...` in the repo root.
func runTool(t *testing.T, tool string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", tool, args, err, errb.String())
	}
	return out.String(), errb.String()
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests compile binaries")
	}
	dir := t.TempDir()
	graph := filepath.Join(dir, "g.json")
	dot := filepath.Join(dir, "g.dot")

	// schedgen: generate a Gaussian-elimination DAG with DOT and stats.
	_, errOut := runTool(t, "schedgen", "-type", "gauss", "-m", "6", "-o", graph, "-dot", dot, "-stats")
	if !strings.Contains(errOut, "generated gauss-m6") {
		t.Fatalf("schedgen stderr: %s", errOut)
	}
	if !strings.Contains(errOut, "parallelism=") {
		t.Fatalf("schedgen -stats missing: %s", errOut)
	}
	if data, err := os.ReadFile(dot); err != nil || !strings.Contains(string(data), "digraph") {
		t.Fatalf("DOT output broken: %v", err)
	}

	// schedrun: schedule it, saving every artifact.
	svg := filepath.Join(dir, "s.svg")
	js := filepath.Join(dir, "s.json")
	trace := filepath.Join(dir, "s.trace")
	inst := filepath.Join(dir, "inst.json")
	out, _ := runTool(t, "schedrun",
		"-graph", graph, "-algo", "ILS", "-procs", "3",
		"-svg", svg, "-json", js, "-trace", trace, "-save-instance", inst,
		"-noise", "0.2", "-contention", "-analyze", "-fail-proc", "0", "-fail-at", "0.5")
	for _, want := range []string{"ILS", "SLR", "replay", "analysis:", "fail-stop of P0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("schedrun output missing %q:\n%s", want, out)
		}
	}
	for _, f := range []string{svg, js, trace, inst} {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Fatalf("artifact %s missing", f)
		}
	}

	// schedrun from the saved instance reproduces the identical makespan.
	out2, _ := runTool(t, "schedrun", "-instance", inst, "-algo", "ILS", "-gantt=false")
	line := func(s string) string {
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "ILS") {
				return strings.Fields(l)[1] // makespan column
			}
		}
		return ""
	}
	if line(out) == "" || line(out) != line(out2) {
		t.Fatalf("instance replay differs: %q vs %q", line(out), line(out2))
	}

	// schedrun -list names every algorithm.
	names, _ := runTool(t, "schedrun", "-list")
	for _, want := range []string{"ILS", "HEFT", "GA", "C-HEFT"} {
		if !strings.Contains(names, want) {
			t.Fatalf("-list missing %s:\n%s", want, names)
		}
	}

	// schedviz: PNG + SVG rendering.
	png := filepath.Join(dir, "v.png")
	runTool(t, "schedviz", "-graph", graph, "-png", png, "-procs", "3")
	if data, err := os.ReadFile(png); err != nil || len(data) < 8 || string(data[1:4]) != "PNG" {
		t.Fatalf("schedviz PNG broken: %v", err)
	}

	// schedbench: one quick experiment renders a markdown table.
	bench, _ := runTool(t, "schedbench", "-exp", "E1", "-quick", "-reps", "3")
	if !strings.Contains(bench, "### E1") || !strings.Contains(bench, "| n |") {
		t.Fatalf("schedbench output:\n%s", bench)
	}

	// schedgen DAX import round trip.
	dax := filepath.Join(dir, "w.dax")
	daxContent := `<adag name="w"><job id="a" runtime="2"/><job id="b" runtime="3"/>
	  <child ref="b"><parent ref="a"/></child></adag>`
	if err := os.WriteFile(dax, []byte(daxContent), 0o644); err != nil {
		t.Fatal(err)
	}
	daxJSON := filepath.Join(dir, "w.json")
	_, errOut = runTool(t, "schedgen", "-dax", dax, "-o", daxJSON)
	if !strings.Contains(errOut, "generated w: 2 tasks") {
		t.Fatalf("DAX import: %s", errOut)
	}
}

// TestExamplesRun builds every program under examples/ once and runs it:
// each must exit 0 and print something.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke tests compile binaries")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("go build ./examples/... produced no binary")
	}
	for _, b := range bins {
		var out, errb strings.Builder
		cmd := exec.Command(filepath.Join(dir, b.Name()))
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Errorf("example %s: %v\nstderr: %s", b.Name(), err, errb.String())
		} else if out.Len() == 0 {
			t.Errorf("example %s printed nothing", b.Name())
		}
	}
}
