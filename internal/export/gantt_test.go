package export

import (
	"bytes"
	"strings"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/sched"
	"dagsched/internal/testfix"
)

func heftSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	s, err := listsched.HEFT{}.Schedule(testfix.Topcuoglu())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGanttText(t *testing.T) {
	s := heftSchedule(t)
	var buf bytes.Buffer
	if err := WriteGanttText(&buf, s, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"HEFT", "makespan=80", "P0", "P1", "P2", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Tiny width falls back to the default.
	buf.Reset()
	if err := WriteGanttText(&buf, s, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "P2") {
		t.Fatal("fallback width failed")
	}
}

func TestGanttTextShowsDuplicates(t *testing.T) {
	s, err := listsched.BTDH{}.Schedule(testfix.Topcuoglu())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGanttText(&buf, s, 80); err != nil {
		t.Fatal(err)
	}
	if s.NumDuplicates() > 0 && !strings.Contains(buf.String(), "+") {
		t.Fatal("duplicates not marked with +")
	}
}

func TestGanttSVG(t *testing.T) {
	s := heftSchedule(t)
	var buf bytes.Buffer
	if err := WriteGanttSVG(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "makespan 80", "<rect", "P2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in SVG", want)
		}
	}
	// One rect per copy plus one lane background per processor.
	rects := strings.Count(out, "<rect")
	if rects != s.NumCopies()+s.Instance().P() {
		t.Fatalf("rects = %d, want %d", rects, s.NumCopies()+s.Instance().P())
	}
}

func TestNiceStep(t *testing.T) {
	cases := map[float64]float64{
		8:    1,
		30:   5,
		100:  10,
		900:  100,
		2400: 200,
	}
	for span, want := range cases {
		if got := niceStep(span); got != want {
			t.Fatalf("niceStep(%g) = %g, want %g", span, got, want)
		}
	}
}
