package export

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dagsched/internal/algo/listsched"
	"dagsched/internal/testfix"
)

func TestWriteScheduleJSON(t *testing.T) {
	s := heftSchedule(t)
	var buf bytes.Buffer
	if err := WriteScheduleJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if decoded["algorithm"] != "HEFT" {
		t.Fatalf("algorithm = %v", decoded["algorithm"])
	}
	if decoded["makespan"].(float64) != 80 || decoded["processors"].(float64) != 3 {
		t.Fatalf("makespan, processors = %v, %v", decoded["makespan"], decoded["processors"])
	}
	as := decoded["assignments"].([]any)
	if len(as) != 10 {
		t.Fatalf("assignments = %d, want 10", len(as))
	}
	// One record per copy, ordered by (processor, start).
	for i := 1; i < len(as); i++ {
		a, b := as[i-1].(map[string]any), as[i].(map[string]any)
		if a["proc"].(float64) > b["proc"].(float64) || a["proc"] == b["proc"] && a["start"].(float64) > b["start"].(float64) {
			t.Fatalf("assignment %d out of (proc, start) order: %v before %v", i, a, b)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	s, err := listsched.BTDH{}.Schedule(testfix.Topcuoglu())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	events := decoded["traceEvents"].([]any)
	if len(events) != s.NumCopies() {
		t.Fatalf("events = %d, want %d", len(events), s.NumCopies())
	}
	lanes := map[float64]bool{}
	for _, ev := range events {
		lanes[ev.(map[string]any)["tid"].(float64)] = true
	}
	if len(lanes) != 3 || !lanes[0] || !lanes[1] || !lanes[2] {
		t.Fatalf("trace lanes %v, want 0, 1 and 2", lanes)
	}
	if s.NumDuplicates() > 0 && !strings.Contains(out, `"cat": "duplicate"`) {
		t.Fatal("duplicate category missing")
	}
}
