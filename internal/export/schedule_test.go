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
	if decoded["makespan"].(float64) != 80 {
		t.Fatalf("makespan = %v", decoded["makespan"])
	}
	if n := len(decoded["assignments"].([]any)); n != 10 {
		t.Fatalf("assignments = %d, want 10", n)
	}
}

func TestReadScheduleSummary(t *testing.T) {
	s := heftSchedule(t)
	var buf bytes.Buffer
	if err := WriteScheduleJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	alg, ms, procs, copies, err := ReadScheduleSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if alg != "HEFT" || ms != 80 || procs != 3 || copies != 10 {
		t.Fatalf("summary = %s/%g/%d/%d", alg, ms, procs, copies)
	}
	if _, _, _, _, err := ReadScheduleSummary(strings.NewReader(`{`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, _, _, _, err := ReadScheduleSummary(strings.NewReader(`{"algorithm":"","processors":0}`)); err == nil {
		t.Fatal("implausible header accepted")
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
	for lane := 0; lane < 3; lane++ {
		if !TraceContainsLane(out, lane) {
			t.Fatalf("lane %d missing from trace", lane)
		}
	}
	if s.NumDuplicates() > 0 && !strings.Contains(out, `"cat": "duplicate"`) {
		t.Fatal("duplicate category missing")
	}
}
