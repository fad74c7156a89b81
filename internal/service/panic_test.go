package service

import (
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestInstrumentRecoversPanic pins the middleware contract: a panicking
// handler yields a clean 500 carrying the request ID, the connection
// survives, and the panic is counted in the metrics.
func TestInstrumentRecoversPanic(t *testing.T) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)
	s := New(Options{CacheSize: -1})
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	id := rec.Header().Get("X-Request-ID")
	if id == "" {
		t.Fatal("no X-Request-ID header")
	}
	if !strings.Contains(rec.Body.String(), id) {
		t.Fatalf("500 body %q does not carry request ID %q", rec.Body.String(), id)
	}
	snap := s.met.Snapshot(0, 0, 0, 0, 0, 0, 0, "", nil, ClusterJSON{})
	if snap.Requests.Panics != 1 {
		t.Fatalf("panics = %d, want 1", snap.Requests.Panics)
	}
	if snap.Requests.ByStatus["500"] != 1 {
		t.Fatalf("byStatus = %v, want one 500", snap.Requests.ByStatus)
	}
}

// TestInstrumentPanicAfterWrite covers the half-written case: once the
// handler has started the response, the recovery must not inject a
// second status line; the panic is still logged and counted.
func TestInstrumentPanicAfterWrite(t *testing.T) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	defer log.SetOutput(prev)
	s := New(Options{CacheSize: -1})
	h := s.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("partial"))
		panic("late boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status rewritten to %d after partial write", rec.Code)
	}
	if got := rec.Body.String(); got != "partial" {
		t.Fatalf("body %q, want the partial write only", got)
	}
	if snap := s.met.Snapshot(0, 0, 0, 0, 0, 0, 0, "", nil, ClusterJSON{}); snap.Requests.Panics != 1 {
		t.Fatalf("panics = %d, want 1", snap.Requests.Panics)
	}
}

// TestWriteJSONAnswerWithoutJSONForm: writeJSON encodes an answer before
// it writes the status, so one holding +Inf is a 500 with an error body
// and its Content-Length, not an empty body under the intended status.
func TestWriteJSONAnswerWithoutJSONForm(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ScheduleResponse{Algorithm: "HEFT", Makespan: math.Inf(1)})
	const want = `{"error":"encoding response: json: unsupported value: +Inf"}` + "\n"
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != want || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("HTTP %d, Content-Length %s, body %q; want 500 with %q", rec.Code, rec.Header().Get("Content-Length"), rec.Body.String(), want)
	}
}
