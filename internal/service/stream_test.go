package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dagsched/internal/algo"
	"dagsched/internal/algo/suite"
	"dagsched/internal/dag"
	"dagsched/internal/service"
	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// streamTestDAG is a small two-join DAG with non-trivial communication,
// shared by the streaming-endpoint tests: the task weights, and edges as
// (from, to, data) triples with from < to.
var streamTestWeights = []float64{2, 3, 3, 4, 5, 4, 4, 1}

var streamTestEdges = [][3]float64{
	{0, 1, 4}, {0, 2, 1}, {0, 3, 1}, {1, 4, 1}, {2, 4, 1}, {2, 5, 2},
	{3, 5, 3}, {4, 6, 5}, {5, 6, 4}, {4, 7, 2}, {5, 7, 1},
}

// streamTestEvents renders the shared DAG as an NDJSON event log opened
// by the given config line: tasks in id order, every edge right after
// its head, a trailing seal.
func streamTestEvents(t *testing.T, config string) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(config)
	sb.WriteString("\n")
	for id, w := range streamTestWeights {
		fmt.Fprintf(&sb, `{"op":"addTask","id":%d,"weight":%g}`+"\n", id, w)
		for _, e := range streamTestEdges {
			if int(e[1]) == id {
				fmt.Fprintf(&sb, `{"op":"addEdge","from":%d,"to":%d,"data":%g}`+"\n", int(e[0]), int(e[1]), e[2])
			}
		}
	}
	sb.WriteString(`{"op":"seal"}` + "\n")
	return sb.String()
}

// streamTestGraphJSON renders the same DAG in the static graph wire
// form for /v1/schedule.
func streamTestGraphJSON(t *testing.T) json.RawMessage {
	t.Helper()
	b := dag.NewBuilder("stream-test")
	for id, w := range streamTestWeights {
		b.AddTask(fmt.Sprintf("t%d", id), w)
	}
	for _, e := range streamTestEdges {
		b.AddEdge(dag.TaskID(e[0]), dag.TaskID(e[1]), e[2])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// deltaLine is the response-side view of one stream delta.
type deltaLine struct {
	Seq       int     `json:"seq"`
	Replanned int     `json:"replanned"`
	Makespan  float64 `json:"makespan"`
	Sealed    bool    `json:"sealed"`
	Placed    []struct {
		Task   int     `json:"task"`
		Proc   int     `json:"proc"`
		Start  float64 `json:"start"`
		Finish float64 `json:"finish"`
	} `json:"placed"`
	Error string `json:"error"`
}

// postStream POSTs an NDJSON event log and decodes every response line.
func postStream(t *testing.T, baseURL, body string) (int, []deltaLine) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/schedule/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Error responses are one indented JSON object, not NDJSON.
		var e deltaLine
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decoding error body (status %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, []deltaLine{e}
	}
	var lines []deltaLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var d deltaLine
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		lines = append(lines, d)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, lines
}

// TestStreamEndpointMatchesStatic streams the shared DAG event by event
// and checks the sealed schedule against the static /v1/schedule answer
// for the same graph on the same platform: identical makespan, full
// final assignment list, and intermediate deltas along the way.
func TestStreamEndpointMatchesStatic(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 2, QueueDepth: 16, CacheSize: -1})

	body := streamTestEvents(t,
		`{"op":"config","algorithm":"HEFT","processors":3,"batchSize":3,"finalAssignments":true}`)
	status, lines := postStream(t, c.BaseURL, body)
	if status != http.StatusOK {
		t.Fatalf("stream status %d, lines %+v", status, lines)
	}
	if len(lines) < 2 {
		t.Fatalf("got %d deltas, want at least an intermediate and the sealed one", len(lines))
	}
	last := lines[len(lines)-1]
	if !last.Sealed || last.Error != "" {
		t.Fatalf("last line not a clean sealed delta: %+v", last)
	}
	if len(last.Placed) != len(streamTestWeights) {
		t.Fatalf("sealed delta carries %d assignments, want %d (finalAssignments)", len(last.Placed), len(streamTestWeights))
	}
	for _, l := range lines[:len(lines)-1] {
		if l.Sealed || l.Error != "" {
			t.Fatalf("intermediate line %+v sealed or errored", l)
		}
	}

	static, err := c.Schedule(context.Background(), service.ScheduleRequest{
		Algorithm: "HEFT", Graph: streamTestGraphJSON(t), Processors: 3,
	})
	if err != nil {
		t.Fatalf("static schedule: %v", err)
	}
	if last.Makespan != static.Makespan {
		t.Fatalf("sealed stream makespan %v != static %v", last.Makespan, static.Makespan)
	}

	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.Stream.Sessions < 1 || snap.Stream.Sealed < 1 {
		t.Errorf("stream metrics: sessions=%d sealed=%d, want >= 1", snap.Stream.Sessions, snap.Stream.Sealed)
	}
	if snap.Stream.Deltas < int64(len(lines)) {
		t.Errorf("stream metrics: deltas=%d, want >= %d", snap.Stream.Deltas, len(lines))
	}
}

// TestStreamEndpointValidation drives malformed sessions through the
// endpoint: each must answer 400 (the error precedes any delta) with a
// diagnostic, and the server must keep serving afterwards.
func TestStreamEndpointValidation(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 2, QueueDepth: 16, CacheSize: -1})
	cases := []struct {
		name, body, want string
	}{
		{"empty", "", "config event"},
		{"no config first", `{"op":"addTask","id":0,"weight":1}`, "first event must be"},
		{"malformed json", `{"op":"config"}` + "\n" + `{"op":`, "bad event"},
		{"unknown op", `{"op":"config"}` + "\n" + `{"op":"bogus"}`, "unknown op"},
		{"unknown algorithm", `{"op":"config","algorithm":"NOPE"}`, "unsupported algorithm"},
		{"bad priority", `{"op":"config","priority":"urgent"}`, "unknown priority"},
		{"too many processors", `{"op":"config","processors":100000}`, "processors"},
		{"duplicate task id", `{"op":"config"}` + "\n" + `{"op":"addTask","id":0,"weight":1}` + "\n" + `{"op":"addTask","id":0,"weight":1}`, "out of order"},
		{"cycle edge", `{"op":"config"}` + "\n" +
			`{"op":"addTask","id":0,"weight":1}` + "\n" + `{"op":"addTask","id":1,"weight":1}` + "\n" +
			`{"op":"addEdge","from":0,"to":1}` + "\n" + `{"op":"addEdge","from":1,"to":0}`, "cycle"},
		{"config repeated", `{"op":"config"}` + "\n" + `{"op":"config"}`, "config event after"},
		{"no seal", `{"op":"config"}` + "\n" + `{"op":"addTask","id":0,"weight":1}`, "without a seal"},
		{"seal empty", `{"op":"config"}` + "\n" + `{"op":"seal"}`, "empty stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(c.BaseURL+"/v1/schedule/stream", "application/x-ndjson", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("decoding error body: %v", err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d (error %q), want 400", resp.StatusCode, e.Error)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
	// The validation storm must not have wedged a worker: a clean
	// session still completes.
	status, lines := postStream(t, c.BaseURL,
		streamTestEvents(t, `{"op":"config","algorithm":"HEFT","processors":2}`))
	if status != http.StatusOK || len(lines) == 0 || !lines[len(lines)-1].Sealed {
		t.Fatalf("post-storm session: status %d lines %+v", status, lines)
	}
}

// TestStreamEndpointInBandError pins the committed-response error path:
// once deltas have streamed (status 200 is on the wire), a later invalid
// event must arrive as a terminal in-band error line, and the partial
// delta stream before it must be intact.
func TestStreamEndpointInBandError(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 2, QueueDepth: 16, CacheSize: -1})
	body := `{"op":"config","algorithm":"HEFT","processors":2,"batchSize":1}` + "\n" +
		`{"op":"addTask","id":0,"weight":1}` + "\n" +
		`{"op":"addTask","id":1,"weight":2}` + "\n" + // auto-flush emits a delta here
		`{"op":"addTask","id":1,"weight":3}` + "\n" + // duplicate id: the in-band error
		`{"op":"seal"}`
	status, lines := postStream(t, c.BaseURL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 (the stream had already started)", status)
	}
	if len(lines) < 2 {
		t.Fatalf("got %d lines, want at least one delta and the error line", len(lines))
	}
	last := lines[len(lines)-1]
	if last.Error == "" || !strings.Contains(last.Error, "out of order") {
		t.Fatalf("terminal line %+v is not the duplicate-id error", last)
	}
	for _, l := range lines[:len(lines)-1] {
		if l.Error != "" || l.Sealed {
			t.Fatalf("delta line %+v corrupted by the failure", l)
		}
	}
}

// TestLowPrioritySheds pins the two-level load shedding: with the
// worker busy and the queue at the shed watermark, a low-priority
// request (single and streaming) answers 503 shed — counted in
// /metrics — while normal traffic still queues; an idle server serves
// low priority normally.
func TestLowPrioritySheds(t *testing.T) {
	slow := &slowAlg{name: "slow", delay: 600 * time.Millisecond}
	_, c := startServer(t, service.Options{
		Workers: 1, QueueDepth: 8, ShedWatermark: 1, CacheSize: -1,
		Resolver: func(name string) (algo.Algorithm, error) {
			if name == "slow" {
				return slow, nil
			}
			return suite.ByName(name)
		},
	})

	graphFor := func(width int) json.RawMessage {
		g, err := workload.ForkJoin(width, 2)
		if err != nil {
			t.Fatalf("ForkJoin: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}

	var wg sync.WaitGroup
	for i, g := range []json.RawMessage{graphFor(3), graphFor(4)} {
		wg.Add(1)
		go func(i int, g json.RawMessage) {
			defer wg.Done()
			if _, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "slow", Graph: g}); err != nil {
				t.Errorf("normal request %d: %v", i, err)
			}
		}(i, g)
		// The first occupies the lone worker before the second enqueues,
		// so the queue sits at the watermark when the low-priority
		// traffic arrives.
		time.Sleep(100 * time.Millisecond)
	}

	_, err := c.Schedule(context.Background(), service.ScheduleRequest{
		Algorithm: "HEFT", Graph: graphFor(5), Priority: "low",
	})
	if err == nil || !strings.Contains(err.Error(), "HTTP 503") || !strings.Contains(err.Error(), "shed") {
		t.Errorf("low-priority request under load: want 503 shed, got %v", err)
	}
	resp, perr := http.Post(c.BaseURL+"/v1/schedule/stream", "application/x-ndjson",
		strings.NewReader(streamTestEvents(t, `{"op":"config","priority":"low"}`)))
	if perr != nil {
		t.Fatalf("POST stream: %v", perr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("low-priority stream under load: status %d, want 503", resp.StatusCode)
	}

	// An invalid class is a 400, not a silent default.
	_, err = c.Schedule(context.Background(), service.ScheduleRequest{
		Algorithm: "HEFT", Graph: graphFor(5), Priority: "urgent",
	})
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("bogus priority: want 400, got %v", err)
	}

	wg.Wait()
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.Requests.Shed < 2 {
		t.Errorf("requests.shed = %d, want >= 2 (single + stream)", snap.Requests.Shed)
	}

	// Idle again: low priority is served, not shed.
	r, err := c.Schedule(context.Background(), service.ScheduleRequest{
		Algorithm: "HEFT", Graph: graphFor(5), Priority: "low",
	})
	if err != nil || r.Makespan <= 0 {
		t.Errorf("low-priority request on idle server: resp %+v err %v", r, err)
	}
}

// TestBatchNDJSONStreamsPerItem pins the streamed batch mode: with
// "Accept: application/x-ndjson" each item result arrives as its own
// flushed JSON line in completion order — the fast item's line is
// readable while the slow item is still running — closed by a summary
// trailer.
func TestBatchNDJSONStreamsPerItem(t *testing.T) {
	slow := &slowAlg{name: "slow", delay: 800 * time.Millisecond}
	_, c := startServer(t, service.Options{
		Workers: 2, QueueDepth: 16, CacheSize: -1,
		Resolver: func(name string) (algo.Algorithm, error) {
			if name == "slow" {
				return slow, nil
			}
			return suite.ByName(name)
		},
	})
	inst := instanceJSON(t, testfix.Topcuoglu())
	breq, err := json.Marshal(service.BatchRequest{Items: []service.ScheduleRequest{
		{Algorithm: "slow", Instance: inst},
		{Algorithm: "HEFT", Instance: inst},
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/schedule/batch", bytes.NewReader(breq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first service.BatchItemResult
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	// The fast item's line must be on the wire while the slow item is
	// still inside its delay: per-item flushing, not a buffered dump.
	if n := slow.completions.Load(); n != 0 {
		t.Errorf("first line arrived after the slow item completed (%d completions): no per-item flush", n)
	}
	if first.Index != 1 || first.Status != http.StatusOK {
		t.Errorf("first line = %+v, want the fast item (index 1, 200)", first)
	}

	if !sc.Scan() {
		t.Fatalf("no second line: %v", sc.Err())
	}
	var second service.BatchItemResult
	if err := json.Unmarshal(sc.Bytes(), &second); err != nil {
		t.Fatalf("second line %q: %v", sc.Text(), err)
	}
	if second.Index != 0 || second.Status != http.StatusOK {
		t.Errorf("second line = %+v, want the slow item (index 0, 200)", second)
	}
	if !sc.Scan() {
		t.Fatalf("no trailer line: %v", sc.Err())
	}
	var trailer struct {
		Succeeded int `json:"succeeded"`
		Failed    int `json:"failed"`
	}
	if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
		t.Fatalf("trailer %q: %v", sc.Text(), err)
	}
	if trailer.Succeeded != 2 || trailer.Failed != 0 {
		t.Errorf("trailer = %+v, want succeeded=2 failed=0", trailer)
	}
	if sc.Scan() {
		t.Errorf("unexpected extra line %q", sc.Text())
	}
}

// TestStreamRefusesOverflow: a session refuses the event after which a
// schedule could overflow float64, before it is applied, with the
// reason /v1/schedule gives. Here the second task's auto-flush would
// have sent a delta whose successor cannot be encoded; instead the
// session answers 400 naming event 3, and sends no delta.
func TestStreamRefusesOverflow(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1, QueueDepth: 4, CacheSize: -1})
	body := `{"op":"config","algorithm":"HEFT","processors":1,"batchSize":1}` + "\n" +
		`{"op":"addTask","id":0,"weight":1.7e308}` + "\n" +
		`{"op":"addTask","id":1,"weight":1.7e308}` + "\n" +
		`{"op":"addEdge","from":0,"to":1}` + "\n" +
		`{"op":"seal"}` + "\n"
	status, lines := postStream(t, c.BaseURL, body)
	if status != http.StatusBadRequest || len(lines) != 1 {
		t.Fatalf("status %d with %d lines %+v, want one 400 error body", status, len(lines), lines)
	}
	if e := lines[0].Error; !strings.Contains(e, "event 3") || !strings.Contains(e, "costs too large") {
		t.Errorf("error %q does not name event 3 and \"costs too large\"", e)
	}
}
