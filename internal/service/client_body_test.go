package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dagsched/internal/service"
)

// recordingServer answers every request with answer and keeps the
// bodies it was sent.
type recordingServer struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (r *recordingServer) start(t *testing.T, answer string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b, err := io.ReadAll(req.Body)
		if err != nil {
			t.Error(err)
		}
		r.mu.Lock()
		r.bodies = append(r.bodies, b)
		r.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, answer)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func (r *recordingServer) sent() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.bodies...)
}

// TestClientSendsRawAsGiven: Schedule and ScheduleBatch send a raw
// instance or graph byte for byte (whitespace, "<", "&" and U+2028
// included), and refuse one that is not valid JSON before anything is
// sent.
func TestClientSendsRawAsGiven(t *testing.T) {
	graph := json.RawMessage("{\n  \"tasks\": [{\"id\": 0, \"name\": \"a<b&c\u2028\", \"weight\": 1}],\n  \"edges\": []\n}")
	inst := json.RawMessage(` {"graph":{"tasks":[{"id":0,"weight":1}],"edges":[]},"system":{"speeds":[1]}} `)

	var one recordingServer
	c := &service.Client{BaseURL: one.start(t, `{"algorithm":"HEFT","makespan":1,"assignments":[]}`)}
	ctx := context.Background()
	if _, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT", Graph: graph, Processors: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT", Instance: inst}); err != nil {
		t.Fatal(err)
	}
	var batch recordingServer
	bc := &service.Client{BaseURL: batch.start(t, `{"items":[],"succeeded":0,"failed":0}`)}
	if _, err := bc.ScheduleBatch(ctx, service.BatchRequest{Items: []service.ScheduleRequest{
		{Algorithm: "HEFT", Graph: graph}, {Algorithm: "CPOP", Instance: inst},
	}}); err != nil {
		t.Fatal(err)
	}
	sent := append(one.sent(), batch.sent()...)
	if len(sent) != 3 {
		t.Fatalf("the servers saw %d requests, want 3", len(sent))
	}
	for i, raw := range [][]json.RawMessage{{graph}, {inst}, {graph, inst}} {
		if !json.Valid(sent[i]) {
			t.Errorf("request %d sent invalid JSON: %s", i, sent[i])
		}
		for _, r := range raw {
			if !bytes.Contains(sent[i], r) {
				t.Errorf("request %d sent\n%s\nwithout the raw field as given:\n%s", i, sent[i], r)
			}
		}
	}
	var items struct{ Items []service.ScheduleRequest }
	if err := json.Unmarshal(sent[2], &items); err != nil || len(items.Items) != 2 || items.Items[1].Algorithm != "CPOP" {
		t.Errorf("the batch body %s decodes to %+v (%v)", sent[2], items, err)
	}

	for _, bad := range []string{`{"tasks":`, `{} trailing`, ` `, `{"a":1}}`} {
		_, err := c.Schedule(ctx, service.ScheduleRequest{Algorithm: "HEFT", Graph: json.RawMessage(bad)})
		if err == nil || !strings.HasPrefix(err.Error(), "service: encoding request: ") {
			t.Errorf("graph %q: Schedule returned %v, want an encoding error", bad, err)
		}
		_, err = bc.ScheduleBatch(ctx, service.BatchRequest{Items: []service.ScheduleRequest{
			{Algorithm: "HEFT", Graph: graph}, {Algorithm: "HEFT", Instance: json.RawMessage(bad)},
		}})
		if err == nil || !strings.HasPrefix(err.Error(), "service: encoding batch: ") {
			t.Errorf("instance %q: ScheduleBatch returned %v, want an encoding error", bad, err)
		}
	}
	if n := len(one.sent()) + len(batch.sent()); n != 3 {
		t.Errorf("invalid raw fields reached the servers: %d requests, want 3", n)
	}
}

// TestClientAnswerTrailingBytes: an answer with bytes after its JSON
// value decodes to that value, as a json.Decoder reads it.
func TestClientAnswerTrailingBytes(t *testing.T) {
	var srv recordingServer
	c := &service.Client{BaseURL: srv.start(t, `{"algorithm":"HEFT","makespan":7,"cached":true,"assignments":[{"task":0,"proc":1,"start":0,"finish":7}]}`+"\n{\"makespan\":9} trailing")}
	resp, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "HEFT", Graph: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != 7 || !resp.Cached || len(resp.Assignments) != 1 || resp.Assignments[0].Proc != 1 {
		t.Errorf("decoded %+v, want the first value", resp)
	}
}

// TestAnswerThatDoesNotEncode: a schedule whose finish times could
// overflow to +Inf would have no JSON form, so schedd refuses its
// instance at admission: a 400 with the reason and its Content-Length,
// on the miss and on the repeat, with nothing cached, and the Go client
// returns that message as a *StatusError.
func TestAnswerThatDoesNotEncode(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	graph := `{"tasks":[{"id":0,"weight":1.7e308},{"id":1,"weight":1.7e308}],"edges":[{"from":0,"to":1,"data":0}]}`
	body := `{"algorithm":"HEFT","graph":` + graph + `,"processors":1}`
	const want = "costs too large: a schedule could overflow float64 (with P = 1, P·(Σ largest task cost + Σ largest transfer cost) is +Inf)"
	for _, what := range []string{"miss", "repeat"} {
		hr, err := http.Post(c.BaseURL+"/v1/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(hr.Body)
		hr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		if hr.StatusCode != http.StatusBadRequest || hr.ContentLength != int64(len(got)) ||
			json.Unmarshal(got, &e) != nil || e.Error != want {
			t.Errorf("%s: HTTP %d, Content-Length %d, body %q; want 400 with error %q", what, hr.StatusCode, hr.ContentLength, got, want)
		}
	}
	_, err := c.Schedule(context.Background(), service.ScheduleRequest{Algorithm: "HEFT", Graph: json.RawMessage(graph), Processors: 1})
	var se *service.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || se.Message != want {
		t.Errorf("Schedule returned %v, want a *StatusError 400 with %q", err, want)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Size != 0 || m.Cache.BodyDigests != 0 || m.Cache.Tier.Miss != 0 {
		t.Errorf("cache size %d, body digests %d, misses computed %d; want nothing cached or computed", m.Cache.Size, m.Cache.BodyDigests, m.Cache.Tier.Miss)
	}
}
