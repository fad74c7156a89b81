package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"dagsched/internal/testfix"
	"dagsched/internal/workload"
)

// poolShapes returns the raw problems of perfbench's two service
// request shapes, compact: a heterogeneous n=100, P=8 instance (HEFT)
// and a bare n=100 graph (HLFET on 32 processors).
func poolShapes(tb testing.TB) (inst, graph []byte) {
	tb.Helper()
	return shapesOf(tb, 100)
}

// shapesOf returns the pool's two raw problems at n tasks.
func shapesOf(tb testing.TB, n int) (inst, graph []byte) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := workload.Random(workload.RandomConfig{N: n, Shape: 1}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := workload.MakeInstance(g, workload.HetConfig{Procs: 8, CCR: 1, Beta: 1, LinkSpread: 0.5}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	var ib, gb bytes.Buffer
	if err := in.WriteJSON(&ib); err != nil {
		tb.Fatal(err)
	}
	if g, err = workload.Random(workload.RandomConfig{N: n, Shape: 3}, rng); err != nil {
		tb.Fatal(err)
	}
	if err := g.WriteJSON(&gb); err != nil {
		tb.Fatal(err)
	}
	compact := func(src []byte) []byte {
		var out bytes.Buffer
		if err := json.Compact(&out, src); err != nil {
			tb.Fatal(err)
		}
		return out.Bytes()
	}
	return compact(ib.Bytes()), compact(gb.Bytes())
}

// answerBytes posts body to base twice and returns schedd's two
// answers: the miss, which computed, and the hit, which the body's
// digest answered.
func answerBytes(tb testing.TB, base string, body []byte) (miss, hit []byte) {
	tb.Helper()
	_, miss = roundTrip(tb, http.MethodPost, base+"/v1/schedule", body)
	_, hit = roundTrip(tb, http.MethodPost, base+"/v1/schedule", body)
	return miss, hit
}

// TestValidJSONEdges: validJSON agrees with json.Valid at the edges of
// the grammar and of the nesting limit.
func TestValidJSONEdges(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, b := range []string{
		``, ` `, `0`, `-0`, `-`, `01`, `1.`, `1.5`, `1e+`, `1e+5`, `1E-05`, `.5`, `+1`, `0x1`,
		`tru`, `true`, `truex`, `false`, `null`, `nul`, `True`,
		`""`, `"a`, `"\u12G4"`, `"ኤ"`, `"\u12a"`, `"\x"`, `"\/"`, "\"a\x01b\"", "\"a\x7fb\"", "\"\xff\xfe\"",
		`[]`, `[1,]`, `[,1]`, `[1 2]`, `{}`, `{"a":1}`, `{"a":1,}`, `{"a" 1}`, `{1:1}`, `{"a":1}}`, `[}`, `{]`,
		" \t\r\n{} \n", `{} x`, `{}{}`, `[[],{}]`, `{"a":[{"b":[]}],"c":{}}`,
		nest(64), nest(65), nest(maxNesting), nest(maxNesting + 1), "[" + nest(maxNesting),
		strings.Repeat(`{"a":`, maxNesting) + `1` + strings.Repeat(`}`, maxNesting),
		strings.Repeat(`{"a":`, maxNesting+1) + `1` + strings.Repeat(`}`, maxNesting+1),
	} {
		if got, want := validJSON([]byte(b)), json.Valid([]byte(b)); got != want {
			q := b
			if len(q) > 40 {
				q = q[:40] + "…"
			}
			t.Errorf("validJSON(%q) = %v, json.Valid %v", q, got, want)
		}
	}
}

// TestAnswersTakeTheScanner: schedd's answers decode on decodeAnswer's
// own path, with no fallback to encoding/json, to the value
// json.Unmarshal gives: the miss and the hit bytes of HEFT on the pool's
// instance, HLFET on its graph and ILS with duplicated tasks, and the
// replica PUT body of each compute. A change to the answer's encoding
// that sends schedd's answers to encoding/json fails here.
func TestAnswersTakeTheScanner(t *testing.T) {
	rec := &putRecorder{}
	nodes := []*Server{New(Options{Addr: "127.0.0.1:0", Workers: 1}), New(Options{Addr: "127.0.0.1:0", Workers: 1})}
	nodes[0].peerClient = &http.Client{Transport: rec}
	urls := []string{startInternal(t, nodes[0]), startInternal(t, nodes[1])}
	for i, s := range nodes {
		if err := s.ConfigurePeers(urls[i], urls); err != nil {
			t.Fatal(err)
		}
	}
	var answers [][]byte
	for _, req := range requestShapes(t) {
		miss, hit := answerBytes(t, urls[0], clientBody(t, req))
		answers = append(answers, miss, hit)
	}
	// Each compute pushes its entry to the other node.
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.bodies()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d replica PUTs after three computes, want 3", len(rec.bodies()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	answers = append(answers, rec.bodies()...)
	dups := 0
	for i, b := range answers {
		var got, want ScheduleResponse
		if !decodeAnswer(b, &got) {
			t.Errorf("answer %d went to encoding/json:\n%.300s", i, b)
			continue
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		gj, _ := json.Marshal(&got)
		wj, _ := json.Marshal(&want)
		if !reflect.DeepEqual(got, want) || !bytes.Equal(gj, wj) {
			t.Errorf("answer %d decodes to\n%s\njson.Unmarshal gives\n%s", i, gj, wj)
		}
		if len(got.Assignments) == 0 {
			t.Errorf("answer %d has no assignments", i)
		}
		for _, a := range got.Assignments {
			if a.Dup {
				dups++
			}
		}
	}
	if dups == 0 {
		t.Error("no answer held a duplicated task")
	}
}

// requestShapes returns the three request shapes the server's decoder
// is held to: HEFT on the pool's heterogeneous instance, HLFET on its
// bare graph over 32 processors, and ILS on Topcuoglu's instance as
// Instance.WriteJSON indents it.
func requestShapes(tb testing.TB) []ScheduleRequest {
	tb.Helper()
	inst, graph := poolShapes(tb)
	var top bytes.Buffer
	if err := testfix.Topcuoglu().WriteJSON(&top); err != nil {
		tb.Fatal(err)
	}
	return []ScheduleRequest{
		{Algorithm: "HEFT", Instance: inst},
		{Algorithm: "HLFET", Graph: graph, Processors: 32},
		{Algorithm: "ILS", Instance: top.Bytes()},
	}
}

// clientBody is the body the Go client sends for req.
func clientBody(tb testing.TB, req ScheduleRequest) []byte {
	tb.Helper()
	body, err := appendRequest(nil, &req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestRequestsTakeTheScanner: the client's bodies for the three request
// shapes decode on decodeRequest's own path, with no fallback to
// encoding/json, to the value json.Unmarshal gives, bit for bit, and
// resolve to the cache key of encoding/json's decode. A change to the
// client's encoding that sends its requests to encoding/json fails here.
func TestRequestsTakeTheScanner(t *testing.T) {
	s := New(Options{CacheSize: -1})
	key := func(w *scheduleWire) string {
		_, in, err := s.resolveRequest(w)
		if err != nil {
			t.Fatal(err)
		}
		k, err := cacheKey(in, w.Algorithm, w.Analyze, w.LinkBandwidth, w.Faults)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for _, req := range requestShapes(t) {
		body := clientBody(t, req)
		var got, want scheduleWire
		if !decodeRequest(body, &got) {
			t.Errorf("%s's request went to encoding/json:\n%.300s", req.Algorithm, body)
			continue
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%s: %v", req.Algorithm, err)
		}
		if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%s's request decodes to\n%+v\njson.Unmarshal gives\n%+v", req.Algorithm, got, want)
		}
		if gk, wk := key(&got), key(&want); gk != wk {
			t.Errorf("%s's request keys %s, encoding/json's decode %s", req.Algorithm, gk, wk)
		}
	}
}

// TestBatchItemsDecodeAsRequests: a batch of the three request shapes
// answers each item as /v1/schedule answers it alone, and so does a
// fourth item whose case-folded key the scanner declines, which
// encoding/json decodes.
func TestBatchItemsDecodeAsRequests(t *testing.T) {
	base := startInternal(t, New(Options{Addr: "127.0.0.1:0", Workers: 1, CacheSize: -1}))
	var items [][]byte
	for _, req := range requestShapes(t) {
		items = append(items, clientBody(t, req))
	}
	folded := bytes.Replace(items[1], []byte(`"algorithm"`), []byte(`"Algorithm"`), 1)
	if decodeRequest(folded, new(scheduleWire)) {
		t.Fatal("the scanner took a case-folded key")
	}
	items = append(items, folded)
	_, raw := roundTrip(t, http.MethodPost, base+"/v1/schedule/batch",
		[]byte(`{"items":[`+string(bytes.Join(items, []byte(",")))+`]}`))
	var batch BatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != len(items) || batch.Failed != 0 {
		t.Fatalf("batch of %d answered %d items, %d failed: %s", len(items), len(batch.Items), batch.Failed, raw)
	}
	for i, item := range items {
		_, one := roundTrip(t, http.MethodPost, base+"/v1/schedule", item)
		var want ScheduleResponse
		if err := json.Unmarshal(one, &want); err != nil {
			t.Fatal(err)
		}
		got := batch.Items[i].Response
		if got == nil {
			t.Fatalf("item %d: %+v", i, batch.Items[i])
		}
		// The folded item is the graph's problem, so one of the two may
		// join the other's computation.
		got.RuntimeMs, want.RuntimeMs, got.Coalesced = 0, 0, false
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("item %d answers\n%+v\nalone it answers\n%+v", i, *got, want)
		}
	}
}

// BenchmarkRequestDecode times the server's decode of the client's body
// for the pool's two request shapes, the scanner beside the
// encoding/json call it replaces.
func BenchmarkRequestDecode(b *testing.B) {
	shapes := requestShapes(b)
	for i, name := range []string{"het-instance", "homo-graph"} {
		body := clientBody(b, shapes[i])
		if !decodeRequest(body, new(scheduleWire)) {
			b.Fatalf("the %s request does not take the scanner", name)
		}
		for _, d := range []struct {
			name   string
			decode func([]byte, *scheduleWire) error
		}{
			{"scanner", func(b []byte, w *scheduleWire) error { return decodeInto(b, w) }},
			{"json.Unmarshal", func(b []byte, w *scheduleWire) error { return json.Unmarshal(b, w) }},
		} {
			b.Run(name+"/"+d.name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var w scheduleWire
					if err := d.decode(body, &w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkClientCodec times the client's two per-request codec costs
// on a cache hit, each beside the encoding/json call it replaces:
// validating the raw problem of the pool's two request shapes, and
// decoding a 100-assignment answer (HEFT on the heterogeneous
// instance). schedule-hit is a whole Client.Schedule hit on one node.
func BenchmarkClientCodec(b *testing.B) {
	inst, graph := poolShapes(b)
	for _, sh := range []struct {
		name string
		raw  []byte
	}{{"het-instance", inst}, {"homo-graph", graph}} {
		for _, v := range []struct {
			name  string
			valid func([]byte) bool
		}{{"scanner", validJSON}, {"json.Valid", json.Valid}} {
			b.Run("validate/"+sh.name+"/"+v.name, func(b *testing.B) {
				b.SetBytes(int64(len(sh.raw)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !v.valid(sh.raw) {
						b.Fatal("invalid")
					}
				}
			})
		}
	}

	s := New(Options{Addr: "127.0.0.1:0", Workers: 1})
	base := startInternal(b, s)
	_, answer := answerBytes(b, base, []byte(`{"algorithm":"HEFT","instance":`+string(inst)+`}`))
	var probe ScheduleResponse
	if !decodeAnswer(answer, &probe) || len(probe.Assignments) != 100 {
		b.Fatalf("the answer (%d assignments) does not take the scanner", len(probe.Assignments))
	}
	for _, d := range []struct {
		name   string
		decode func([]byte, *ScheduleResponse) error
	}{
		{"scanner", func(b []byte, r *ScheduleResponse) error { return decodeInto(b, r) }},
		{"json.Unmarshal", func(b []byte, r *ScheduleResponse) error { return json.Unmarshal(b, r) }},
	} {
		b.Run("decode/answer-100/"+d.name, func(b *testing.B) {
			b.SetBytes(int64(len(answer)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r ScheduleResponse
				if err := d.decode(answer, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	c := &Client{BaseURL: base}
	req := ScheduleRequest{Algorithm: "HEFT", Instance: inst}
	b.Run("schedule-hit", func(b *testing.B) {
		ctx := context.Background()
		if _, err := c.Schedule(ctx, req); err != nil { // attaches these bytes' digest to the entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Schedule(ctx, req)
			if err != nil || !resp.Cached {
				b.Fatalf("cached %v, error %v", resp != nil && resp.Cached, err)
			}
		}
	})
}
