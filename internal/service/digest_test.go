package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"dagsched/internal/service"
	"dagsched/internal/testfix"
)

// answer is one raw /v1/schedule reply.
type answer struct {
	status int
	body   []byte
	header http.Header
	resp   service.ScheduleResponse // decoded when status is 200
}

// postRaw sends body as-is to base's /v1/schedule. It reports transport
// and decode failures with t.Errorf, so it may run on any goroutine.
func postRaw(t *testing.T, base string, body []byte) answer {
	t.Helper()
	hr, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", base, err)
		return answer{}
	}
	defer hr.Body.Close()
	a := answer{status: hr.StatusCode, header: hr.Header}
	if a.body, err = io.ReadAll(hr.Body); err != nil {
		t.Errorf("reading answer: %v", err)
		return a
	}
	if a.status == http.StatusOK {
		if err := json.Unmarshal(a.body, &a.resp); err != nil {
			t.Errorf("decoding answer %s: %v", a.body, err)
		}
	}
	return a
}

// mustOK is postRaw for the test goroutine, failing unless it answers 200.
func mustOK(t *testing.T, base string, body []byte) answer {
	t.Helper()
	a := postRaw(t, base, body)
	if a.status != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", base, a.status, a.body)
	}
	return a
}

func snapshot(t *testing.T, base string) *service.MetricsSnapshot {
	t.Helper()
	snap, err := fetchMetrics(base)
	if err != nil {
		t.Fatalf("metrics %s: %v", base, err)
	}
	return snap
}

// sameAnswer reports whether two answers carry the same schedule and
// options.
func sameAnswer(a, b *service.ScheduleResponse) bool {
	return a.Algorithm == b.Algorithm && a.Makespan == b.Makespan && a.SLR == b.SLR &&
		slices.Equal(a.Assignments, b.Assignments) && (a.Analysis == nil) == (b.Analysis == nil)
}

// topcuogluBody is a compact HEFT request for the Topcuoglu instance,
// with extra appended inside the top-level object.
func topcuogluBody(t *testing.T, extra string) []byte {
	t.Helper()
	var compact bytes.Buffer
	if err := json.Compact(&compact, instanceJSON(t, testfix.Topcuoglu())); err != nil {
		t.Fatal(err)
	}
	return []byte(`{"algorithm":"HEFT","instance":` + compact.String() + extra + `}`)
}

// TestDigestRepeatSkipsDecode: a repeated body is answered by its
// digest, with the bytes the full path's cache hit answers, and
// /metrics names the two digest counters.
func TestDigestRepeatSkipsDecode(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	body := topcuogluBody(t, "")

	first := mustOK(t, c.BaseURL, body)
	if first.resp.Cached {
		t.Fatal("first request answered from an empty cache")
	}
	before := snapshot(t, c.BaseURL)
	again := mustOK(t, c.BaseURL, body)
	after := snapshot(t, c.BaseURL)
	if !again.resp.Cached {
		t.Error("repeat not answered from the cache")
	}
	if d := after.Cache.BodyHits - before.Cache.BodyHits; d != 1 {
		t.Errorf("cache.bodyHits rose by %d on a repeated body, want 1", d)
	}
	if d := after.Cache.Hits - before.Cache.Hits; d != 1 {
		t.Errorf("cache.hits rose by %d on a repeated body, want 1", d)
	}
	if after.Cache.Misses != before.Cache.Misses {
		t.Errorf("cache.misses rose from %d to %d on a repeated body", before.Cache.Misses, after.Cache.Misses)
	}
	if d := after.Cache.Tier.Local - before.Cache.Tier.Local; d != 1 {
		t.Errorf("cache.tier.local rose by %d on a repeated body, want 1", d)
	}

	// The same problem in other bytes takes the full path and hits the
	// entry by its key: both hits answer the same bytes.
	variant := mustOK(t, c.BaseURL, append([]byte("\n "), body...))
	if got := snapshot(t, c.BaseURL).Cache.BodyHits; got != after.Cache.BodyHits {
		t.Errorf("a whitespace variant was answered by digest (bodyHits %d → %d)", after.Cache.BodyHits, got)
	}
	if !bytes.Equal(again.body, variant.body) {
		t.Errorf("digest hit answered\n%s\nthe key hit answered\n%s", again.body, variant.body)
	}

	// Pin the metric names.
	hr, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var raw struct {
		Cache map[string]any `json:"cache"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bodyHits", "bodyDigests"} {
		if _, ok := raw.Cache[name]; !ok {
			t.Errorf("/metrics has no cache.%s: %v", name, raw.Cache)
		}
	}
}

// TestDigestFieldVariantsStayApart: bodies that differ in one field
// never answer each other by digest, and each gets its own answer.
func TestDigestFieldVariantsStayApart(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	_, ref := startServer(t, service.Options{Workers: 1, CacheSize: -1})
	base := topcuogluBody(t, "")
	mustOK(t, c.BaseURL, base)
	mustOK(t, c.BaseURL, base)

	for _, v := range []struct{ name, from, to string }{
		{"analyze", `"algorithm":"HEFT"`, `"algorithm":"HEFT","analyze":true`},
		{"timeoutMs", `"algorithm":"HEFT"`, `"algorithm":"HEFT","timeoutMs":5000`},
		{"algorithm", `"algorithm":"HEFT"`, `"algorithm":"CPOP"`},
	} {
		body := bytes.Replace(base, []byte(v.from), []byte(v.to), 1)
		before := snapshot(t, c.BaseURL).Cache.BodyHits
		got := mustOK(t, c.BaseURL, body)
		if after := snapshot(t, c.BaseURL).Cache.BodyHits; after != before {
			t.Errorf("%s: a first %s variant was answered by another body's digest", v.name, v.name)
		}
		if want := mustOK(t, ref.BaseURL, body); !sameAnswer(&got.resp, &want.resp) {
			t.Errorf("%s: answered %s, want %s", v.name, got.body, want.body)
		}
		again := mustOK(t, c.BaseURL, body)
		if !again.resp.Cached || !sameAnswer(&again.resp, &got.resp) {
			t.Errorf("%s: the repeat answered %s, want the first answer cached", v.name, again.body)
		}
		if after := snapshot(t, c.BaseURL).Cache.BodyHits; after != before+1 {
			t.Errorf("%s: the repeat moved bodyHits %d → %d, want one more", v.name, before, after)
		}
	}
}

// TestDigestEvictedEntryRecomputes: a body whose entry was evicted
// takes the full path and recomputes, counting exactly one miss.
func TestDigestEvictedEntryRecomputes(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1, CacheSize: 1})
	a := topcuogluBody(t, "")
	b := bytes.Replace(a, []byte(`"HEFT"`), []byte(`"CPOP"`), 1)
	first := mustOK(t, c.BaseURL, a)
	mustOK(t, c.BaseURL, b) // evicts a's entry and its digest

	before := snapshot(t, c.BaseURL)
	if before.Cache.BodyDigests != 1 {
		t.Errorf("cache.bodyDigests = %d with one entry answered once, want 1", before.Cache.BodyDigests)
	}
	got := mustOK(t, c.BaseURL, a)
	after := snapshot(t, c.BaseURL)
	if got.resp.Cached {
		t.Error("a body whose entry was evicted was answered from the cache")
	}
	if !sameAnswer(&got.resp, &first.resp) {
		t.Errorf("recomputed %s, first answer %s", got.body, first.body)
	}
	if d := after.Cache.Misses - before.Cache.Misses; d != 1 {
		t.Errorf("cache.misses rose by %d, want exactly 1", d)
	}
	if after.Cache.Hits != before.Cache.Hits || after.Cache.BodyHits != before.Cache.BodyHits {
		t.Errorf("hits %d → %d, bodyHits %d → %d; want both unchanged",
			before.Cache.Hits, after.Cache.Hits, before.Cache.BodyHits, after.Cache.BodyHits)
	}
	if after.Cache.BodyDigests != 1 {
		t.Errorf("cache.bodyDigests = %d after the eviction, want 1", after.Cache.BodyDigests)
	}
}

// TestDigestOnePerEntry: an entry keeps the digest of the body last
// answered from it, so whitespace variants of one problem hold one
// digest between them.
func TestDigestOnePerEntry(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1})
	base := topcuogluBody(t, "")
	variant := func(i int) []byte { return append([]byte(strings.Repeat(" ", i)), base...) }
	for i := 0; i < 5; i++ {
		mustOK(t, c.BaseURL, variant(i))
	}
	snap := snapshot(t, c.BaseURL)
	if snap.Cache.BodyDigests != 1 || snap.Cache.Size != 1 {
		t.Errorf("cache.bodyDigests = %d, cache.size = %d after 5 variants of one problem, want 1 and 1",
			snap.Cache.BodyDigests, snap.Cache.Size)
	}
	hits := snap.Cache.BodyHits
	for _, step := range []struct {
		variant int
		byBody  bool
	}{
		{4, true},  // the last body answered
		{0, false}, // replaced; its full-path hit takes the digest over
		{0, true},
		{4, false},
	} {
		mustOK(t, c.BaseURL, variant(step.variant))
		got := snapshot(t, c.BaseURL).Cache.BodyHits
		if byBody := got == hits+1; byBody != step.byBody {
			t.Errorf("variant %d: answered by digest %v, want %v", step.variant, byBody, step.byBody)
		}
		hits = got
	}
}

// TestDigestCacheOff: with the cache off the server holds no digests
// and computes every request.
func TestDigestCacheOff(t *testing.T) {
	_, c := startServer(t, service.Options{Workers: 1, CacheSize: -1})
	body := topcuogluBody(t, "")
	first := mustOK(t, c.BaseURL, body)
	again := mustOK(t, c.BaseURL, body)
	if first.resp.Cached || again.resp.Cached {
		t.Error("an answer was marked cached with the cache off")
	}
	if !sameAnswer(&first.resp, &again.resp) {
		t.Error("two computes of one body differ")
	}
	snap := snapshot(t, c.BaseURL)
	if snap.Cache.BodyDigests != 0 || snap.Cache.BodyHits != 0 {
		t.Errorf("bodyDigests %d, bodyHits %d with the cache off, want 0 and 0", snap.Cache.BodyDigests, snap.Cache.BodyHits)
	}
}

// TestBodyLimitCoversTrailingBytes: the body limit bounds the whole
// body, not its first JSON value; under it, bytes after the first value
// are ignored.
func TestBodyLimitCoversTrailingBytes(t *testing.T) {
	const limit = 4096
	_, c := startServer(t, service.Options{Workers: 1, MaxBodyBytes: limit})
	body := []byte(`{"algorithm":"HEFT","graph":{"tasks":[{"id":0,"weight":2},{"id":1,"weight":3}],"edges":[{"from":0,"to":1,"data":1}]}}`)
	if a := mustOK(t, c.BaseURL, append(body, strings.Repeat(" ", limit-len(body))...)); a.resp.Makespan <= 0 {
		t.Errorf("a body of exactly the limit answered %s", a.body)
	}
	for i := 0; i < 2; i++ { // the full path, then the digest
		if a := mustOK(t, c.BaseURL, append(body, `{"algorithm":"NOPE"} trailing`...)); a.resp.Algorithm != "HEFT" {
			t.Errorf("a body with bytes after its first value answered %s", a.body)
		}
	}
	a := postRaw(t, c.BaseURL, append(body, strings.Repeat(" ", limit)...))
	if a.status != http.StatusBadRequest || !strings.Contains(string(a.body), "decoding request: http: request body too large") {
		t.Errorf("a first value under the limit with trailing bytes past it: HTTP %d: %s, want 400 request body too large", a.status, a.body)
	}
}

// TestDigestHitShardOwner: a digest hit names the owner the full path
// names.
func TestDigestHitShardOwner(t *testing.T) {
	_, urls := startCluster(t, 3, service.Options{Workers: 1})
	body := topcuogluBody(t, "")
	full := mustOK(t, urls[0], body)
	before := snapshot(t, urls[0]).Cache.BodyHits
	hit := mustOK(t, urls[0], body)
	if snapshot(t, urls[0]).Cache.BodyHits != before+1 {
		t.Fatal("the repeat was not answered by digest")
	}
	owner := full.header.Get("X-Shard-Owner")
	if owner == "" {
		t.Fatal("no X-Shard-Owner on the full path")
	}
	if got := hit.header.Get("X-Shard-Owner"); got != owner {
		t.Errorf("digest hit names owner %q, the full path %q", got, owner)
	}
	if got := mustOK(t, urls[1], body).header.Get("X-Shard-Owner"); got != owner {
		t.Errorf("another entry node names owner %q, want %q", got, owner)
	}
}

// TestDigestConcurrentRing sends identical and distinct bodies from
// many goroutines to every node of a 3-node ring; every answer must be
// its body's reference answer.
func TestDigestConcurrentRing(t *testing.T) {
	_, urls := startCluster(t, 3, service.Options{Workers: 2, QueueDepth: 64})
	_, ref := startServer(t, service.Options{Workers: 2, CacheSize: -1})
	var bodies [][]byte
	for _, alg := range []string{"HEFT", "CPOP", "HLFET"} {
		for _, extra := range []string{"", `,"analyze":true`} {
			b := bytes.Replace(topcuogluBody(t, extra), []byte(`"HEFT"`), []byte(fmt.Sprintf("%q", alg)), 1)
			bodies = append(bodies, b, append([]byte(" "), b...))
		}
	}
	want := make([]answer, len(bodies))
	for i, b := range bodies {
		want[i] = mustOK(t, ref.BaseURL, b)
	}

	const goroutines, perG = 8, 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				i := (g + r*5) % len(bodies)
				a := postRaw(t, urls[(g+r)%len(urls)], bodies[i])
				if a.status != http.StatusOK {
					t.Errorf("body %d: HTTP %d: %s", i, a.status, a.body)
					continue
				}
				if !sameAnswer(&a.resp, &want[i].resp) {
					t.Errorf("body %d answered %s, want %s", i, a.body, want[i].body)
				}
			}
		}(g)
	}
	wg.Wait()
	var bodyHits int64
	for _, u := range urls {
		bodyHits += snapshot(t, u).Cache.BodyHits
	}
	if bodyHits == 0 {
		t.Error("no request was answered by digest")
	}
}
