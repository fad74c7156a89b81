package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagsched/internal/testfix"
)

// putRecorder passes peer traffic through and keeps the body of every
// replica PUT.
type putRecorder struct {
	mu   sync.Mutex
	puts [][]byte
}

func (p *putRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/cache/") {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.puts = append(p.puts, body)
		p.mu.Unlock()
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (p *putRecorder) bodies() [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([][]byte(nil), p.puts...)
}

// TestReplicaPushEncodedOnce: one compute on a 3-node ring pushes the
// same bytes to both other holders, and the push counters read one
// push per holder.
func TestReplicaPushEncodedOnce(t *testing.T) {
	rec := &putRecorder{}
	servers := make([]*Server, 3)
	urls := make([]string, 3)
	for i := range servers {
		servers[i] = New(Options{Addr: "127.0.0.1:0", Workers: 1})
		if i == 0 {
			servers[i].peerClient = &http.Client{Transport: rec}
		}
		addr, err := servers[i].Start()
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = "http://" + addr
		defer func(s *Server) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}(servers[i])
	}
	for i, s := range servers {
		if err := s.ConfigurePeers(urls[i], urls); err != nil {
			t.Fatal(err)
		}
	}
	var inst bytes.Buffer
	if err := testfix.Topcuoglu().WriteJSON(&inst); err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(urls[0]+"/v1/schedule", "application/json",
		strings.NewReader(`{"algorithm":"HEFT","instance":`+inst.String()+`}`))
	if err != nil {
		t.Fatal(err)
	}
	var answer ScheduleResponse
	err = json.NewDecoder(hr.Body).Decode(&answer)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK || answer.Cached {
		t.Fatalf("HTTP %d, cached %v, decode error %v; want a fresh 200", hr.StatusCode, answer.Cached, err)
	}

	// counts reads node 0's pushes and failures and each node's stores.
	counts := func() (pushes, fails int64, stores [3]int64) {
		for i, s := range servers {
			s.met.mu.Lock()
			if i == 0 {
				pushes, fails = s.met.replPushes, s.met.replPushFails
			}
			stores[i] = s.met.replStores
			s.met.mu.Unlock()
		}
		return
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		pushes, fails, stores := counts()
		if pushes == 2 && stores[1] == 1 && stores[2] == 1 {
			if fails != 0 || stores[0] != 0 {
				t.Errorf("push failures %d, stores %v; want 0 and [0 1 1]", fails, stores)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pushes %d, failures %d, stores %v; want 2 pushes and stores [0 1 1]", pushes, fails, stores)
		}
		time.Sleep(10 * time.Millisecond)
	}
	puts := rec.bodies()
	if len(puts) != 2 {
		t.Fatalf("%d replica PUTs from one compute, want 2", len(puts))
	}
	if !bytes.Equal(puts[0], puts[1]) {
		t.Errorf("the two holders received different bodies:\n%s\n%s", puts[0], puts[1])
	}
	var pushed ScheduleResponse
	if err := json.Unmarshal(puts[0], &pushed); err != nil || pushed.Makespan != answer.Makespan {
		t.Errorf("pushed %s (decode error %v), answered makespan %v", puts[0], err, answer.Makespan)
	}
}

// refusePuts refuses every replica PUT until released, and passes all
// other peer traffic through.
type refusePuts struct{ released atomic.Bool }

func (rp *refusePuts) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/cache/") && !rp.released.Load() {
		return nil, errors.New("replica push refused")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestHintedHandoff: on a 2-node ring with one replica, a push that
// node A's transport refuses is queued as a hint, and once the
// transport lets pushes through, the retrier delivers it: B stores one
// replica copy and answers the key's probe with 200.
func TestHintedHandoff(t *testing.T) {
	gate := &refusePuts{}
	opts := Options{Addr: "127.0.0.1:0", Workers: 1, Replication: 1, HeartbeatInterval: 50 * time.Millisecond}
	a, b := New(opts), New(opts)
	a.peerClient = &http.Client{Transport: gate}
	urls := []string{startInternal(t, a), startInternal(t, b)}
	for i, s := range []*Server{a, b} {
		if err := s.ConfigurePeers(urls[i], urls); err != nil {
			t.Fatal(err)
		}
	}
	body := graphBody(t, 20)
	roundTrip(t, http.MethodPost, urls[0]+"/v1/schedule", body)
	key := keyOf(t, a, body)

	handoffs := func() [numHandoffEvents]int64 {
		a.met.mu.Lock()
		defer a.met.mu.Unlock()
		return a.met.handoffs
	}
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; handoffs (queued, delivered, dropped) %v", what, handoffs())
			}
		}
	}
	waitFor("the refused push to be queued", func() bool { return handoffs()[handoffQueued] == 1 })
	if h := handoffs(); h[handoffDelivered] != 0 {
		t.Fatalf("handoffs (queued, delivered, dropped) %v before the release, want nothing delivered", h)
	}
	gate.released.Store(true)
	waitFor("the hint to be delivered", func() bool { return handoffs()[handoffDelivered] == 1 })

	if h := handoffs(); h != [numHandoffEvents]int64{1, 1, 0} {
		t.Errorf("handoffs (queued, delivered, dropped) %v, want [1 1 0]", h)
	}
	b.met.mu.Lock()
	stores := b.met.replStores
	b.met.mu.Unlock()
	if stores != 1 {
		t.Errorf("B stored %d replica copies, want 1", stores)
	}
	roundTrip(t, http.MethodGet, urls[1]+"/v1/cache/"+key, nil)
}
