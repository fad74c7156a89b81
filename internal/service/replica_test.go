package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
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
