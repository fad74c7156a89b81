package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"
)

// ErrCircuitOpen is returned (wrapped) by Client.Schedule when the
// relevant circuit breaker is open: recent requests for that algorithm
// (single-node mode) or that peer (multi-node mode) kept failing, so
// the client fails fast instead of hammering a struggling server.
// errors.Is recognises it.
var ErrCircuitOpen = errors.New("service: circuit open")

// RetryPolicy configures the client's transient-failure handling. The
// zero value of each field selects its default.
type RetryPolicy struct {
	// MaxAttempts bounds tries per call, first attempt included
	// (default 3). 1 disables retrying. In multi-node mode it bounds
	// attempts per peer; ring failover across peers is separate.
	MaxAttempts int
	// BaseBackoff is the first retry delay; each further retry doubles
	// it up to MaxBackoff, and every delay is drawn uniformly from
	// (0, nominal] — "full jitter", which decorrelates retry storms far
	// better than the old [50%,100%] band: after a mass failure the
	// retries of N clients spread over the whole window instead of
	// bunching in its upper half (defaults 50ms / 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed fixes the jitter RNG for reproducible backoff sequences in
	// tests; 0 (the default) seeds from the clock.
	Seed int64
	// BreakerThreshold opens a circuit after that many consecutive
	// server-side failures (default 5); BreakerCooldown is how long it
	// stays open before one trial request may probe again (default 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 5 * time.Second
	}
	return p
}

// StatusError is a non-2xx response. It formats exactly as the error
// string older client versions produced, so callers matching on the
// text keep working while new callers can switch on Status.
type StatusError struct {
	Method  string
	Path    string
	Status  int
	Message string // server-provided error body, may be empty
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("service: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// Client is a schedd API client with jittered-backoff retries on
// transient failures (503, transport errors) and circuit breakers.
//
// With only BaseURL set it talks to one server, with a per-algorithm
// breaker (one misbehaving algorithm cannot starve the others). With
// Peers set it becomes a load-balancing multi-node client over a schedd
// ring: Schedule hashes the request onto the same consistent-hash
// circle the servers use and dispatches to the owning peer first — so
// repeated identical requests land where the result is cached — failing
// over along the ring when a peer is down, with a per-peer circuit
// breaker keeping dead peers out of the path. ScheduleBatch
// round-robins whole batches across healthy peers.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080". Used
	// when Peers is empty.
	BaseURL string
	// Peers lists the base URLs of every node of a schedd ring. When
	// set (two or more), requests are ring-dispatched with failover and
	// BaseURL is ignored.
	Peers []string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry tunes retries and the circuit breakers; nil uses defaults.
	Retry *RetryPolicy

	mu       sync.Mutex
	rng      *rand.Rand
	ring     *hashRing // built lazily from Peers
	algBr    breakerSet
	peerBr   breakerSet
	batchSeq uint64 // round-robin cursor for ScheduleBatch
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) policy() RetryPolicy {
	if c.Retry != nil {
		return c.Retry.withDefaults()
	}
	return RetryPolicy{}.withDefaults()
}

// peerRing lazily builds the client-side ring over Peers. Callers must
// not mutate Peers after the first Schedule/ScheduleBatch call; the
// client itself swaps the set via RefreshRing, under the lock.
func (c *Client) peerRing() *hashRing {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring == nil {
		c.ring = newRing(c.Peers)
	}
	return c.ring
}

// numPeers reads the current peer count under the lock (RefreshRing
// may be swapping the set concurrently).
func (c *Client) numPeers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring != nil {
		return len(c.ring.peers)
	}
	return len(c.Peers)
}

// jitter maps a nominal backoff to a full-jitter draw: uniform in
// (0, d]. The nominal value is the ceiling, not the center, so
// concurrent clients retrying after a shared failure spread across the
// whole window.
func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		seed := time.Now().UnixNano()
		if c.Retry != nil && c.Retry.Seed != 0 {
			seed = c.Retry.Seed
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	return 1 + time.Duration(c.rng.Int63n(int64(d)))
}

// retryable reports whether err is worth another attempt: a 503 (queue
// full, graceful shutdown) or a transport failure (connection reset,
// refused). Context cancellation and client-side errors (4xx) are not.
func retryable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status == http.StatusServiceUnavailable
	}
	// Anything else that survived request construction is a transport
	// error (net.OpError, unexpected EOF, ...).
	return true
}

// exchange is the one HTTP round trip of the client and of every call
// from a node to a peer. It sends method base+path through hc, with a
// body as application/json and hdr as header name/value pairs, and
// returns the whole body of a 200 answer, at most limit bytes when
// limit > 0. Any other status comes back as a *StatusError carrying the
// server's {"error"} message; the rest of its body is drained, so the
// connection goes back to the pool.
func exchange(ctx context.Context, hc *http.Client, method, base, path string, body []byte, limit int64, hdr ...string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	src := io.Reader(resp.Body)
	if limit > 0 {
		src = io.LimitReader(resp.Body, limit)
	}
	data, err := readAll(src, resp.ContentLength)
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		se := &StatusError{Method: method, Path: path, Status: resp.StatusCode}
		var e errorJSON
		if decodeInto(data, &e) == nil {
			se.Message = e.Error
		}
		return nil, se
	}
	return data, err
}

// attempt performs one round trip against base, decoding a 200 answer
// into out.
func (c *Client) attempt(ctx context.Context, base, method, path string, body []byte, out any) error {
	data, err := exchange(ctx, c.http(), method, base, path, body, 0)
	if err != nil || out == nil {
		return err
	}
	if err := decodeInto(data, out); err != nil {
		return decodeError{err}
	}
	return nil
}

// decodeError is an answer that arrived whole and did not decode.
// Asking the same server again is no cure, and a second decode into the
// same value would keep what the first one stored, so doJSONAt returns
// it at once. Ring failover still moves on to the next peer, decoding
// into a fresh value.
type decodeError struct{ error }

func (e decodeError) Unwrap() error { return e.error }

// doJSONAt runs the retry loop against one base URL.
func (c *Client) doJSONAt(ctx context.Context, base, method, path string, data []byte, out any) error {
	pol := c.policy()
	backoff := pol.BaseBackoff
	var err error
	for att := 1; ; att++ {
		err = c.attempt(ctx, base, method, path, data, out)
		if err == nil || att >= pol.MaxAttempts || !retryable(ctx, err) || errors.As(err, new(decodeError)) {
			return err
		}
		t := time.NewTimer(c.jitter(backoff))
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
		if backoff *= 2; backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
	}
}

// getJSON GETs path from anyBase into out, with retries.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.doJSONAt(ctx, c.anyBase(), http.MethodGet, path, nil, out)
}

// anyBase returns BaseURL, or the first peer when only Peers is set —
// good enough for the read-only endpoints (health, metrics, listings).
func (c *Client) anyBase() string {
	if c.BaseURL != "" {
		return c.BaseURL
	}
	peers := c.RingPeers()
	if len(peers) == 0 {
		return ""
	}
	return peers[0]
}

// RingPeers returns the peer set the client currently dispatches over:
// the Peers it was constructed with, or the membership adopted by the
// most recent RefreshRing.
func (c *Client) RingPeers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring != nil {
		return append([]string(nil), c.ring.peers...)
	}
	return append([]string(nil), c.Peers...)
}

// RefreshRing asks the cluster for its current membership (GET
// /v1/ring) and swaps the client-side ring to match, so a long-lived
// client follows joins, leaves and deaths without reconstruction. The
// first configured peer to answer wins; members the cluster judges
// dead are excluded. Called automatically after a dispatch pass fails
// on every peer, and callable directly after topology changes.
func (c *Client) RefreshRing(ctx context.Context) error {
	sources := c.RingPeers()
	if len(sources) == 0 && c.BaseURL != "" {
		sources = []string{c.BaseURL}
	}
	var lastErr error = errors.New("service: no peers configured")
	for _, peer := range sources {
		view, err := fetchRing(ctx, c.http(), peer)
		if err != nil {
			lastErr = err
			continue
		}
		var next []string
		for _, m := range view.Members {
			if m.Status != memberDead.String() {
				next = append(next, m.URL)
			}
		}
		if len(next) == 0 {
			lastErr = fmt.Errorf("service: peer %s reported an empty ring", peer)
			continue
		}
		c.mu.Lock()
		c.Peers = next
		c.ring = newRing(next)
		c.mu.Unlock()
		return nil
	}
	return fmt.Errorf("service: ring refresh failed: %w", lastErr)
}

// fetchRing GETs and validates peer's /v1/ring view: the client's
// refresh and a node's heartbeat.
func fetchRing(ctx context.Context, hc *http.Client, peer string) (RingView, error) {
	data, err := exchange(ctx, hc, http.MethodGet, peer, "/v1/ring", nil, maxRingBodyBytes)
	if err != nil {
		return RingView{}, err
	}
	return decodeRingView(data)
}

// appendRequest appends the JSON body of req to dst. The request
// without its raw problem is encoded by encoding/json, so each scalar
// keeps its formatting and its errors; the raw Instance and Graph are
// then spliced in as given, once validJSON accepts them (as json.Valid
// would), not re-compacted and HTML-escaped as json.Marshal would. The
// body decodes to the request json.Marshal's would.
func appendRequest(dst []byte, req *ScheduleRequest) ([]byte, error) {
	scalars := *req
	scalars.Instance, scalars.Graph = nil, nil
	head, err := json.Marshal(&scalars)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, len(head)+len(req.Instance)+len(req.Graph)+len(`,"instance":,"graph":`))
	dst = append(dst, head[:len(head)-1]...) // every field but the closing brace
	for _, f := range [...]struct {
		name string
		raw  json.RawMessage
	}{{"instance", req.Instance}, {"graph", req.Graph}} {
		if len(f.raw) == 0 {
			continue
		}
		if !validJSON(f.raw) {
			return nil, fmt.Errorf("%s is not valid JSON: %w", f.name, json.Unmarshal(f.raw, new(json.RawMessage)))
		}
		dst = append(dst, `,"`+f.name+`":`...)
		dst = append(dst, f.raw...)
	}
	return append(dst, '}'), nil
}

// requestKey digests the scheduling-relevant fields of a request for
// client-side ring placement. It is a cheap byte-level digest, not the
// server's canonical instance hash (which needs a full parse): two
// byte-identical requests always land on the same peer — which is what
// keeps that peer's cache hot — and a semantically-equal-but-reformatted
// request at worst lands elsewhere, which finds the result by probing
// the key's holders or computes it again.
func requestKey(req *ScheduleRequest) string {
	h := fnv.New64a()
	io.WriteString(h, req.Algorithm)
	h.Write([]byte{0})
	h.Write(req.Instance)
	h.Write([]byte{0})
	h.Write(req.Graph)
	fmt.Fprintf(h, "|%d|%g|%g|%s|%g|%v", req.Processors, req.Latency, req.TimePerUnit,
		req.CommModel, req.LinkBandwidth, req.Analyze)
	if req.Faults != nil {
		if fw, err := json.Marshal(req.Faults); err == nil {
			h.Write(fw)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Schedule submits one scheduling request. Transient failures are
// retried per the client's RetryPolicy. Single-node mode keeps PR 5's
// per-algorithm circuit breaker; multi-node mode dispatches to the
// ring owner of the request and fails over along the ring, skipping
// peers whose circuit is open. When every peer fails, the error wraps
// the last failure, or ErrCircuitOpen when every circuit was open.
func (c *Client) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	pol := c.policy()
	data, err := appendRequest(nil, &req)
	if err != nil {
		return nil, fmt.Errorf("service: encoding request: %w", err)
	}
	if c.numPeers() >= 2 {
		key := requestKey(&req)
		return failover[ScheduleResponse](ctx, c, "/v1/schedule", data, func(r *hashRing) []string { return r.successors(key) })
	}
	if wait, open := c.algBr.allow(req.Algorithm, pol.BreakerThreshold); open {
		return nil, fmt.Errorf("%w for algorithm %q (retry after %s)", ErrCircuitOpen, req.Algorithm, wait.Round(time.Millisecond))
	}
	var out ScheduleResponse
	err = c.doJSONAt(ctx, c.anyBase(), http.MethodPost, "/v1/schedule", data, &out)
	c.algBr.observe(req.Algorithm, pol.BreakerThreshold, pol.BreakerCooldown, err)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ScheduleBatch submits a batch of scheduling requests to
// /v1/schedule/batch and returns the ordered per-item results. In
// multi-node mode batches are round-robined across peers (a batch is
// fanned out by whichever node receives it, consulting the owning
// peers' caches per item), failing over as Schedule does.
func (c *Client) ScheduleBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	data := []byte(`{"items":[`)
	for i := range req.Items {
		if i > 0 {
			data = append(data, ',')
		}
		var err error
		if data, err = appendRequest(data, &req.Items[i]); err != nil {
			return nil, fmt.Errorf("service: encoding batch: item %d: %w", i, err)
		}
	}
	data = append(data, "]}"...)
	if c.numPeers() < 2 {
		var out BatchResponse
		if err := c.doJSONAt(ctx, c.anyBase(), http.MethodPost, "/v1/schedule/batch", data, &out); err != nil {
			return nil, err
		}
		return &out, nil
	}
	return failover[BatchResponse](ctx, c, "/v1/schedule/batch", data, func(r *hashRing) []string {
		c.mu.Lock()
		start := int(c.batchSeq % uint64(len(r.peers)))
		c.batchSeq++
		c.mu.Unlock()
		return append(append([]string(nil), r.peers[start:]...), r.peers[:start]...)
	})
}

// failover POSTs data to path on the peers order lists over the current
// ring, one attempt each (the next node is the retry), skipping peers
// whose circuit is open; every attempt feeds its peer's breaker and
// decodes into a fresh T. A pass that fails on every peer triggers one
// ring refresh (the configured view may be stale: nodes died, others
// joined) and one more pass over the refreshed membership. After that
// the error wraps the last failure, or ErrCircuitOpen when every
// circuit was open.
func failover[T any](ctx context.Context, c *Client, path string, data []byte, order func(*hashRing) []string) (*T, error) {
	pol := c.policy()
	for pass := 0; ; pass++ {
		peers := order(c.peerRing())
		var lastErr error
		for _, peer := range peers {
			if wait, open := c.peerBr.allow(peer, pol.BreakerThreshold); open {
				if lastErr == nil {
					lastErr = fmt.Errorf("%w for peer %s (retry after %s)", ErrCircuitOpen, peer, wait.Round(time.Millisecond))
				}
				continue
			}
			var out T
			err := c.attempt(ctx, peer, http.MethodPost, path, data, &out)
			c.peerBr.observe(peer, pol.BreakerThreshold, pol.BreakerCooldown, err)
			if err == nil {
				return &out, nil
			}
			if !retryable(ctx, err) {
				return nil, err
			}
			lastErr = err
		}
		if lastErr == nil {
			lastErr = errors.New("service: no peers configured")
		}
		if pass == 0 && c.RefreshRing(ctx) == nil {
			continue
		}
		return nil, fmt.Errorf("service: all %d peers failed: %w", len(peers), lastErr)
	}
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.getJSON(ctx, "/healthz", nil)
}

// Metrics fetches the server's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	var out MetricsSnapshot
	if err := c.getJSON(ctx, "/metrics", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Algorithms lists the server's algorithm registry.
func (c *Client) Algorithms(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.getJSON(ctx, "/v1/algorithms", &out); err != nil {
		return nil, err
	}
	return out["algorithms"], nil
}

// CommModels lists the communication-model kinds the server accepts in
// ScheduleRequest.CommModel.
func (c *Client) CommModels(ctx context.Context) ([]string, error) {
	var out map[string][]string
	if err := c.getJSON(ctx, "/v1/algorithms", &out); err != nil {
		return nil, err
	}
	return out["commModels"], nil
}
