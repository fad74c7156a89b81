package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// Dynamic cluster membership. A schedd node no longer needs the full
// peer list at boot: nodes join and leave a running ring through the
// /v1/ring admin surface, every node heartbeats its known members and
// runs a deadline-style failure detector (missed heartbeats mark a peer
// suspect, then dead), and every membership change atomically swaps the
// consistent-hash shardState — so the ≤2/N churn guarantee of the ring
// bounds how much keyspace moves on a join, a leave or a death.
//
// The protocol is deliberately small and eventually consistent:
//
//   - GET  /v1/ring        — the heartbeat. Returns this node's RingView
//     (epoch, members with statuses). The caller refreshes lastSeen for
//     the responder and learns members it did not know (gossip by
//     piggyback: views spread along heartbeat edges).
//   - POST /v1/ring/join   — {"url": U} adds U as an alive member, swaps
//     the ring and relays the join once to every other known member
//     (X-Schedd-Relayed guards against relay loops). Returns the full
//     view so a joiner adopts the cluster state in one round trip.
//   - POST /v1/ring/leave  — {"url": U} removes U, swaps and relays.
//
// Failure detection is local: each node judges its peers by its own
// heartbeat history (no quorum). A peer silent for suspectAfter turns
// suspect (still owns its arcs — transient stalls must not reshard);
// silent for 2*suspectAfter it turns dead and is removed from the ring.
// Dead members keep being pinged, so a node that comes back — same URL,
// no operator involvement — is readopted on its first successful
// heartbeat, which also triggers the anti-entropy sweep (replica.go)
// that re-fills its cold cache.
type memberStatus int

const (
	memberAlive memberStatus = iota
	memberSuspect
	memberDead
)

func (st memberStatus) String() string {
	switch st {
	case memberAlive:
		return "alive"
	case memberSuspect:
		return "suspect"
	case memberDead:
		return "dead"
	}
	return "unknown"
}

// statusFromString parses the wire form; ok is false for unknown labels.
func statusFromString(s string) (memberStatus, bool) {
	switch s {
	case "alive":
		return memberAlive, true
	case "suspect":
		return memberSuspect, true
	case "dead":
		return memberDead, true
	}
	return 0, false
}

// hdrRelayed marks a relayed join/leave so it is applied but never
// relayed again — one hop of fan-out reaches every member the receiver
// knows, and piggybacked views close any gaps.
const hdrRelayed = "X-Schedd-Relayed"

// maxRingMembers bounds how many members one view or message may carry;
// far above any real schedd deployment, it keeps hostile payloads from
// allocating unbounded member tables.
const maxRingMembers = 1024

// maxPeerURLLen bounds one member URL on the wire.
const maxPeerURLLen = 512

// maxRingBodyBytes bounds a join/leave body or a fetched ring view.
const maxRingBodyBytes = 1 << 20

// memberInfo is this node's local judgement of one peer.
type memberInfo struct {
	status   memberStatus
	lastSeen time.Time
}

// membership owns the member table, the heartbeat loop and the failure
// detector of one Server. All exported-ish entry points lock mu; the
// shardState swap happens under it so concurrent joins/leaves/detector
// passes serialize into a clean epoch sequence.
type membership struct {
	s *Server

	mu      sync.Mutex
	self    string
	members map[string]*memberInfo // peers, self excluded
	epoch   uint64
	left    bool // this node announced leave; stop heartbeating
	joinURL string
	joined  bool // join announced (or static config applied)

	startOnce sync.Once
	nowFn     func() time.Time // injectable for detector tests
}

func newMembership(s *Server) *membership {
	return &membership{
		s:       s,
		members: make(map[string]*memberInfo),
		nowFn:   time.Now,
	}
}

// normalizePeerURL validates one member base URL from the wire: http or
// https, a host, nothing else (no query, fragment or userinfo), bounded
// length, trailing slash trimmed. Everything membership stores or
// relays went through here, so the member table never holds a URL that
// cannot be dialed.
func normalizePeerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	if raw == "" {
		return "", fmt.Errorf("empty peer URL")
	}
	if len(raw) > maxPeerURLLen {
		return "", fmt.Errorf("peer URL longer than %d bytes", maxPeerURLLen)
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("peer URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("peer URL %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("peer URL %q: missing host", raw)
	}
	if u.User != nil || u.RawQuery != "" || u.Fragment != "" || (u.Path != "" && u.Path != "/") {
		return "", fmt.Errorf("peer URL %q: must be a bare base URL", raw)
	}
	return raw, nil
}

// ringMessage is the body of POST /v1/ring/join and /v1/ring/leave.
type ringMessage struct {
	URL string `json:"url"`
}

// decodeRingMessage parses and validates one join/leave body.
func decodeRingMessage(data []byte) (ringMessage, error) {
	var msg ringMessage
	if err := json.Unmarshal(data, &msg); err != nil {
		return ringMessage{}, fmt.Errorf("decoding ring message: %v", err)
	}
	u, err := normalizePeerURL(msg.URL)
	if err != nil {
		return ringMessage{}, err
	}
	msg.URL = u
	return msg, nil
}

// decodeRingView parses and validates a RingView (heartbeat response,
// join response, client refresh). Member URLs are normalized and
// deduplicated; unknown statuses and oversized member lists are
// rejected rather than half-applied.
func decodeRingView(data []byte) (RingView, error) {
	var view RingView
	if err := json.Unmarshal(data, &view); err != nil {
		return RingView{}, fmt.Errorf("decoding ring view: %v", err)
	}
	if len(view.Members) > maxRingMembers {
		return RingView{}, fmt.Errorf("ring view with %d members exceeds the %d-member limit", len(view.Members), maxRingMembers)
	}
	if view.Self != "" {
		u, err := normalizePeerURL(view.Self)
		if err != nil {
			return RingView{}, err
		}
		view.Self = u
	}
	if view.Replication < 0 || view.Replication > maxRingMembers {
		return RingView{}, fmt.Errorf("ring view replication %d out of range", view.Replication)
	}
	seen := make(map[string]bool, len(view.Members))
	out := view.Members[:0]
	for _, m := range view.Members {
		u, err := normalizePeerURL(m.URL)
		if err != nil {
			return RingView{}, err
		}
		if _, ok := statusFromString(m.Status); !ok {
			return RingView{}, fmt.Errorf("ring view member %q has unknown status %q", u, m.Status)
		}
		if seen[u] {
			continue
		}
		seen[u] = true
		m.URL = u
		out = append(out, m)
	}
	view.Members = out
	return view, nil
}

// configureStatic seeds the member table from a static peer list — the
// PR 8 ConfigurePeers contract. Fewer than two distinct peers leaves
// the node standalone (sharding off) but keeps self, so a later join
// can still form a cluster around this node.
func (m *membership) configureStatic(self string, peers []string) error {
	distinct := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p != "" {
			distinct[p] = true
		}
	}
	if len(distinct) >= 2 {
		if self == "" {
			return fmt.Errorf("service: peers configured but self URL empty")
		}
		if !distinct[self] {
			sorted := make([]string, 0, len(distinct))
			for p := range distinct {
				sorted = append(sorted, p)
			}
			sort.Strings(sorted)
			return fmt.Errorf("service: self URL %q not in peer list %v", self, sorted)
		}
	}
	m.mu.Lock()
	m.self = self
	m.members = make(map[string]*memberInfo, len(distinct))
	now := m.nowFn()
	for p := range distinct {
		if p == self {
			continue
		}
		m.members[p] = &memberInfo{status: memberAlive, lastSeen: now}
	}
	m.joined = true
	m.swapLocked()
	clustered := len(distinct) >= 2
	m.mu.Unlock()
	if clustered {
		m.start()
	}
	return nil
}

// configureJoin points a fresh node at a seed member; the heartbeat
// loop announces the join (retrying until the seed answers) and adopts
// the returned view.
func (m *membership) configureJoin(self, seed string) error {
	if self == "" {
		return fmt.Errorf("service: join configured but self URL empty")
	}
	nself, err := normalizePeerURL(self)
	if err != nil {
		return fmt.Errorf("service: %v", err)
	}
	nseed, err := normalizePeerURL(seed)
	if err != nil {
		return fmt.Errorf("service: %v", err)
	}
	if nseed == nself {
		return fmt.Errorf("service: join seed equals self URL %q", nself)
	}
	m.mu.Lock()
	m.self = nself
	m.joinURL = nseed
	m.joined = false
	m.mu.Unlock()
	m.start()
	return nil
}

// start launches the heartbeat/detector loop (idempotent). The loop
// exits when the server shuts down.
func (m *membership) start() {
	m.startOnce.Do(func() {
		m.s.workers.Add(1)
		go m.loop()
		m.s.repl.start()
	})
}

func (m *membership) loop() {
	defer m.s.workers.Done()
	interval := m.s.opts.HeartbeatInterval
	t := time.NewTicker(interval)
	defer t.Stop()
	m.tick() // immediate first round: a joiner should not idle a full interval
	for {
		select {
		case <-m.s.quit:
			return
		case <-t.C:
			m.tick()
		}
	}
}

// tick runs one heartbeat round: announce a pending join, ping every
// known member in parallel, merge the views that came back, then run
// the failure detector over the refreshed table.
func (m *membership) tick() {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return
	}
	joinURL, joined, self := m.joinURL, m.joined, m.self
	peers := make([]string, 0, len(m.members))
	for p := range m.members {
		peers = append(peers, p)
	}
	m.mu.Unlock()

	if !joined && joinURL != "" {
		m.announceJoin(self, joinURL)
		return // adopt the view first; heartbeats start next round
	}

	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			view, err := m.fetchView(peer)
			if err != nil {
				return // silence is what the detector measures
			}
			m.observeHeartbeat(peer, view)
		}(p)
	}
	wg.Wait()
	m.assess(m.nowFn())
}

// fetchView GETs peer's /v1/ring bounded by the probe timeout.
func (m *membership) fetchView(peer string) (RingView, error) {
	ctx, cancel := context.WithTimeout(context.Background(), m.s.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/ring", nil)
	if err != nil {
		return RingView{}, err
	}
	resp, err := m.s.peerClient.Do(req)
	if err != nil {
		return RingView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return RingView{}, &StatusError{Method: http.MethodGet, Path: "/v1/ring", Status: resp.StatusCode}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRingBodyBytes))
	if err != nil {
		return RingView{}, err
	}
	return decodeRingView(data)
}

// announceJoin POSTs this node's join to the seed and adopts the view
// it answers with. Failure is retried next tick — a joiner outliving a
// temporarily-down seed is the whole point of retrying here.
func (m *membership) announceJoin(self, seed string) {
	view, err := m.postRing(seed, "/v1/ring/join", self, false)
	if err != nil {
		return
	}
	m.mu.Lock()
	now := m.nowFn()
	changed := m.adoptLocked(view, now)
	if mi := m.members[seed]; mi != nil {
		mi.lastSeen = now
	}
	m.joined = true
	if changed {
		m.swapLocked()
	}
	m.mu.Unlock()
	log.Printf("service: joined ring via %s (%d members)", seed, len(view.Members))
}

// postRing sends one join/leave message; when the caller is relaying it
// marks the hop so the receiver applies without relaying again.
func (m *membership) postRing(peer, path, subject string, relayed bool) (RingView, error) {
	body, err := json.Marshal(ringMessage{URL: subject})
	if err != nil {
		return RingView{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.s.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return RingView{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if relayed {
		req.Header.Set(hdrRelayed, m.selfURL())
	}
	resp, err := m.s.peerClient.Do(req)
	if err != nil {
		return RingView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return RingView{}, &StatusError{Method: http.MethodPost, Path: path, Status: resp.StatusCode}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRingBodyBytes))
	if err != nil {
		return RingView{}, err
	}
	return decodeRingView(data)
}

func (m *membership) selfURL() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.self
}

// observeHeartbeat refreshes the responder's lastSeen and merges its
// piggybacked view: members we never heard of are adopted as alive (the
// detector will judge them from here on). A member the responder lists
// as dead is NOT trusted — death is a local verdict — which keeps one
// partitioned node's pessimism from amputating the ring everywhere.
func (m *membership) observeHeartbeat(peer string, view RingView) {
	m.mu.Lock()
	now := m.nowFn()
	changed, rejoined := false, false
	if mi := m.members[peer]; mi != nil {
		mi.lastSeen = now
		if mi.status != memberAlive {
			rejoined = mi.status == memberDead // dead→alive reshards
			changed = changed || rejoined
			m.noteTransitionLocked(peer, mi.status, memberAlive)
			mi.status = memberAlive
		}
	}
	changed = m.adoptLocked(view, now) || changed
	if changed {
		m.swapLocked()
	}
	m.mu.Unlock()
	if rejoined {
		m.s.repl.sweepFor(peer)
	}
}

// adoptLocked merges a remote view's alive members into the table,
// returning whether ring composition changed. Callers hold mu.
func (m *membership) adoptLocked(view RingView, now time.Time) bool {
	changed := false
	total := len(m.members)
	for _, mem := range view.Members {
		st, _ := statusFromString(mem.Status)
		if st != memberAlive || mem.URL == m.self {
			continue
		}
		if _, known := m.members[mem.URL]; known {
			continue
		}
		if total >= maxRingMembers {
			break
		}
		m.members[mem.URL] = &memberInfo{status: memberAlive, lastSeen: now}
		log.Printf("service: ring member %s learned via heartbeat view", mem.URL)
		total++
		changed = true
	}
	return changed
}

// assess runs the failure detector: members silent for suspectAfter
// turn suspect, silent for 2*suspectAfter turn dead. Only transitions
// that change ring composition (anything touching dead) swap the ring.
func (m *membership) assess(now time.Time) {
	suspectAfter := m.s.opts.SuspectAfter
	deadAfter := 2 * suspectAfter
	m.mu.Lock()
	changed := false
	for url, mi := range m.members {
		silent := now.Sub(mi.lastSeen)
		want := mi.status
		switch {
		case silent >= deadAfter:
			want = memberDead
		case silent >= suspectAfter:
			if mi.status != memberDead {
				want = memberSuspect
			}
		default:
			want = memberAlive
		}
		if want == mi.status {
			continue
		}
		m.noteTransitionLocked(url, mi.status, want)
		if want == memberDead || mi.status == memberDead {
			changed = true
		}
		mi.status = want
	}
	if changed {
		m.swapLocked()
	}
	m.mu.Unlock()
}

// noteTransitionLocked logs one status change (callers hold mu).
func (m *membership) noteTransitionLocked(url string, from, to memberStatus) {
	log.Printf("service: ring member %s: %s -> %s (epoch %d)", url, from, to, m.epoch)
}

// swapLocked rebuilds the shardState from the current composition
// (self + alive + suspect members) and publishes it atomically,
// bumping the membership epoch. Suspect members stay on the ring —
// resharding on every transient stall would churn caches for nothing;
// only death and leave move keyspace. Callers hold mu.
func (m *membership) swapLocked() {
	m.epoch++
	urls := make([]string, 0, len(m.members)+1)
	if m.self != "" && !m.left {
		urls = append(urls, m.self)
	}
	for u, mi := range m.members {
		if mi.status == memberAlive || mi.status == memberSuspect {
			urls = append(urls, u)
		}
	}
	ring := newRing(urls)
	if ring.size() < 2 || m.left {
		m.s.shard.Store(nil)
		return
	}
	m.s.shard.Store(&shardState{self: m.self, ring: ring})
}

// addMember applies one join. It reports whether the member was new or
// came back from the dead (both trigger the anti-entropy sweep).
func (m *membership) addMember(url string) (changed bool) {
	m.mu.Lock()
	now := m.nowFn()
	if url == m.self {
		m.mu.Unlock()
		return false
	}
	mi := m.members[url]
	switch {
	case mi == nil:
		if len(m.members) >= maxRingMembers {
			m.mu.Unlock()
			return false
		}
		m.members[url] = &memberInfo{status: memberAlive, lastSeen: now}
		changed = true
	case mi.status == memberDead:
		m.noteTransitionLocked(url, mi.status, memberAlive)
		mi.status, mi.lastSeen = memberAlive, now
		changed = true
	default:
		mi.lastSeen = now
	}
	if changed {
		log.Printf("service: ring member %s joined", url)
		m.swapLocked()
	}
	m.mu.Unlock()
	return changed
}

// removeMember applies one leave.
func (m *membership) removeMember(url string) (changed bool) {
	m.mu.Lock()
	if url == m.self {
		// A relayed copy of our own leave announcement; nothing to do.
		m.mu.Unlock()
		return false
	}
	if _, ok := m.members[url]; ok {
		delete(m.members, url)
		log.Printf("service: ring member %s left", url)
		m.swapLocked()
		changed = true
	}
	m.mu.Unlock()
	return changed
}

// relay fans a join/leave out to every other member once.
func (m *membership) relay(path, subject string) {
	m.mu.Lock()
	peers := make([]string, 0, len(m.members))
	for p, mi := range m.members {
		if p != subject && mi.status != memberDead {
			peers = append(peers, p)
		}
	}
	m.mu.Unlock()
	for _, p := range peers {
		go func(peer string) {
			_, _ = m.postRing(peer, path, subject, true)
		}(p)
	}
}

// view renders the current RingView (also the heartbeat payload).
func (m *membership) view() RingView {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

func (m *membership) viewLocked() RingView {
	v := RingView{Self: m.self, Epoch: m.epoch, Replication: m.s.opts.Replication}
	if m.self != "" && !m.left {
		v.Members = append(v.Members, MemberJSON{URL: m.self, Status: memberAlive.String()})
	}
	urls := make([]string, 0, len(m.members))
	for u := range m.members {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	for _, u := range urls {
		v.Members = append(v.Members, MemberJSON{URL: u, Status: m.members[u].status.String()})
	}
	return v
}

// counts returns the member-table status totals plus the epoch.
func (m *membership) counts() (alive, suspect, dead int, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mi := range m.members {
		switch mi.status {
		case memberAlive:
			alive++
		case memberSuspect:
			suspect++
		case memberDead:
			dead++
		}
	}
	return alive, suspect, dead, m.epoch
}

// isAlive reports whether peer is currently judged alive (used by the
// hinted-handoff retrier to avoid hammering a node that is still down).
func (m *membership) isAlive(peer string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mi := m.members[peer]
	return mi != nil && mi.status == memberAlive
}

// leave announces this node's departure to every member and withdraws
// from the ring. The caller (Server.Leave) hands off cache entries
// first, while the ring still routes to us.
func (m *membership) leave() []string {
	m.mu.Lock()
	if m.left {
		m.mu.Unlock()
		return nil
	}
	m.left = true
	peers := make([]string, 0, len(m.members))
	for p, mi := range m.members {
		if mi.status != memberDead {
			peers = append(peers, p)
		}
	}
	self := m.self
	m.swapLocked() // sharding off locally; requests now compute standalone
	m.mu.Unlock()
	for _, p := range peers {
		_, _ = m.postRing(p, "/v1/ring/leave", self, false)
	}
	return peers
}

// handleRing serves GET /v1/ring: the ring view, doubling as the
// heartbeat endpoint.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.member.view())
}

// handleRingJoin serves POST /v1/ring/join.
func (s *Server) handleRingJoin(w http.ResponseWriter, r *http.Request) {
	s.handleRingChange(w, r, "/v1/ring/join")
}

// handleRingLeave serves POST /v1/ring/leave.
func (s *Server) handleRingLeave(w http.ResponseWriter, r *http.Request) {
	s.handleRingChange(w, r, "/v1/ring/leave")
}

// handleRingChange applies one join/leave, relays it once when it came
// straight from the subject (not already relayed), and answers the
// updated view.
func (s *Server) handleRingChange(w http.ResponseWriter, r *http.Request, path string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.member.selfURL() == "" {
		writeError(w, http.StatusConflict, "node has no ring identity (start with -self)")
		return
	}
	data, err := readBody(w, r, maxRingBodyBytes, s.opts.DefaultTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading ring message: %v", err)
		return
	}
	msg, err := decodeRingMessage(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var changed bool
	join := path == "/v1/ring/join"
	if join {
		changed = s.member.addMember(msg.URL)
	} else {
		changed = s.member.removeMember(msg.URL)
	}
	if changed && r.Header.Get(hdrRelayed) == "" {
		s.member.relay(path, msg.URL)
	}
	if changed && join {
		s.repl.sweepFor(msg.URL)
	}
	writeJSON(w, http.StatusOK, s.member.view())
}
