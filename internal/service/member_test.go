package service

import (
	"strings"
	"testing"
	"time"
)

// detectorFixture builds a Server whose membership table is seeded
// statically but whose heartbeat loop never starts (startOnce is
// pre-fired), so tests drive the failure detector by hand through an
// injected clock.
func detectorFixture(t *testing.T, peers ...string) (*Server, *membership, *time.Time) {
	t.Helper()
	s := New(Options{})
	m := s.member
	m.startOnce.Do(func() {}) // disarm the heartbeat loop
	now := time.Unix(1_000_000, 0)
	m.nowFn = func() time.Time { return now }
	if err := s.ConfigurePeers(peers[0], peers); err != nil {
		t.Fatalf("ConfigurePeers: %v", err)
	}
	return s, m, &now
}

func memberURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = "http://10.0.0." + string(rune('1'+i)) + ":8080"
	}
	return urls
}

func TestDetectorSuspectThenDead(t *testing.T) {
	urls := memberURLs(3)
	s, m, now := detectorFixture(t, urls...)

	if sh := s.shard.Load(); sh == nil || len(sh.ring.peers) != 3 {
		t.Fatalf("initial shard = %+v, want a 3-peer ring", s.shard.Load())
	}
	alive, suspect, dead, epoch0 := m.counts()
	if alive != 2 || suspect != 0 || dead != 0 {
		t.Fatalf("counts = %d/%d/%d, want 2 alive", alive, suspect, dead)
	}

	// Half a SuspectAfter of silence: still alive, no epoch churn.
	*now = now.Add(m.s.opts.SuspectAfter / 2)
	m.assess(*now)
	if alive, suspect, _, _ = m.counts(); alive != 2 || suspect != 0 {
		t.Fatalf("after %s silence: %d alive %d suspect, want all alive", m.s.opts.SuspectAfter/2, alive, suspect)
	}

	// Past SuspectAfter: suspect, but STILL on the ring — transient
	// stalls must not reshard.
	*now = now.Add(m.s.opts.SuspectAfter)
	m.assess(*now)
	alive, suspect, dead, epoch1 := m.counts()
	if suspect != 2 || alive != 0 || dead != 0 {
		t.Fatalf("counts = %d/%d/%d, want 2 suspect", alive, suspect, dead)
	}
	if epoch1 != epoch0 {
		t.Fatalf("suspect transition bumped epoch %d -> %d; only death/leave reshards", epoch0, epoch1)
	}
	if sh := s.shard.Load(); sh == nil || len(sh.ring.peers) != 3 {
		t.Fatalf("suspect members dropped from ring: %+v", s.shard.Load())
	}

	// Past 2*SuspectAfter: dead, removed from the ring. With only self
	// left the node degrades to standalone (shard off).
	*now = now.Add(m.s.opts.SuspectAfter)
	m.assess(*now)
	alive, suspect, dead, epoch2 := m.counts()
	if dead != 2 || alive != 0 || suspect != 0 {
		t.Fatalf("counts = %d/%d/%d, want 2 dead", alive, suspect, dead)
	}
	if epoch2 == epoch1 {
		t.Fatal("death did not bump the membership epoch")
	}
	if sh := s.shard.Load(); sh != nil {
		t.Fatalf("sole survivor still sharding over %v", sh.ring.peers)
	}

	// A heartbeat from a dead member readopts it and reshards.
	m.observeHeartbeat(urls[1], RingView{})
	if alive, _, dead, _ = m.counts(); alive != 1 || dead != 1 {
		t.Fatalf("counts after rejoin heartbeat = %d alive %d dead, want 1/1", alive, dead)
	}
	if sh := s.shard.Load(); sh == nil || len(sh.ring.peers) != 2 {
		t.Fatalf("rejoin did not rebuild a 2-node ring: %+v", s.shard.Load())
	}
}

func TestDetectorAdoptsViewMembers(t *testing.T) {
	urls := memberURLs(2)
	s, m, _ := detectorFixture(t, urls...)

	// A heartbeat view naming an unknown alive member and an unknown
	// dead one: the alive member is adopted, the dead one is not —
	// death is a local verdict, never gossip.
	view := RingView{Members: []MemberJSON{
		{URL: "http://10.0.9.1:8080", Status: "alive"},
		{URL: "http://10.0.9.2:8080", Status: "dead"},
		{URL: urls[0], Status: "alive"}, // self must never enter the table
	}}
	m.observeHeartbeat(urls[1], view)
	alive, _, _, _ := m.counts()
	if alive != 2 {
		t.Fatalf("alive = %d, want 2 (original peer + adopted member)", alive)
	}
	if m.isAlive("http://10.0.9.2:8080") {
		t.Fatal("adopted a member another node declared dead")
	}
	if sh := s.shard.Load(); sh == nil || len(sh.ring.peers) != 3 {
		t.Fatalf("ring peers = %+v, want 3 after adoption", s.shard.Load())
	}
	v := m.view()
	for _, mem := range v.Members {
		if mem.URL == urls[0] && mem.Status != "alive" {
			t.Fatalf("self rendered as %q in view", mem.Status)
		}
	}
}

func TestAddRemoveMember(t *testing.T) {
	urls := memberURLs(2)
	s, m, _ := detectorFixture(t, urls...)

	if !m.addMember("http://10.0.9.1:8080") {
		t.Fatal("addMember of a new URL reported no change")
	}
	if m.addMember("http://10.0.9.1:8080") {
		t.Fatal("re-adding an alive member reported a change")
	}
	if m.addMember(urls[0]) {
		t.Fatal("adding self reported a change")
	}
	if !m.removeMember("http://10.0.9.1:8080") {
		t.Fatal("removeMember of a known URL reported no change")
	}
	if m.removeMember("http://10.0.9.1:8080") {
		t.Fatal("removing an unknown member reported a change")
	}
	if m.removeMember(urls[0]) {
		t.Fatal("a relayed copy of our own leave must be a no-op")
	}
	if sh := s.shard.Load(); sh == nil || len(sh.ring.peers) != 2 {
		t.Fatalf("ring = %+v, want the original 2 peers", s.shard.Load())
	}
}

func TestNormalizePeerURL(t *testing.T) {
	cases := []struct {
		in   string
		want string // "" means error expected
	}{
		{"http://10.0.0.1:8080", "http://10.0.0.1:8080"},
		{" https://node-3.cluster:9000/ ", "https://node-3.cluster:9000"},
		{"http://h/", "http://h"},
		{"", ""},
		{"10.0.0.1:8080", ""},                      // no scheme
		{"ftp://10.0.0.1", ""},                     // wrong scheme
		{"http://", ""},                            // no host
		{"http://u:p@h:1", ""},                     // userinfo
		{"http://h:1/path", ""},                    // path
		{"http://h:1?x=1", ""},                     // query
		{"http://h:1#frag", ""},                    // fragment
		{"http://" + strings.Repeat("a", 600), ""}, // oversized
	}
	for _, c := range cases {
		got, err := normalizePeerURL(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("normalizePeerURL(%q) = %q, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("normalizePeerURL(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestDecodeRingViewRejects(t *testing.T) {
	bad := []string{
		`{"members":[{"url":"http://h:1","status":"zombie"}]}`, // unknown status
		`{"members":[{"url":"h:1","status":"alive"}]}`,         // bad URL
		`{"replication":-1}`,                                   // out of range
		`not json`,
	}
	for _, b := range bad {
		if _, err := decodeRingView([]byte(b)); err == nil {
			t.Errorf("decodeRingView(%q) accepted invalid input", b)
		}
	}
	// Duplicates collapse rather than erroring.
	v, err := decodeRingView([]byte(`{"self":"http://h:1","members":[
		{"url":"http://h:2/","status":"alive"},
		{"url":"http://h:2","status":"suspect"}]}`))
	if err != nil {
		t.Fatalf("decodeRingView: %v", err)
	}
	if len(v.Members) != 1 || v.Members[0].URL != "http://h:2" {
		t.Fatalf("members = %+v, want the one deduplicated URL", v.Members)
	}
}
