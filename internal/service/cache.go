package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sync"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
)

// cacheKey canonically identifies (instance, algorithm, options) as the
// 64-char hex sha256 that validCacheKey accepts. The instance part is
// the parsed problem itself — the values Instance.WriteJSON writes —
// not any serialization of it, so two requests that parse to the same
// problem share a key regardless of the JSON formatting they arrived
// in, and a bare graph request shares one with its expanded instance.
// The communication-model kind, the shared-link bandwidth and the
// faults block are part of the identity — the same problem under
// one-port, or under a different fault plan, is a different scheduling
// query.
func cacheKey(in *sched.Instance, algorithm string, analyze bool, linkBandwidth float64, faults *FaultsRequest) (string, error) {
	h := sha256.New()
	hashInstance(h, in)
	fmt.Fprintf(h, "|alg=%s|analyze=%v|comm=%s|bw=%g", algorithm, analyze, in.CommKind(), linkBandwidth)
	if faults != nil {
		fw, err := json.Marshal(faults)
		if err != nil {
			return "", fmt.Errorf("service: hashing faults block: %w", err)
		}
		fmt.Fprintf(h, "|faults=%s", fw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashInstance feeds h the instance's values in WriteJSON's order:
// graph name, tasks (name, weight), arcs (from, to, data), speeds,
// links, then the cost rows. Floats go in as their float64 bits;
// strings and every list are prefixed with their length, so the stream
// parses back unambiguously and no two problems share one. Uniform
// links hash as a tag plus the two scalars, per-pair links as every
// off-diagonal pair, so a large uniform platform costs O(P) here.
func hashInstance(h hash.Hash, in *sched.Instance) {
	k := keyHasher{h: h, buf: make([]byte, 0, keyHashBuf)}
	g := in.G
	k.str(g.Name())
	k.u64(uint64(g.Len()))
	for i := 0; i < g.Len(); i++ {
		t := g.Task(dag.TaskID(i))
		k.str(t.Name)
		k.f64(t.Weight)
	}
	k.u64(uint64(g.NumEdges()))
	for i := 0; i < g.Len(); i++ {
		for _, a := range g.Succ(dag.TaskID(i)) {
			k.u64(uint64(i))
			k.u64(uint64(a.To))
			k.f64(a.Data)
		}
	}
	p := in.P()
	k.u64(uint64(p))
	for q := 0; q < p; q++ {
		k.f64(in.Sys.Speed(q))
	}
	if lat, inv, ok := in.Sys.UniformLinks(); ok {
		k.u64(0)
		k.f64(lat)
		k.f64(inv)
	} else {
		k.u64(1)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i != j {
					k.f64(in.Sys.Startup(i, j))
					k.f64(in.Sys.InvRate(i, j))
				}
			}
		}
	}
	for _, row := range in.W {
		for _, c := range row {
			k.f64(c)
		}
	}
	k.flush()
}

// keyHashBuf is the staging size of a keyHasher: values are hashed a
// buffer at a time, not one 8-byte write each.
const keyHashBuf = 1 << 10

// keyHasher stages fixed-width values for a hash.
type keyHasher struct {
	h   hash.Hash
	buf []byte
}

func (k *keyHasher) u64(v uint64) {
	k.buf = binary.LittleEndian.AppendUint64(k.buf, v)
	if len(k.buf) >= keyHashBuf {
		k.flush()
	}
}

func (k *keyHasher) f64(v float64) { k.u64(math.Float64bits(v)) }

func (k *keyHasher) str(s string) {
	k.u64(uint64(len(s)))
	k.buf = append(k.buf, s...)
	if len(k.buf) >= keyHashBuf {
		k.flush()
	}
}

func (k *keyHasher) flush() {
	k.h.Write(k.buf) // hash.Hash.Write never returns an error
	k.buf = k.buf[:0]
}

// bodyDigest is the SHA-256 of one /v1/schedule request body.
type bodyDigest = [sha256.Size]byte

// storedAnswer is one response as the cache holds it, with the bytes a
// hit on it writes: what writeJSON writes for the response marked
// Cached, trailing newline included. They are encoded at most once, by
// the first caller of hitBytes (a hit, or the replica push of the
// compute that stored the response), outside the cache's lock. A put
// that replaces an entry's response stores a new storedAnswer, so a hit
// after it never writes the old bytes.
type storedAnswer struct {
	resp *ScheduleResponse
	once sync.Once
	hit  []byte
	err  error
}

// hitResponse returns a copy of the response marked Cached.
func (a *storedAnswer) hitResponse() *ScheduleResponse {
	cp := *a.resp
	cp.Cached = true
	return &cp
}

// hitBytes returns the encoded hit answer, encoding it on first use.
func (a *storedAnswer) hitBytes() ([]byte, error) {
	a.once.Do(func() {
		var b bytes.Buffer
		a.err = json.NewEncoder(&b).Encode(a.hitResponse())
		a.hit = b.Bytes()
	})
	return a.hit, a.err
}

// lruCache is a mutex-guarded LRU of schedule responses with hit/miss
// accounting. Stored responses are treated as immutable: lookups hand
// out the storedAnswer, never a response to modify.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recent
	byKey map[string]*list.Element // value: *cacheEntry
	// byBody indexes the entries by the digest of the request body
	// last answered from each; an entry holds one digest, which leaves
	// the index with it, so byBody never outgrows byKey.
	byBody   map[bodyDigest]*list.Element
	hits     int64
	misses   int64
	bodyHits int64
}

type cacheEntry struct {
	key string
	ans *storedAnswer
	// replica marks an entry that arrived via a peer's replication
	// push or cache probe rather than local computation — so a hit on
	// it is attributable to replication in the tier metrics.
	replica bool
	// body is the digest byBody maps to this entry, when hasBody.
	body    bodyDigest
	hasBody bool
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element), byBody: make(map[bodyDigest]*list.Element)}
}

// Get returns a copy of the cached response marked Cached (or nil),
// plus whether the entry was a replication-delivered copy. It counts
// one hit or one miss.
func (c *lruCache) Get(key string) (*ScheduleResponse, bool) {
	a, replica := c.lookup(key, true)
	if a == nil {
		return nil, false
	}
	return a.hitResponse(), replica
}

// Probe is Get for a peer's cache probe: it marks the entry most recent
// as Get does, so probes keep their place in the eviction order, but it
// counts neither a hit nor a miss. The request behind a probe counted
// its lookup on the node it entered, and the hit rate counts lookups.
// It returns the stored answer, whose hit bytes the probe writes.
func (c *lruCache) Probe(key string) *storedAnswer {
	a, _ := c.lookup(key, false)
	return a
}

func (c *lruCache) lookup(key string, count bool) (*storedAnswer, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if count && ok {
		c.hits++
	}
	if count && !ok {
		c.misses++
	}
	if !ok {
		return nil, false
	}
	e := c.recent(el)
	return e.ans, e.replica
}

// GetBody answers a request body by its digest: once a 200 for the same
// bytes was attached to an entry that is still cached, it returns that
// entry's stored answer and key. An unknown digest counts nothing; the
// request's own lookup by key counts its hit or miss.
func (c *lruCache) GetBody(d bodyDigest) (ans *storedAnswer, key string, replica bool) {
	if c.cap <= 0 {
		return nil, "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byBody[d]
	if !ok {
		return nil, "", false
	}
	c.hits++
	c.bodyHits++
	e := c.recent(el)
	return e.ans, e.key, e.replica
}

// recent marks el most recent and returns its entry. c.mu must be held.
func (c *lruCache) recent(el *list.Element) *cacheEntry {
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// AttachBody records that the body with digest d was answered 200 from
// key's entry, so the same bytes are next answered by GetBody; the
// entry's previous digest, if any, is dropped. It never creates an
// entry and never refreshes one: when key is not cached it does
// nothing.
func (c *lruCache) AttachBody(key string, d bodyDigest) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return
	}
	if _, ok := c.byBody[d]; ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.hasBody {
		delete(c.byBody, e.body)
	}
	e.body, e.hasBody = d, true
	c.byBody[d] = el
}

// Put stores a locally computed answer, evicting the least recently
// used entry when full. The caller must not mutate its response
// afterwards.
func (c *lruCache) Put(key string, ans *storedAnswer) {
	c.put(key, ans, false)
}

// PutReplica stores a replication-delivered copy. An entry this node
// already computed itself is left alone — local computation is
// authoritative and its tier attribution must not be downgraded.
func (c *lruCache) PutReplica(key string, resp *ScheduleResponse) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	el, ok := c.byKey[key]
	if ok && !el.Value.(*cacheEntry).replica {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.put(key, &storedAnswer{resp: resp}, true)
}

func (c *lruCache) put(key string, ans *storedAnswer, replica bool) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.ans, e.replica = ans, replica
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, ans: ans, replica: replica})
	c.byKey[key] = el
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		e := last.Value.(*cacheEntry)
		delete(c.byKey, e.key)
		if e.hasBody {
			delete(c.byBody, e.body)
		}
	}
}

// cacheSnap is one entry of a cache snapshot.
type cacheSnap struct {
	key string
	ans *storedAnswer
}

// Snapshot returns up to max entries, most recently used first — the
// order anti-entropy sweeps and leave handoffs want, since the hottest
// entries are the ones worth re-delivering under a bound.
func (c *lruCache) Snapshot(max int) []cacheSnap {
	if c.cap <= 0 || max <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheSnap, 0, min(max, c.ll.Len()))
	for el := c.ll.Front(); el != nil && len(out) < max; el = el.Next() {
		e := el.Value.(*cacheEntry)
		out = append(out, cacheSnap{key: e.key, ans: e.ans})
	}
	return out
}

// cacheStats is one reading of an lruCache's counters.
type cacheStats struct {
	hits, misses, bodyHits int64
	size, bodyDigests      int
}

// Stats returns the hit and miss counts (bodyHits of the hits were
// answered by body digest), the entry count and the digests held.
func (c *lruCache) Stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{hits: c.hits, misses: c.misses, bodyHits: c.bodyHits, size: c.ll.Len(), bodyDigests: len(c.byBody)}
}
