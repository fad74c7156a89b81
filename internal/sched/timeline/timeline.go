// Package timeline implements the gap index behind the scheduling kernel
// and the contended communication models: a balanced-tree index over the
// idle gaps of one resource's timeline (a processor or a link) that
// answers insertion-policy earliest-fit queries in O(log k) for k
// occupied intervals, replacing the O(k) scan of the naive
// implementation.
//
// The index reproduces the reference linear-scan semantics bit for bit
// for every query at least m long, m being the shortest interval the
// owner places (a processor's cheapest task; 0 for a link). A gap is the
// idle interval [start, end) between the running maximum finish time of
// all earlier intervals and the start of the next one (plus a leading
// gap from 0 and an unbounded tail gap); an interval of length dur fits
// a gap when max(ready, gap.start) + dur <= gap.end + Eps, exactly the
// acceptance test of the reference scan, evaluated with the same
// floating-point expression. A gap an interval of length m does not fit
// is left out: float addition is monotone, so no longer interval fits it
// either. On a saturated processor nearly every placement at the tail
// leaves such an empty gap behind. With m = 0 every gap is kept, empty
// and epsilon-dust ones included. A query shorter than m gets no answer,
// unless it starts at or past the tail gap: the index keeps that gap's
// start, the latest finish, outside the tree, answers such a query with
// ready without a tree walk, and moves the start in place when an
// interval occupies the tail. An index that holds no finite gap, which
// is most of them while a list scheduler appends at every tail, answers
// every query without a walk: ready at or past the tail, else the tail
// for a query at least m long (TailOnly).
//
// The index only supports occupies that land inside a single idle gap —
// the invariant every earliest-fit-driven caller maintains. An occupy
// that straddles occupied intervals permanently degrades the index (OK
// reports false) and the caller must fall back to a linear scan; so does
// an occupy that would leave the index's gaps unlike the scan's, which
// takes an interval shorter than Eps. Schedule correctness never depends
// on the index.
package timeline

import "math"

// Eps is the slot-fit tolerance of every earliest-fit query, on
// processors and on links alike: it absorbs floating-point dust when
// deciding whether an interval fits a gap.
const Eps = 1e-9

// node is one idle gap, a treap node keyed by (start, end) and augmented
// with the maximum gap length in its subtree.
type node struct {
	start, end  float64
	prio        uint64
	left, right *node
	maxLen      float64
}

func (n *node) recompute() {
	n.maxLen = n.end - n.start
	if n.left != nil && n.left.maxLen > n.maxLen {
		n.maxLen = n.left.maxLen
	}
	if n.right != nil && n.right.maxLen > n.maxLen {
		n.maxLen = n.right.maxLen
	}
}

func keyLess(s1, e1, s2, e2 float64) bool {
	if s1 != s2 {
		return s1 < s2
	}
	return e1 < e2
}

// GapIndex indexes the idle gaps of one resource's timeline.
type GapIndex struct {
	// root holds every indexed gap but the tail gap [tail, +Inf), whose
	// start is the latest finish of any occupied interval.
	root *node
	tail float64
	ctr  uint64 // deterministic priority stream
	// m is the shortest query the index answers; it holds only the gaps
	// an interval of length m fits.
	m  float64
	ok bool
	// free chains the nodes del unlinked (through left), so the next
	// add reuses one instead of allocating. Clones start with an
	// empty list.
	free *node
}

// New returns an index over an empty timeline: one gap [0, +Inf). m is
// the shortest query the index answers (a processor's smallest execution
// cost; 0 answers every query).
func New(m float64) *GapIndex {
	return Build(m, []Gap{{Start: 0, End: math.Inf(1)}})
}

// Build returns an index over the given idle gaps, in order and the last
// the unbounded tail, leaving out every gap an interval of length m does
// not fit.
func Build(m float64, gaps []Gap) *GapIndex {
	last := len(gaps) - 1
	gi := &GapIndex{tail: gaps[last].Start, m: m, ok: true}
	for _, g := range gaps[:last] {
		gi.add(g.Start, g.End)
	}
	return gi
}

// nextPrio returns the next deterministic treap priority (splitmix64).
func (gi *GapIndex) nextPrio() uint64 {
	gi.ctr += 0x9e3779b97f4a7c15
	z := gi.ctr
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// OK reports whether the index still mirrors the timeline. It turns false
// permanently after an occupy that did not land inside a single idle gap;
// the caller must then answer queries by scanning the timeline directly.
func (gi *GapIndex) OK() bool { return gi.ok }

// MinDur returns m, the shortest query the index answers.
func (gi *GapIndex) MinDur() float64 { return gi.m }

// TailOnly returns the tail gap's start and whether the index is intact
// and holds no finite gap. Such an index answers EarliestFit(ready, dur)
// without a tree walk: ready when ready >= tail, else tail when dur is
// at least m.
func (gi *GapIndex) TailOnly() (tail float64, ok bool) {
	return gi.tail, gi.ok && gi.root == nil
}

// EarliestFit returns the reference-scan earliest start >= ready at which
// an interval of length dur fits, and whether the index could answer
// (false once degraded, or when dur is shorter than m and ready precedes
// the tail gap: the gaps such an interval might fit are not indexed).
func (gi *GapIndex) EarliestFit(ready, dur float64) (float64, bool) {
	if !gi.ok {
		return 0, false
	}
	// A query at or past the tail gap lands in it, and no fit starts
	// before ready.
	if ready >= gi.tail {
		return ready, true
	}
	if dur < gi.m {
		return 0, false
	}
	// The gap holding (or last preceding) ready: the rightmost indexed gap
	// with start <= ready. If any earlier gap fits, this one fits with the
	// same resulting start (gap ends are non-decreasing), so checking it
	// alone preserves the first-fit answer. A gap left out fits no
	// interval of length dur, so skipping it changes no answer.
	if g := pred(gi.root, ready); g != nil {
		if s := math.Max(ready, g.start); s+dur <= g.end+Eps {
			return s, true
		}
	}
	// Otherwise the leftmost gap strictly after ready that is long enough.
	if g := firstFit(gi.root, ready, dur); g != nil {
		return g.start, true
	}
	// The tail gap, which starts after ready, accepts everything.
	return gi.tail, true
}

// pred returns the rightmost gap with start <= ready.
func pred(n *node, ready float64) *node {
	var best *node
	for n != nil {
		if n.start <= ready {
			best, n = n, n.right
		} else {
			n = n.left
		}
	}
	return best
}

// firstFit returns the leftmost gap with start > ready satisfying the
// exact fit test start + dur <= end + Eps. Subtrees are pruned with a
// 2*Eps length margin so the approximate max-length bound can never
// exclude a gap the exact test would accept.
func firstFit(n *node, ready, dur float64) *node {
	if n == nil || n.maxLen < dur-2*Eps {
		return nil
	}
	if n.start > ready {
		if g := firstFit(n.left, ready, dur); g != nil {
			return g
		}
		if n.start+dur <= n.end+Eps {
			return n
		}
	}
	return firstFit(n.right, ready, dur)
}

// OccupyLog records everything needed to reverse one OccupyLogged call:
// the idle gap that was split, the occupied interval, and the priority
// counter before the call. It is a plain value so journaling allocates
// nothing.
type OccupyLog struct {
	// GapStart, GapEnd bound the idle gap the occupy split.
	GapStart, GapEnd float64
	// Start, Finish are the occupied interval.
	Start, Finish float64
	// Ctr is the deterministic priority counter before the occupy;
	// Revert restores it so the priority stream is independent of how
	// many speculative occupies were rolled back.
	Ctr uint64
}

// OccupyLogged removes [start, finish] from the gap that contains it,
// splitting the gap into its left and right remainders, and returns a
// journal record that Revert can undo exactly: after Revert the index
// holds the identical gap set and priority counter it had before the
// call (tree shape may differ; queries never depend on it). Records must
// be reverted in LIFO order. When the interval does not lie within a
// single idle gap, or the occupy would not be exact, the index degrades
// permanently.
//
// An occupy of the tail gap moves the tail's start to finish in place
// and indexes only the left remainder.
func (gi *GapIndex) OccupyLogged(start, finish float64) OccupyLog {
	l := OccupyLog{Start: start, Finish: finish, Ctr: gi.ctr}
	if !gi.ok {
		return l
	}
	if start >= gi.tail {
		l.GapStart, l.GapEnd = gi.tail, math.Inf(1)
		gi.add(gi.tail, start)
		gi.tail = finish
		return l
	}
	g := pred(gi.root, start)
	if g == nil || finish > g.end+Eps || !gi.exact(g, start, finish) {
		gi.ok = false
		gi.root = nil
		return l
	}
	gs, ge := g.start, g.end
	l.GapStart, l.GapEnd = gs, ge
	gi.remove(gs, ge)
	gi.add(gs, start)
	gi.add(finish, ge)
	return l
}

// exact reports whether occupying [start, finish] inside the finite gap
// g leaves the index answering as the reference scan does. Only an
// interval shorter than Eps breaks that: one starting past g's end sorts
// after the interval ending g, and an epsilon-dust fit past g's end
// delays the next gap (the tail when g is the last indexed one), which
// then starts before finish, when such an interval follows.
func (gi *GapIndex) exact(g *node, start, finish float64) bool {
	if start > g.end {
		return false
	}
	if finish <= g.end {
		return true
	}
	next := gi.tail
	if n := succ(gi.root, g.start, g.end); n != nil {
		next = n.start
	}
	return next >= finish
}

// succ returns the leftmost gap whose key follows (s, e).
func succ(n *node, s, e float64) *node {
	var best *node
	for n != nil {
		if keyLess(s, e, n.start, n.end) {
			best, n = n, n.left
		} else {
			n = n.right
		}
	}
	return best
}

// Revert undoes the most recent un-reverted OccupyLogged call: the
// remainder gaps the index holds give way to the original gap (for the
// tail, the left remainder is deleted and the tail's start moved back),
// and the priority counter is restored. A degraded index reverts
// nothing — degradation is permanent by design, so an occupy that found
// or left the index degraded has nothing to undo.
func (gi *GapIndex) Revert(l OccupyLog) {
	if !gi.ok {
		return
	}
	gi.remove(l.GapStart, l.Start)
	if math.IsInf(l.GapEnd, 1) {
		gi.tail = l.GapStart
	} else {
		gi.remove(l.Finish, l.GapEnd)
		gi.add(l.GapStart, l.GapEnd)
	}
	gi.ctr = l.Ctr
}

// holds reports whether the index keeps the gap [s, e): whether an
// interval of length m fits it, by the reference scan's fit test.
func (gi *GapIndex) holds(s, e float64) bool { return s+gi.m <= e+Eps }

// add indexes the gap [s, e) if the index holds it.
func (gi *GapIndex) add(s, e float64) {
	if !gi.holds(s, e) {
		return
	}
	x := gi.free
	if x != nil {
		gi.free = x.left
	} else {
		x = new(node)
	}
	*x = node{start: s, end: e, prio: gi.nextPrio()}
	gi.root = gi.ins(gi.root, x)
}

// remove deletes the gap [s, e) if the index holds it.
func (gi *GapIndex) remove(s, e float64) {
	if gi.holds(s, e) {
		gi.root = gi.del(gi.root, s, e)
	}
}

// recycle returns an unlinked node to the free list.
func (gi *GapIndex) recycle(n *node) {
	n.left = gi.free
	n.right = nil
	gi.free = n
}

func (gi *GapIndex) ins(n, x *node) *node {
	if n == nil {
		x.recompute()
		return x
	}
	if x.prio > n.prio {
		x.left, x.right = gi.split(n, x.start, x.end)
		x.recompute()
		return x
	}
	if keyLess(x.start, x.end, n.start, n.end) {
		n.left = gi.ins(n.left, x)
	} else {
		n.right = gi.ins(n.right, x)
	}
	n.recompute()
	return n
}

// split partitions the subtree into keys < (s, e) and keys >= (s, e).
func (gi *GapIndex) split(n *node, s, e float64) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if keyLess(n.start, n.end, s, e) {
		var mid *node
		mid, r = gi.split(n.right, s, e)
		n.right = mid
		n.recompute()
		return n, r
	}
	var mid *node
	l, mid = gi.split(n.left, s, e)
	n.left = mid
	n.recompute()
	return l, n
}

// merge joins two subtrees where every key in l precedes every key in r.
func (gi *GapIndex) merge(l, r *node) *node {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	if l.prio > r.prio {
		l.right = gi.merge(l.right, r)
		l.recompute()
		return l
	}
	r.left = gi.merge(l, r.left)
	r.recompute()
	return r
}

// del removes the gap with the exact key (s, e); the gap is known to
// exist, because OccupyLogged found it by predecessor search or the
// occupy being reverted indexed it.
func (gi *GapIndex) del(n *node, s, e float64) *node {
	if n == nil {
		return nil
	}
	if s == n.start && e == n.end {
		m := gi.merge(n.left, n.right)
		gi.recycle(n)
		return m
	}
	if keyLess(s, e, n.start, n.end) {
		n.left = gi.del(n.left, s, e)
	} else {
		n.right = gi.del(n.right, s, e)
	}
	n.recompute()
	return n
}

// Clone returns an independent deep copy of the index.
func (gi *GapIndex) Clone() *GapIndex {
	return &GapIndex{root: cloneNode(gi.root), tail: gi.tail, ctr: gi.ctr, m: gi.m, ok: gi.ok}
}

func cloneNode(n *node) *node {
	if n == nil {
		return nil
	}
	c := *n
	c.left = cloneNode(n.left)
	c.right = cloneNode(n.right)
	return &c
}

// Gap is one idle interval [Start, End).
type Gap struct{ Start, End float64 }

// Gaps returns the indexed idle gaps in key order, the tail last (nil
// once degraded).
func (gi *GapIndex) Gaps() []Gap {
	if !gi.ok {
		return nil
	}
	var out []Gap
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, Gap{Start: n.start, End: n.end})
		walk(n.right)
	}
	walk(gi.root)
	return append(out, Gap{Start: gi.tail, End: math.Inf(1)})
}
