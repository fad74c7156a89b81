// Package timeline implements the gap index behind the fast scheduling
// kernel: a per-processor balanced-tree index over the idle gaps of a
// partial schedule that answers insertion-policy earliest-fit queries in
// O(log k) for k placed assignments, replacing the O(k) slot scan of the
// naive implementation.
//
// The index reproduces the reference linear-scan semantics bit for bit.
// A gap is the idle interval [start, end) between the running maximum
// finish time of all earlier assignments and the start of the next one
// (plus a leading gap from 0 and an unbounded tail gap); an interval of
// length dur fits a gap when max(ready, gap.start) + dur <= gap.end + eps,
// exactly the acceptance test of the reference scan, evaluated with the
// same floating-point expression. Occupying a slot splits one gap into a
// left and a right remainder; the remainders are kept even when they are
// empty or microscopically negative (epsilon-dust fits), because the
// reference scan sees those boundaries too.
//
// The index only supports placements that land inside a single idle gap —
// the invariant every FindSlot-driven scheduler maintains. A placement
// that straddles occupied intervals permanently degrades the index
// (OK reports false) and the caller must fall back to the linear scan;
// schedule correctness never depends on the index.
package timeline

import "math"

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

// GapIndex indexes the idle gaps of one processor's timeline.
type GapIndex struct {
	root *node
	ctr  uint64 // deterministic priority stream
	eps  float64
	ok   bool
	// free chains the nodes del unlinked (through left), so the next
	// insertGap reuses one instead of allocating. Clones start with an
	// empty list.
	free *node
}

// New returns an index over an empty timeline: one gap [0, +Inf). eps is
// the slot-fit tolerance of the reference scan (sched.slotEps).
func New(eps float64) *GapIndex {
	gi := &GapIndex{eps: eps, ok: true}
	root := &node{start: 0, end: math.Inf(1), prio: gi.nextPrio()}
	root.recompute()
	gi.root = root
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
// permanently after an Occupy that did not land inside a single idle gap;
// the caller must then answer queries by scanning the timeline directly.
func (gi *GapIndex) OK() bool { return gi.ok }

// EarliestFit returns the reference-scan earliest start >= ready at which
// an interval of length dur fits, and whether the index could answer
// (false once degraded).
func (gi *GapIndex) EarliestFit(ready, dur float64) (float64, bool) {
	if !gi.ok {
		return 0, false
	}
	// The gap holding (or last preceding) ready: the rightmost gap with
	// start <= ready. If any earlier gap fits, this one fits with the same
	// resulting start (gap ends are non-decreasing), so checking it alone
	// preserves the first-fit answer.
	if g := pred(gi.root, ready); g != nil {
		if s := math.Max(ready, g.start); s+dur <= g.end+gi.eps {
			return s, true
		}
	}
	// Otherwise the leftmost gap strictly after ready that is long enough.
	if g := firstFit(gi.root, ready, dur, gi.eps); g != nil {
		return g.start, true
	}
	// Unreachable: the unbounded tail gap accepts everything.
	return math.Inf(1), true
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
// exact fit test start + dur <= end + eps. Subtrees are pruned with a
// 2*eps length margin so the approximate max-length bound can never
// exclude a gap the exact test would accept.
func firstFit(n *node, ready, dur, eps float64) *node {
	if n == nil || n.maxLen < dur-2*eps {
		return nil
	}
	if n.start > ready {
		if g := firstFit(n.left, ready, dur, eps); g != nil {
			return g
		}
		if n.start+dur <= n.end+eps {
			return n
		}
	}
	return firstFit(n.right, ready, dur, eps)
}

// Occupy removes [start, finish] from the gap that contains it, splitting
// the gap into its left and right remainders. It returns false — and
// degrades the index permanently — when the interval does not lie within
// a single idle gap.
func (gi *GapIndex) Occupy(start, finish float64) bool {
	l := gi.OccupyLogged(start, finish)
	return l.WasOK && !l.Degraded
}

// OccupyLog records everything needed to reverse one OccupyLogged call:
// the idle gap that was split, the occupied interval, and the priority
// counter before the call. It is a plain value so journaling allocates
// nothing.
type OccupyLog struct {
	// GapStart, GapEnd bound the idle gap the occupy split (meaningful
	// only when WasOK and not Degraded).
	GapStart, GapEnd float64
	// Start, Finish are the occupied interval.
	Start, Finish float64
	// Ctr is the deterministic priority counter before the occupy;
	// Revert restores it so the priority stream is independent of how
	// many speculative occupies were rolled back.
	Ctr uint64
	// WasOK reports whether the index was intact before the occupy.
	WasOK bool
	// Degraded reports whether this occupy itself degraded the index.
	Degraded bool
}

// OccupyLogged is Occupy returning a journal record that Revert can undo
// exactly: after Revert the index holds the identical gap set and priority
// counter it had before the call (tree shape may differ; queries never
// depend on it). Records must be reverted in LIFO order.
func (gi *GapIndex) OccupyLogged(start, finish float64) OccupyLog {
	l := OccupyLog{Start: start, Finish: finish, Ctr: gi.ctr, WasOK: gi.ok}
	if !gi.ok {
		return l
	}
	g := pred(gi.root, start)
	if g == nil || finish > g.end+gi.eps {
		gi.ok = false
		gi.root = nil
		l.Degraded = true
		return l
	}
	gs, ge := g.start, g.end
	l.GapStart, l.GapEnd = gs, ge
	gi.root = gi.del(gi.root, gs, ge)
	gi.root = gi.insertGap(gi.root, gs, start)
	gi.root = gi.insertGap(gi.root, finish, ge)
	return l
}

// Revert undoes the most recent un-reverted OccupyLogged call: the two
// remainder gaps are deleted, the original gap reinstated, and the
// priority counter restored. A record whose occupy found (or left) the
// index degraded reverts to nothing — degradation is permanent by design
// and schedule correctness never depends on the index.
func (gi *GapIndex) Revert(l OccupyLog) {
	if !gi.ok || !l.WasOK || l.Degraded {
		return
	}
	gi.root = gi.del(gi.root, l.GapStart, l.Start)
	gi.root = gi.del(gi.root, l.Finish, l.GapEnd)
	gi.root = gi.insertGap(gi.root, l.GapStart, l.GapEnd)
	gi.ctr = l.Ctr
}

func (gi *GapIndex) insertGap(root *node, s, e float64) *node {
	x := gi.free
	if x != nil {
		gi.free = x.left
		*x = node{start: s, end: e, prio: gi.nextPrio()}
	} else {
		x = &node{start: s, end: e, prio: gi.nextPrio()}
	}
	return gi.ins(root, x)
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
// exist because Occupy found it by predecessor search.
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
	return &GapIndex{root: cloneNode(gi.root), ctr: gi.ctr, eps: gi.eps, ok: gi.ok}
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

// Gap is one idle interval, exported for tests and diagnostics.
type Gap struct{ Start, End float64 }

// Gaps returns the idle gaps in key order (nil once degraded).
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
	return out
}

// Len returns the number of indexed gaps (0 once degraded).
func (gi *GapIndex) Len() int {
	var count func(n *node) int
	count = func(n *node) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.left) + count(n.right)
	}
	return count(gi.root)
}
