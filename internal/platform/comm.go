package platform

import (
	"fmt"
	"math"

	"dagsched/internal/sched/timeline"
)

// Model kinds accepted by ModelByKind and reported by CommModel.Kind.
const (
	KindContentionFree = "contention-free"
	KindOnePort        = "one-port"
	KindSharedLink     = "shared-link"
)

// CommModel is the pluggable communication-cost model consulted by the
// scheduling substrate, the simulator and the service. A model answers two
// orthogonal questions: how long a transfer takes on an otherwise idle
// network (Cost/MeanCost), and which network resources it occupies while
// in flight (NewState). The classic contention-free model of the paper is
// the zero case: costs come straight from the System matrices and
// NewState returns nil — no resource ever serializes.
type CommModel interface {
	// Kind returns the model's registry name (one of the Kind* constants).
	Kind() string
	// Cost returns the idle-network transfer time of data units from
	// processor from to processor to; 0 when from == to.
	Cost(from, to int, data float64) float64
	// MeanCost averages Cost over all ordered distinct processor pairs —
	// the c̄ consumed by rank computations. 0 with fewer than 2 processors.
	MeanCost(data float64) float64
	// NewState returns a fresh reservation state for one scheduling or
	// replay run, or nil when the model has no contended resources.
	NewState() *CommState
}

// ModelKinds lists the registered model kinds in presentation order.
func ModelKinds() []string {
	return []string{KindContentionFree, KindOnePort, KindSharedLink}
}

// ModelByKind builds the named model with its default configuration over
// sys. The empty kind means contention-free; shared-link defaults to a
// single unit-bandwidth bus shared by every processor (use NewSharedLink
// for custom topologies).
func ModelByKind(kind string, sys *System) (CommModel, error) {
	switch kind {
	case "", KindContentionFree:
		return ContentionFree(sys), nil
	case KindOnePort:
		return OnePort(sys), nil
	case KindSharedLink:
		return NewSharedLink(sys, SharedLinkConfig{})
	default:
		return nil, fmt.Errorf("platform: unknown comm model %q (have %v)", kind, ModelKinds())
	}
}

// ContentionFree returns the classic fully connected contention-free
// model: costs are the System matrices and transfers never serialize.
func ContentionFree(sys *System) CommModel { return contentionFree{sys} }

type contentionFree struct{ sys *System }

func (m contentionFree) Kind() string { return KindContentionFree }
func (m contentionFree) Cost(from, to int, data float64) float64 {
	return m.sys.CommCost(from, to, data)
}
func (m contentionFree) MeanCost(data float64) float64 { return m.sys.MeanCommCost(data) }
func (m contentionFree) NewState() *CommState          { return nil }

// OnePort returns the one-port contention model in the spirit of Sinnen
// and Sousa: idle-network costs equal the contention-free matrices, but
// every processor has a single send port and a single receive port and
// inter-processor transfers serialize on both.
func OnePort(sys *System) CommModel { return onePort{sys} }

type onePort struct{ sys *System }

func (m onePort) Kind() string                            { return KindOnePort }
func (m onePort) Cost(from, to int, data float64) float64 { return m.sys.CommCost(from, to, data) }
func (m onePort) MeanCost(data float64) float64           { return m.sys.MeanCommCost(data) }

func (m onePort) NewState() *CommState {
	p := m.sys.Len()
	return newCommState(2*p, func(from, to int) (int, int) { return from, p + to })
}

// SharedLinkConfig describes a bus topology for NewSharedLink.
type SharedLinkConfig struct {
	// ProcLink[p] is the link (bus) processor p attaches to. Nil attaches
	// every processor to link 0: one bus shared by the whole system.
	ProcLink []int
	// Bandwidth[l] is the relative bandwidth of link l; missing entries
	// default to 1. The data term of a transfer is divided by the smallest
	// bandwidth on its route (startup is unaffected).
	Bandwidth []float64
}

// NewSharedLink builds the shared-link topology model: processors attach
// to buses, a transfer occupies every bus on its route (source's and
// destination's, one bus when they share it) for its whole duration, and
// per-link bandwidth rescales the data term of the cost.
func NewSharedLink(sys *System, cfg SharedLinkConfig) (CommModel, error) {
	p := sys.Len()
	link := cfg.ProcLink
	if link == nil {
		link = make([]int, p)
	}
	if len(link) != p {
		return nil, fmt.Errorf("platform: proc-link map has %d entries, want %d", len(link), p)
	}
	links := len(cfg.Bandwidth)
	for i, l := range link {
		if l < 0 {
			return nil, fmt.Errorf("platform: processor %d on negative link %d", i, l)
		}
		if l+1 > links {
			links = l + 1
		}
	}
	bw := make([]float64, links)
	for l := range bw {
		bw[l] = 1
	}
	for l, b := range cfg.Bandwidth {
		if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("platform: link %d has invalid bandwidth %g", l, b)
		}
		bw[l] = b
	}
	return &sharedLink{sys: sys, link: append([]int(nil), link...), bw: bw}, nil
}

type sharedLink struct {
	sys  *System
	link []int     // link id per processor
	bw   []float64 // bandwidth per link
}

func (m *sharedLink) Kind() string { return KindSharedLink }

func (m *sharedLink) Cost(from, to int, data float64) float64 {
	if from == to {
		return 0
	}
	bw := m.bw[m.link[from]]
	if b := m.bw[m.link[to]]; b < bw {
		bw = b
	}
	return m.sys.Startup(from, to) + data*m.sys.InvRate(from, to)/bw
}

func (m *sharedLink) MeanCost(data float64) float64 {
	p := m.sys.Len()
	if p < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				sum += m.Cost(i, j, data)
			}
		}
	}
	return sum / float64(p*(p-1))
}

func (m *sharedLink) NewState() *CommState {
	link := m.link
	return newCommState(len(m.bw), func(from, to int) (int, int) {
		a, b := link[from], link[to]
		if a == b {
			return a, -1
		}
		return a, b
	})
}

// CommState is the reservation state of a contended model while a
// schedule is built or replayed: a gap index per resource, holding every
// idle gap (m = 0), and a route mapping a processor pair to the (at most
// two) resources its transfers occupy. Reservations are journaled:
// Mark/Undo rewind them exactly, which is what lets a plan's trial
// journal (sched.Plan.Mark/Undo) trial contention-aware placements and
// take them back bit-for-bit (DESIGN.md invariant 8).
//
// A CommState is not safe for concurrent mutation. TransferStart is a
// pure query and may be called concurrently with other queries.
type CommState struct {
	res   []*timeline.GapIndex
	route func(from, to int) (int, int) // second resource -1 when absent
	log   []reservation                 // journal for Mark/Undo
}

// reservation journals one occupy of one resource's index.
type reservation struct {
	res int
	occ timeline.OccupyLog
}

func newCommState(resources int, route func(from, to int) (int, int)) *CommState {
	st := &CommState{res: make([]*timeline.GapIndex, resources), route: route}
	for i := range st.res {
		st.res[i] = timeline.New(0)
	}
	return st
}

// TransferStart returns the earliest time >= ready at which a transfer
// of the given duration can hold every resource on the from→to route
// simultaneously. It reserves nothing. It alternates between the
// route's resources until a start fits both; each iteration advances t
// past a busy interval, so it converges to the earliest feasible start.
func (st *CommState) TransferStart(from, to int, ready, dur float64) float64 {
	a, b := st.route(from, to)
	t := ready
	for {
		t1, _ := st.res[a].EarliestFit(t, dur)
		if b < 0 {
			return t1
		}
		t2, _ := st.res[b].EarliestFit(t1, dur)
		if t2 == t1 {
			return t1
		}
		t = t2
	}
}

// Reserve commits a transfer on every resource of the from→to route.
// Reservations with dur <= 0 are ignored. Overlapping a prior
// reservation panics: callers must reserve only starts obtained from
// TransferStart against the current state.
func (st *CommState) Reserve(from, to int, start, dur float64) {
	if dur <= 0 {
		return
	}
	a, b := st.route(from, to)
	st.occupy(a, start, start+dur)
	if b >= 0 {
		st.occupy(b, start, start+dur)
	}
}

// occupy reserves [start, finish) on resource r. An index never degrades
// on a start TransferStart answered unless the transfer is shorter than
// timeline.Eps, so an occupy it cannot hold is an overlap.
func (st *CommState) occupy(r int, start, finish float64) {
	occ := st.res[r].OccupyLogged(start, finish)
	if !st.res[r].OK() {
		panic("platform: overlapping link reservation")
	}
	st.log = append(st.log, reservation{r, occ})
}

// Mark returns the journal position for Undo.
func (st *CommState) Mark() int { return len(st.log) }

// Undo removes, newest first, every reservation made after Mark returned
// mark.
func (st *CommState) Undo(mark int) {
	for len(st.log) > mark {
		r := st.log[len(st.log)-1]
		st.log = st.log[:len(st.log)-1]
		st.res[r.res].Revert(r.occ)
	}
}

// Clone returns an independent deep copy whose journal baseline is the
// clone point: Undo(0) on the clone restores exactly this state.
func (st *CommState) Clone() *CommState {
	cp := &CommState{res: make([]*timeline.GapIndex, len(st.res)), route: st.route}
	for i, gi := range st.res {
		cp.res[i] = gi.Clone()
	}
	return cp
}
