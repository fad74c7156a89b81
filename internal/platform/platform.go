// Package platform models the target computing system: a set of (possibly
// heterogeneous) processors connected by a network with per-link startup
// latency and transfer rate. Processors are fully connected, the standard
// assumption of the static-scheduling literature; communication between
// two tasks placed on the same processor is free.
package platform

import (
	"errors"
	"fmt"
	"math"
)

// Processor is one processing element. Speed is relative to a reference
// processor of speed 1.0: a task of nominal weight w takes w/Speed time
// under the "consistent" (related-machines) cost model.
type Processor struct {
	ID    int
	Name  string
	Speed float64
}

// System is an immutable description of the target machine.
type System struct {
	procs []Processor
	// startup[p][q] is the per-message latency and invRate[p][q] the time
	// per data unit of link p→q; only off-diagonal entries are read. On a
	// uniform platform every row is one shared row, so the matrices take
	// O(P) memory however many processors the system declares.
	startup [][]float64
	invRate [][]float64
	uniform bool // every distinct pair has the same links
}

// Config collects the options accepted by New.
type Config struct {
	// Speeds gives the relative speed of each processor; its length sets
	// the processor count. Every entry must be positive.
	Speeds []float64
	// Latency is the per-message startup cost applied to every distinct
	// processor pair (default 0).
	Latency float64
	// TimePerUnit is the transfer time of one data unit between every
	// distinct pair (default 1). A value of 0 models infinitely fast links
	// with only startup cost.
	TimePerUnit float64
	// StartupMatrix and InvRateMatrix, when non-nil, override Latency and
	// TimePerUnit with full per-pair matrices (diagonals are forced to 0).
	StartupMatrix [][]float64
	InvRateMatrix [][]float64
}

// New validates cfg and builds a System.
func New(cfg Config) (*System, error) {
	p := len(cfg.Speeds)
	if p == 0 {
		return nil, errors.New("platform: at least one processor required")
	}
	for i, s := range cfg.Speeds {
		if s <= 0 {
			return nil, fmt.Errorf("platform: processor %d has non-positive speed %g", i, s)
		}
	}
	if cfg.Latency < 0 {
		return nil, fmt.Errorf("platform: negative latency %g", cfg.Latency)
	}
	if cfg.TimePerUnit < 0 {
		return nil, fmt.Errorf("platform: negative time-per-unit %g", cfg.TimePerUnit)
	}
	sys := &System{procs: make([]Processor, p)}
	for i := range sys.procs {
		sys.procs[i] = Processor{ID: i, Name: fmt.Sprintf("P%d", i), Speed: cfg.Speeds[i]}
	}
	if err := checkMatrix(p, cfg.StartupMatrix, "startup"); err != nil {
		return nil, err
	}
	if err := checkMatrix(p, cfg.InvRateMatrix, "inverse-rate"); err != nil {
		return nil, err
	}
	// A one-processor system has no distinct pair, so its link values
	// are unobservable: all of them keep the same zero links.
	var lat, inv float64
	sys.uniform = true
	if p > 1 {
		var latOK, invOK bool
		lat, latOK = uniformValue(cfg.Latency, cfg.StartupMatrix)
		inv, invOK = uniformValue(cfg.TimePerUnit, cfg.InvRateMatrix)
		sys.uniform = latOK && invOK
	}
	if sys.uniform {
		sys.startup, sys.invRate = sharedRows(p, lat), sharedRows(p, inv)
	} else {
		sys.startup = fullMatrix(p, cfg.Latency, cfg.StartupMatrix)
		sys.invRate = fullMatrix(p, cfg.TimePerUnit, cfg.InvRateMatrix)
	}
	// Individually valid entries can still overflow the unit-message cost
	// (startup + inverse rate); a system whose links cost +Inf poisons
	// every downstream computation and cannot be re-serialized.
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if su, ir := sys.Startup(i, j), sys.InvRate(i, j); math.IsInf(su+ir, 1) || math.IsNaN(su+ir) {
				return nil, fmt.Errorf("platform: link (%d,%d) unit cost overflows: startup %g + inverse rate %g", i, j, su, ir)
			}
		}
		if sys.uniform {
			break // every row of a uniform system is row 0
		}
	}
	return sys, nil
}

// checkMatrix validates an override matrix's shape and off-diagonal
// entries; a nil matrix is valid.
func checkMatrix(p int, m [][]float64, what string) error {
	if m == nil {
		return nil
	}
	if len(m) != p {
		return fmt.Errorf("platform: %s matrix has %d rows, want %d", what, len(m), p)
	}
	for i, row := range m {
		if len(row) != p {
			return fmt.Errorf("platform: %s matrix row %d has %d cols, want %d", what, i, len(row), p)
		}
		for j, v := range row {
			if i != j && v < 0 {
				return fmt.Errorf("platform: %s[%d][%d] negative: %g", what, i, j, v)
			}
		}
	}
	return nil
}

// uniformValue reports the value every distinct pair of a link
// parameter takes, and whether there is one: the scalar when no matrix
// overrides it, else the matrix's off-diagonal entry when all of them
// are bit-identical. m, when set, is a checked matrix of two or more
// processors.
func uniformValue(scalar float64, m [][]float64) (float64, bool) {
	if m == nil {
		return scalar, true
	}
	first := math.Float64bits(m[0][1])
	for i, row := range m {
		for j, v := range row {
			if i != j && math.Float64bits(v) != first {
				return 0, false
			}
		}
	}
	return m[0][1], true
}

// sharedRows returns a p×p matrix whose rows are all one row holding v.
func sharedRows(p int, v float64) [][]float64 {
	row := make([]float64, p)
	for j := range row {
		row[j] = v
	}
	m := make([][]float64, p)
	for i := range m {
		m[i] = row
	}
	return m
}

// fullMatrix returns a fresh p×p matrix with a zero diagonal, its other
// entries copied from override or, when override is nil, all scalar.
func fullMatrix(p int, scalar float64, override [][]float64) [][]float64 {
	m := make([][]float64, p)
	for i := range m {
		m[i] = make([]float64, p)
		for j := range m[i] {
			switch {
			case i == j:
			case override != nil:
				m[i][j] = override[i][j]
			default:
				m[i][j] = scalar
			}
		}
	}
	return m
}

// MustNew is New that panics on error, for generators and tests.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Homogeneous returns a system of p identical unit-speed processors with
// the given per-message latency and per-unit transfer time on every link.
func Homogeneous(p int, latency, timePerUnit float64) *System {
	return MustNew(Config{Speeds: unitSpeeds(p), Latency: latency, TimePerUnit: timePerUnit})
}

// UnitSpeed builds the platform of a bare graph read from input (a
// schedd request or stream session, a replayed event log): procs
// unit-speed processors (8 when procs <= 0) on uniform links with the
// given latency and time per unit (1 when 0). Where Homogeneous panics,
// it returns an error, negative link parameters among them.
func UnitSpeed(procs int, latency, timePerUnit float64) (*System, error) {
	if procs <= 0 {
		procs = 8
	}
	if timePerUnit == 0 {
		timePerUnit = 1
	}
	if latency < 0 || timePerUnit < 0 {
		return nil, errors.New("negative link parameters")
	}
	return New(Config{Speeds: unitSpeeds(procs), Latency: latency, TimePerUnit: timePerUnit})
}

func unitSpeeds(p int) []float64 {
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = 1
	}
	return speeds
}

// Len returns the number of processors.
func (s *System) Len() int { return len(s.procs) }

// Proc returns processor p.
func (s *System) Proc(p int) Processor { return s.procs[p] }

// Procs returns a copy of the processor list.
func (s *System) Procs() []Processor {
	out := make([]Processor, len(s.procs))
	copy(out, s.procs)
	return out
}

// Speed returns the relative speed of processor p.
func (s *System) Speed(p int) float64 { return s.procs[p].Speed }

// Startup returns the per-message startup latency of link p→q (0 on the
// diagonal).
func (s *System) Startup(p, q int) float64 {
	if p == q {
		return 0
	}
	return s.startup[p][q]
}

// InvRate returns the per-data-unit transfer time of link p→q (0 on the
// diagonal).
func (s *System) InvRate(p, q int) float64 {
	if p == q {
		return 0
	}
	return s.invRate[p][q]
}

// UniformLinks returns the latency and per-data-unit transfer time every
// distinct processor pair shares, with ok false when links differ
// between pairs. A single-processor system reports zero links.
func (s *System) UniformLinks() (latency, invRate float64, ok bool) {
	if !s.uniform || len(s.procs) < 2 {
		return 0, 0, s.uniform
	}
	return s.startup[0][1], s.invRate[0][1], true
}

// LinksFrom returns the startup and inverse-rate rows of the links out of
// processor p: entry q is Startup(p, q) and InvRate(p, q) for q != p.
// Entry p is no link, and CommCost charges nothing there. The rows are
// the system's own and must not be modified.
func (s *System) LinksFrom(p int) (startup, invRate []float64) {
	return s.startup[p], s.invRate[p]
}

// CommCost returns the time to transfer data units from processor p to q:
// zero when p == q, otherwise startup + data * invRate.
func (s *System) CommCost(p, q int, data float64) float64 {
	if p == q {
		return 0
	}
	return s.startup[p][q] + data*s.invRate[p][q]
}

// MeanCommCost returns the average over all ordered distinct pairs of the
// cost of transferring data units — the c̄ used by rank computations.
// With a single processor it returns 0. The sum runs pair by pair in
// row-major order; under uniform links every pair adds the same cost, and
// repeatedSum reproduces that sum bit for bit in O(log P) steps.
func (s *System) MeanCommCost(data float64) float64 {
	p := len(s.procs)
	if p < 2 {
		return 0
	}
	if v := s.startup[0][1] + data*s.invRate[0][1]; s.uniform && v >= 0 {
		return repeatedSum(v, p*(p-1)) / float64(p*(p-1))
	}
	var sum float64
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				sum += s.startup[i][j] + data*s.invRate[i][j]
			}
		}
	}
	return sum / float64(p*(p-1))
}

// repeatedSum returns the float64 sum 0 + v + v + … of n copies of
// v ≥ 0, rounded after every addition as a plain loop rounds it, in
// O(log n) steps. Between two powers of two (a binade; the subnormals
// share the first normal binade's ulp) every float is a multiple of the
// binade's ulp u, so a step whose exact sum stays inside it adds v
// rounded to a multiple of u. That multiple is the same at every step
// but on a tie, where round-half-even picks the even sum: after one step
// inside the binade the sum is an even multiple of u, and from then on
// every step adds the same even amount. So once two successive steps
// stay in one binade, each step until the sum would leave it adds the
// second step's increment d, and k of them add k·d to the bit pattern:
// one multiply. A sum that reaches +Inf stays there (d = 0).
func repeatedSum(v float64, n int) float64 {
	s, settled := 0.0, false
	for n > 0 {
		t := s + v
		n--
		inRange := binade(s) == binade(t)
		if inRange && settled && n > 0 {
			sb, tb := math.Float64bits(s), math.Float64bits(t)
			d := tb - sb
			k := uint64(n)
			if top := (binade(t) + 1) << 52; d > 0 && (top-1-tb)/d < k {
				k = (top - 1 - tb) / d
			}
			t = math.Float64frombits(tb + k*d)
			n -= int(k)
		}
		s, settled = t, inRange
	}
	return s
}

// binade returns the biased exponent of a non-negative float, with the
// subnormals counted in the first normal binade: across the two, a
// float's value is its bit pattern times the one ulp they share.
func binade(x float64) uint64 {
	return max(math.Float64bits(x)>>52, 1)
}

// IsHomogeneous reports whether all processors share one speed.
func (s *System) IsHomogeneous() bool {
	for _, p := range s.procs[1:] {
		if p.Speed != s.procs[0].Speed {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (s *System) String() string {
	kind := "heterogeneous"
	if s.IsHomogeneous() {
		kind = "homogeneous"
	}
	return fmt.Sprintf("system(%d %s processors)", len(s.procs), kind)
}
