package sched

import (
	"fmt"
	"math"
	"sort"

	"dagsched/internal/dag"
)

// Grow extends the instance in place after its graph, the live graph of
// a dag.Appendable, grew: changes are the blocks that Appendable.Grow
// rewrote, and w holds every task's cost row (rows of tasks the
// instance already has are not re-read). New cost rows are validated
// and appended with their statistics. In the per-arc mean-communication
// tables a moved block's unchanged prefix moves with it, and only new or
// shifted arcs get a value (their data was validated by the
// Appendable): MeanCommData runs once per such successor arc, and a
// predecessor arc copies its value from its source's successor row, so
// a new arc, reported in both blocks, pays for its mean once, as in
// NewInstance. Every value is the one NewInstance would
// compute on the same graph, so a grown instance is interchangeable
// with a fresh one; the streaming engine's flush depends on that. On
// error the instance is unchanged.
func (in *Instance) Grow(w [][]float64, changes []dag.BlockChange) error {
	oldN, n, p := len(in.meanW), in.G.Len(), in.P()
	if len(w) != n {
		return fmt.Errorf("sched: cost matrix has %d rows, want %d", len(w), n)
	}
	for i := oldN; i < n; i++ {
		if err := checkRow(i, w[i], p); err != nil {
			return err
		}
	}
	for i := oldN; i < n; i++ {
		base := len(in.wFlat)
		in.wFlat = append(in.wFlat, w[i]...)
		in.W = append(in.W, in.wFlat[base:base+p:base+p])
		mean, sigma := rowStats(w[i])
		in.meanW = append(in.meanW, mean)
		in.sigmaW = append(in.sigmaW, sigma)
		for _, v := range w[i] {
			in.minW = math.Min(in.minW, v)
		}
	}
	succSlots, predSlots := in.G.ArcSlots()
	in.meanCommSucc = extendTable(in.meanCommSucc, succSlots)
	in.meanCommPred = extendTable(in.meanCommPred, predSlots)
	// Successor blocks first: the predecessor blocks read their rows.
	for _, c := range changes {
		if c.Pred {
			continue
		}
		off := in.G.SuccStart(c.Task)
		moveKept(in.meanCommSucc, c, off)
		for j, a := range in.G.Succ(c.Task)[c.Keep:] {
			in.meanCommSucc[off+c.Keep+j] = in.MeanCommData(a.Data)
		}
	}
	for _, c := range changes {
		if !c.Pred {
			continue
		}
		off := in.G.PredStart(c.Task)
		moveKept(in.meanCommPred, c, off)
		for j, a := range in.G.Pred(c.Task)[c.Keep:] {
			// The source's successors are sorted by target id.
			succ := in.G.Succ(a.To)
			k := sort.Search(len(succ), func(i int) bool { return succ[i].To >= c.Task })
			in.meanCommPred[off+c.Keep+j] = in.meanCommSucc[in.G.SuccStart(a.To)+k]
		}
	}
	return nil
}

// moveKept copies a block's unchanged prefix in a per-arc table from
// its old offset to off, when the block moved.
func moveKept(table []float64, c dag.BlockChange, off int) {
	if c.Keep > 0 && c.OldOff != off {
		copy(table[off:off+c.Keep], table[c.OldOff:c.OldOff+c.Keep])
	}
}

// extendTable lengthens a per-arc table to slots entries, doubling its
// capacity when it runs out.
func extendTable(t []float64, slots int) []float64 {
	if slots > cap(t) {
		grown := make([]float64, len(t), 2*slots)
		copy(grown, t)
		t = grown
	}
	return t[:slots]
}
