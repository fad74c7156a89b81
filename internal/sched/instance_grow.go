package sched

import (
	"fmt"
	"math"

	"dagsched/internal/dag"
)

// Grow extends the instance in place after its graph, the live graph of
// a dag.Appendable, grew: changes are the blocks that Appendable.Grow
// rewrote, and w holds every task's cost row (rows of tasks the
// instance already has are not re-read). New cost rows are validated
// and appended with their statistics. In the per-arc mean-communication
// tables a moved block's unchanged prefix moves with it, and
// MeanCommData runs only for new or shifted arcs (their data was
// validated by the Appendable). Every value is the one NewInstance would
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
	for _, c := range changes {
		table, arcs, off := in.meanCommSucc, in.G.Succ(c.Task), in.G.SuccStart(c.Task)
		if c.Pred {
			table, arcs, off = in.meanCommPred, in.G.Pred(c.Task), in.G.PredStart(c.Task)
		}
		if c.Keep > 0 && c.OldOff != off {
			copy(table[off:off+c.Keep], table[c.OldOff:c.OldOff+c.Keep])
		}
		for j := c.Keep; j < len(arcs); j++ {
			table[off+j] = in.MeanCommData(arcs[j].Data)
		}
	}
	return nil
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
