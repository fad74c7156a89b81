package sched

import (
	"encoding/json"
	"fmt"
	"io"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

// InstanceJSON is the stable on-disk form of a full problem instance:
// graph, system and cost matrix, sufficient to reproduce any experiment
// row bit-for-bit without the generator seed. It is plain data that
// encoding/json fills in one pass; Build validates it into an Instance.
type InstanceJSON struct {
	Graph   *dag.GraphJSON `json:"graph"`
	System  SystemJSON     `json:"system"`
	Costs   [][]float64    `json:"costs"`
	Version int            `json:"version"`
}

// SystemJSON is the system part of an InstanceJSON: processor speeds and
// the per-pair link matrices. Omitted matrices mean zero-cost links.
type SystemJSON struct {
	Speeds  []float64   `json:"speeds"`
	Startup [][]float64 `json:"startup"`
	InvRate [][]float64 `json:"invRate"`
}

// WriteJSON serializes the instance (graph, processors, link matrices and
// the full cost matrix) as indented JSON. Every value is written as
// stored, so ReadInstanceJSON rebuilds an instance with bit-identical
// costs.
func (in *Instance) WriteJSON(w io.Writer) error {
	p := in.Sys.Len()
	sj := SystemJSON{
		Speeds:  make([]float64, p),
		Startup: make([][]float64, p),
		InvRate: make([][]float64, p),
	}
	for i := 0; i < p; i++ {
		sj.Speeds[i] = in.Sys.Speed(i)
		sj.Startup[i] = make([]float64, p)
		sj.InvRate[i] = make([]float64, p)
		for j := 0; j < p; j++ {
			sj.Startup[i][j] = in.Sys.Startup(i, j)
			sj.InvRate[i][j] = in.Sys.InvRate(i, j)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(InstanceJSON{Graph: in.G.JSON(), System: sj, Costs: in.W, Version: 1})
}

// ReadInstanceJSON reads an instance written by WriteJSON, re-validating
// every component.
func ReadInstanceJSON(r io.Reader) (*Instance, error) {
	var ij InstanceJSON
	if err := json.NewDecoder(r).Decode(&ij); err != nil {
		return nil, fmt.Errorf("sched: decoding instance: %w", err)
	}
	return ij.Build(0)
}

// Build validates the wire form and returns the Instance. When
// maxProcs > 0, an instance declaring more processors is rejected before
// anything is built: untrusted input cannot make the platform allocate
// its link matrices.
func (ij *InstanceJSON) Build(maxProcs int) (*Instance, error) {
	if ij.Graph == nil {
		return nil, fmt.Errorf("sched: instance missing graph")
	}
	if p := len(ij.System.Speeds); maxProcs > 0 && p > maxProcs {
		return nil, fmt.Errorf("sched: instance declares %d processors, above the limit of %d", p, maxProcs)
	}
	g, err := ij.Graph.Build()
	if err != nil {
		return nil, err
	}
	sys, err := platform.New(platform.Config{
		Speeds:        ij.System.Speeds,
		StartupMatrix: ij.System.Startup,
		InvRateMatrix: ij.System.InvRate,
	})
	if err != nil {
		return nil, err
	}
	return NewInstance(g, sys, ij.Costs)
}
