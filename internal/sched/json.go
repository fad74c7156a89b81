package sched

import (
	"encoding/json"
	"fmt"
	"io"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

// instanceJSON is the stable on-disk form of a full problem instance:
// graph, system and cost matrix, sufficient to reproduce any experiment
// row bit-for-bit without the generator seed.
type instanceJSON struct {
	Graph   *dag.Graph  `json:"graph"`
	System  systemJSON  `json:"system"`
	Costs   [][]float64 `json:"costs"`
	Version int         `json:"version"`
}

type systemJSON struct {
	Speeds  []float64   `json:"speeds"`
	Startup [][]float64 `json:"startup"`
	InvRate [][]float64 `json:"invRate"`
}

// WriteJSON serializes the instance (graph, processors, link matrices and
// the full cost matrix) as indented JSON.
func (in *Instance) WriteJSON(w io.Writer) error {
	p := in.Sys.Len()
	sj := systemJSON{
		Speeds:  make([]float64, p),
		Startup: make([][]float64, p),
		InvRate: make([][]float64, p),
	}
	for i := 0; i < p; i++ {
		sj.Speeds[i] = in.Sys.Speed(i)
		sj.Startup[i] = make([]float64, p)
		sj.InvRate[i] = make([]float64, p)
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			sj.Startup[i][j] = in.Sys.CommCost(i, j, 0)
			sj.InvRate[i][j] = in.Sys.CommCost(i, j, 1) - sj.Startup[i][j]
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(instanceJSON{Graph: in.G, System: sj, Costs: in.W, Version: 1})
}

// ReadInstanceJSON reads an instance written by WriteJSON, re-validating
// every component.
func ReadInstanceJSON(r io.Reader) (*Instance, error) { return ReadInstanceJSONCapped(r, 0) }

// ReadInstanceJSONCapped is ReadInstanceJSON for untrusted input: when
// maxProcs > 0, an instance declaring more processors is rejected after
// decoding and before the platform's P×P link matrices are allocated.
func ReadInstanceJSONCapped(r io.Reader, maxProcs int) (*Instance, error) {
	var ij instanceJSON
	if err := json.NewDecoder(r).Decode(&ij); err != nil {
		return nil, fmt.Errorf("sched: decoding instance: %w", err)
	}
	if ij.Graph == nil {
		return nil, fmt.Errorf("sched: instance missing graph")
	}
	if p := len(ij.System.Speeds); maxProcs > 0 && p > maxProcs {
		return nil, fmt.Errorf("sched: instance declares %d processors, above the limit of %d", p, maxProcs)
	}
	sys, err := platform.New(platform.Config{
		Speeds:        ij.System.Speeds,
		StartupMatrix: ij.System.Startup,
		InvRateMatrix: ij.System.InvRate,
	})
	if err != nil {
		return nil, err
	}
	return NewInstance(ij.Graph, sys, ij.Costs)
}
