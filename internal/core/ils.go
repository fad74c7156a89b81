// Package core names ILS (Improved List Scheduling), this repository's
// reconstruction of the paper's contribution: an insertion-based list
// scheduler for heterogeneous and homogeneous systems that improves on
// HEFT through three orthogonal, individually ablatable mechanisms:
//
//  1. σ-augmented upward rank — tasks whose execution cost varies strongly
//     across processors are prioritized, fixing volatile placement
//     decisions earlier (reduces to HEFT's rank on homogeneous systems);
//  2. one-step critical-child lookahead — processor selection minimizes
//     the estimated earliest finish time of the task's most critical
//     successor rather than of the task alone;
//  3. critical-parent duplication — the parent that dominates a task's
//     start time is copied into an idle slot of the candidate processor
//     when that strictly lowers the task's finish time.
//
// Each mechanism is a component of listsched.Param, the one list-
// scheduling placement loop: σ-rank is the PrioSigma priority, lookahead
// the SelectLookahead selection and duplication the DupGreedy policy. An
// ILS configuration is HEFT's grid point with some of them switched on.
// The full configuration is New; ILS-L (no duplication), ILS-D (no
// lookahead) and ILS-R (σ-rank only) are the ablation variants used by
// experiment E11.
package core

import "dagsched/internal/algo/listsched"

// Options selects the ILS mechanisms; the zero value (everything off)
// degenerates to plain HEFT.
type Options struct {
	// SigmaRank orders tasks by the σ-augmented upward rank instead of the
	// plain mean-cost upward rank.
	SigmaRank bool
	// Lookahead selects processors by the estimated EFT of the task's most
	// critical child instead of the task's own EFT.
	Lookahead bool
	// Duplication enables critical-parent duplication into idle slots.
	Duplication bool
	// MaxDups bounds accepted duplicates per placement (default 8).
	MaxDups int
}

// New returns the full ILS configuration (σ-rank + lookahead +
// duplication).
func New() listsched.Param {
	return Variant("ILS", Options{SigmaRank: true, Lookahead: true, Duplication: true})
}

// NoDuplication returns ILS-L: σ-rank and lookahead without duplication.
func NoDuplication() listsched.Param {
	return Variant("ILS-L", Options{SigmaRank: true, Lookahead: true})
}

// NoLookahead returns ILS-D: σ-rank and duplication without lookahead.
func NoLookahead() listsched.Param {
	return Variant("ILS-D", Options{SigmaRank: true, Duplication: true})
}

// RankOnly returns ILS-R: only the σ-augmented rank (HEFT otherwise).
func RankOnly() listsched.Param {
	return Variant("ILS-R", Options{SigmaRank: true})
}

// Variant returns the grid point of an ILS configuration under name, for
// ablation sweeps.
func Variant(name string, opts Options) listsched.Param {
	pm := listsched.HEFTParam()
	pm.DisplayName = name
	if opts.SigmaRank {
		pm.Priority = listsched.PrioSigma
	}
	if opts.Lookahead {
		pm.Select = listsched.SelectLookahead
	}
	if opts.Duplication {
		pm.Duplication = listsched.DupGreedy
		pm.MaxDups = opts.MaxDups
		if pm.MaxDups <= 0 {
			pm.MaxDups = 8
		}
	}
	return pm
}
