// Package suite assembles every scheduling algorithm in the repository
// behind one registry, the single place the CLI tools, experiments and
// examples look algorithms up by name.
package suite

import (
	"fmt"
	"sort"

	"dagsched/internal/algo"
	"dagsched/internal/algo/cluster"
	"dagsched/internal/algo/listsched"
	"dagsched/internal/algo/search"
	"dagsched/internal/core"
	"dagsched/internal/platform"
)

// All returns every heuristic (the exact BnB scheduler is excluded: it is
// exponential and exposed separately via package exact).
func All() []algo.Algorithm {
	return []algo.Algorithm{
		core.New(),
		core.NoDuplication(),
		core.NoLookahead(),
		core.RankOnly(),
		listsched.HEFT{},
		listsched.CPOP{},
		listsched.DLS{},
		listsched.HCPT{},
		listsched.PETS{},
		listsched.LMT{},
		listsched.MCP{},
		listsched.ETF{},
		listsched.HLFET{},
		listsched.ISH{},
		listsched.DSH{},
		listsched.BTDH{},
		cluster.DSC{},
		// HEFT and ILS through the shared one-port reservation layer
		// (Sinnen and Sousa's contention model): for ILS the whole
		// duplication/lookahead machinery runs against the reservations,
		// journaled and rolled back per speculative trial.
		algo.CommAware{Inner: listsched.HEFT{}, Kind: platform.KindOnePort, DisplayName: "C-HEFT"},
		algo.CommAware{Inner: core.New(), DisplayName: "C-ILS"},
	}
}

// Search returns the guided-random-search schedulers. They are kept out
// of All() because their cost per schedule is orders of magnitude above
// the list heuristics; experiment E15 compares them explicitly.
func Search() []algo.Algorithm {
	return []algo.Algorithm{
		search.HillClimb{},
		search.Anneal{},
		search.Genetic{},
	}
}

// Heterogeneous returns the algorithms conventionally compared on
// heterogeneous systems (the E1–E9 lineup).
func Heterogeneous() []algo.Algorithm {
	return []algo.Algorithm{
		core.New(),
		listsched.HEFT{},
		listsched.CPOP{},
		listsched.DLS{},
		listsched.DSH{},
		listsched.BTDH{},
	}
}

// Homogeneous returns the algorithms conventionally compared on
// homogeneous systems (the E10 lineup).
func Homogeneous() []algo.Algorithm {
	return []algo.Algorithm{
		core.New(),
		listsched.MCP{},
		listsched.ETF{},
		listsched.HLFET{},
		listsched.ISH{},
		listsched.DSH{},
		listsched.BTDH{},
		cluster.DSC{},
	}
}

// Ablation returns the four ILS variants plus HEFT, the E11 lineup.
func Ablation() []algo.Algorithm {
	return []algo.Algorithm{
		core.New(),
		core.NoDuplication(),
		core.NoLookahead(),
		core.RankOnly(),
		listsched.HEFT{},
	}
}

// ByName looks an algorithm up by its display name (case-sensitive),
// searching the heuristics and the search-based schedulers.
func ByName(name string) (algo.Algorithm, error) {
	for _, a := range append(All(), Search()...) {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("suite: unknown algorithm %q (known: %v)", name, Names())
}

// Names returns the sorted display names of every registered algorithm,
// including the search-based schedulers.
func Names() []string {
	var names []string
	for _, a := range append(All(), Search()...) {
		names = append(names, a.Name())
	}
	sort.Strings(names)
	return names
}
