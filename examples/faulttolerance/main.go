// Fault tolerance: what does losing a machine cost, and which schedule
// survives it best? Schedules a CyberShake workflow on 6 machines with
// three algorithms, analyzes each schedule's slack, then kills each
// processor at mid-execution and repairs, reporting the makespan damage.
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"dagsched"
)

func main() {
	g, err := dagsched.CyberShakeDAG(10)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	in, err := dagsched.MakeInstance(g, dagsched.WorkloadConfig{Procs: 6, CCR: 1, Beta: 0.8}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s (%d tasks) on 6 heterogeneous machines\n\n", g.Name(), g.Len())

	for _, name := range []string{"HEFT", "CPOP", "ILS"} {
		a, err := dagsched.AlgorithmByName(name)
		if err != nil {
			log.Fatal(err)
		}
		s, err := a.Schedule(in)
		if err != nil {
			log.Fatal(err)
		}
		an := dagsched.Analyze(s)
		fmt.Printf("== %s: makespan %.4g, %d/%d critical tasks ==\n",
			name, s.Makespan(), len(an.Critical), in.N())
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "failed proc\trepaired makespan\tgrowth\tlost\tmoved")
		worst := 0.0
		for p := 0; p < in.P(); p++ {
			_, out, err := dagsched.AssessFailure(s, dagsched.RepairEvent{Proc: p, Time: s.Makespan() / 2})
			if err != nil {
				log.Fatal(err)
			}
			growth := out.Repaired/out.Nominal - 1
			if growth > worst {
				worst = growth
			}
			fmt.Fprintf(tw, "P%d\t%.4g\t%+.1f%%\t%d\t%d\n",
				p, out.Repaired, 100*growth, out.Lost, out.Delayed+out.Remapped)
		}
		tw.Flush()
		fmt.Printf("worst-case single failure at t=ms/2: %+.1f%%\n\n", 100*worst)
	}
	fmt.Println("Note the pattern: tighter schedules (lower makespan) have less slack,")
	fmt.Println("so the same failure costs them relatively more to repair — the")
	fmt.Println("makespan-vs-resilience tradeoff quantified by experiment E19.")
}
