package suite

import (
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/sched"
	"dagsched/internal/sim"
	"dagsched/internal/testfix"
)

const replayEps = 1e-6

// TestRegistryOnePortReplayProperty is the contract the pluggable comm
// layer must honour for every algorithm in the registry: replaying any
// valid schedule under the one-port model (1) keeps it precedence-valid
// — every consumer still starts after the data from its routed source
// copies arrives, which the replay itself enforces and the monotonicity
// below witnesses — and (2) only ever moves starts later than the
// contention-free replay, never earlier, because serializing transfers
// on ports can delay an arrival but transfer durations are unchanged.
func TestRegistryOnePortReplayProperty(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			testfix.Battery(testfix.BatteryConfig{Trials: 6, MaxCCR: 8, Seed: 7100}, func(trial int, in *sched.Instance) {
				s, err := a.Schedule(in)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if err := s.Validate(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				free, err := sim.Run(s, sim.Config{})
				if err != nil {
					t.Fatalf("trial %d free replay: %v", trial, err)
				}
				cont, err := sim.Run(s, sim.Config{Contention: true})
				if err != nil {
					t.Fatalf("trial %d contended replay: %v", trial, err)
				}
				if cont.Makespan < free.Makespan-replayEps {
					t.Fatalf("trial %d: contended makespan %g below contention-free %g",
						trial, cont.Makespan, free.Makespan)
				}
				for i := range cont.Start {
					if cont.Start[i] < free.Start[i]-replayEps {
						t.Fatalf("trial %d: task %d starts at %g contended, earlier than %g contention-free",
							trial, i, cont.Start[i], free.Start[i])
					}
				}
				// On duplication-free schedules the primary copies are the
				// only copies, so the replayed times must directly satisfy
				// every precedence edge.
				hasDup := false
				for p := 0; p < in.P(); p++ {
					for _, c := range s.OnProc(p) {
						if c.Dup {
							hasDup = true
						}
					}
				}
				if hasDup {
					return
				}
				for u := 0; u < in.N(); u++ {
					for _, e := range in.G.Succ(dag.TaskID(u)) {
						if cont.Start[e.To] < cont.Finish[u]-replayEps {
							t.Fatalf("trial %d: edge %d->%d violated contended: start %g < finish %g",
								trial, u, e.To, cont.Start[e.To], cont.Finish[u])
						}
					}
				}
			})
		})
	}
}
