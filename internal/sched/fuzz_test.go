package sched

import (
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/platform"
)

// FuzzReadyRow reads a small plan from the input bytes and checks that
// ReadyRow equals DataReady on every processor, bit for bit, before each
// placement (checkReadyRows). The bytes give, in order: the task count
// (2–21), the processor count (1–6), the communication model and whether
// every link is equal (odd: one startup and one time per data unit for
// all of them); per task from the second on, up to three predecessors
// with their data; each task's cost on every processor (0–5); the
// startup (0–3) and time per data unit (0.5–2) of every link, or of all
// of them; then, while bytes last, where each task goes and where it is
// duplicated. Once the bytes run out every read answers 1. Under the
// contention-free model the plan is built twice: first with the
// instance's default model, which reads the placement bytes, then with
// the model object.
func FuzzReadyRow(f *testing.F) {
	// A diamond on three processors with a zero-cost task, contention-
	// free: the source is copied onto every processor and both of the
	// sink's parents are duplicated.
	f.Add([]byte{2, 2, 0, 0, 1, 0, 2, 1, 0, 1, 2, 1, 3, 2, 1, 3, 4, 5, 1, 2, 3, 4, 5, 0, 1, 2, 0, 0, 1, 1, 0, 2, 1, 1, 0, 0, 1, 3, 2, 2, 1, 1, 3, 0, 0, 0, 0, 1, 0, 2, 1, 1, 0, 2, 1, 2, 0, 0, 1, 0, 1})
	// The same under one-port and shared-link.
	f.Add([]byte{2, 2, 1, 0, 1, 0, 2, 1, 0, 1, 2, 1, 3, 2, 1, 3, 4, 5, 1, 2, 3, 4, 5, 0, 1, 2, 0, 0, 1, 1, 0, 2, 1, 1, 0, 0, 1, 3, 2, 2, 1, 1, 3, 0, 0, 0, 0, 1, 0, 2, 1, 1, 0, 2, 1, 2, 0, 0, 1, 0, 1})
	f.Add([]byte{2, 2, 2, 0, 1, 0, 2, 1, 0, 1, 2, 1, 3, 2, 1, 3, 4, 5, 1, 2, 3, 4, 5, 0, 1, 2, 0, 0, 1, 1, 0, 2, 1, 1, 0, 0, 1, 3, 2, 2, 1, 1, 3, 0, 0, 0, 0, 1, 0, 2, 1, 1, 0, 2, 1, 2, 0, 0, 1, 0, 1})
	// A fan-in on five processors with uniform links (startup 1, half a
	// time unit per data unit), contention-free: the sink's three parents
	// send 3, 0 and 1 data units, and the first two have a second copy;
	// the first one's copy on P2 finishes before its data could arrive
	// there from P0.
	f.Add([]byte{3, 4, 0, 1, 0, 0, 0, 3, 0, 3, 1, 0, 2, 1, 1, 2, 3, 4, 5, 2, 3, 0, 1, 2, 3, 1, 2, 4, 0, 4, 4, 1, 2, 3, 1, 2, 3, 4, 5, 1, 0, 0, 0, 2, 1, 1, 0, 3, 1, 4, 1, 2, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 1
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n, procs := 2+next()%20, 1+next()%6
		kind := platform.ModelKinds()[next()%3]
		uniform := next()%2 == 1
		b := dag.NewBuilder("fuzz")
		for i := 0; i < n; i++ {
			b.AddTask("", 1)
		}
		for j := 1; j < n; j++ {
			seen := map[int]bool{}
			for k := next() % 4; k > 0; k-- {
				if i := next() % j; !seen[i] {
					seen[i] = true
					b.AddEdge(dag.TaskID(i), dag.TaskID(j), float64(next()%4))
				}
			}
		}
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, procs)
			for p := range w[i] {
				w[i][p] = float64(next() % 6)
			}
		}
		speeds := make([]float64, procs)
		for p := range speeds {
			speeds[p] = 1
		}
		cfg := platform.Config{Speeds: speeds}
		if uniform {
			cfg.Latency, cfg.TimePerUnit = float64(next()%4), 0.5*float64(1+next()%4)
		} else {
			cfg.StartupMatrix, cfg.InvRateMatrix = make([][]float64, procs), make([][]float64, procs)
			for p := range speeds {
				cfg.StartupMatrix[p], cfg.InvRateMatrix[p] = make([]float64, procs), make([]float64, procs)
				for q := range speeds {
					cfg.StartupMatrix[p][q], cfg.InvRateMatrix[p][q] = float64(next()%4), 0.5*float64(1+next()%4)
				}
			}
		}
		sys, err := platform.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := NewInstance(b.MustBuild(), sys, w)
		if err != nil {
			t.Fatal(err)
		}
		m, err := platform.ModelByKind(kind, sys)
		if err != nil {
			t.Fatal(err)
		}
		if kind == platform.KindContentionFree {
			checkReadyRows(t, in, next)
		}
		checkReadyRows(t, in.WithComm(m), next)
	})
}
