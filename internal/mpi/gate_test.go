package mpi

import "testing"

// TestGateForgetsFailedAttempt: a gate half passed in an attempt that
// deadlocks forgets those arrivals by itself at its next pass — the
// world keeps no list of its gates to reset — so the next attempt walks
// it exactly once, with every member under the new collective.
func TestGateForgetsFailedAttempt(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		w := testWorld(t, 2)
		np := w.NumProcs()
		ranks := make([]int, np)
		for i := range ranks {
			ranks[i] = i
		}
		g := w.NewGate(ranks)
		for round := 0; round < 20; round++ {
			err := w.TryRun(func(p *Proc) {
				if p.Rank() != np-1 {
					g.Pass(p, p.Rank(), 1, func() {})
				}
			})
			if _, ok := err.(*StallError); !ok {
				t.Fatalf("round %d: TryRun = %v, want a StallError", round, err)
			}
			walks := 0
			if err := w.TryRun(func(p *Proc) { g.Pass(p, p.Rank(), 2, func() { walks++ }) }); err != nil {
				t.Fatalf("round %d: run after the deadlock: %v", round, err)
			}
			if walks != 1 {
				t.Fatalf("round %d: the gate walked %d times, want 1", round, walks)
			}
		}
	})
}
