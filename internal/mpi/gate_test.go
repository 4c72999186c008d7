package mpi

import (
	"testing"

	"numabfs/internal/machine"
)

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

// BenchmarkGateStep prices one full shift of 128 members on 16 nodes per
// op — each member sends 4 KiB to its successor, a ring step: seven
// intra-node pairs per node over 7 streams, one inter-node pair over 2 —
// through Post and Step, and reports the time per priced message.
func BenchmarkGateStep(b *testing.B) {
	cfg := machine.TableI()
	cfg.Nodes, cfg.WeakNode = 16, -1
	w := NewWorld(cfg, machine.PlacementFor(cfg, machine.PPN8Bind))
	n := w.NumProcs()
	ranks, wire, streams := make([]int, n), make([]int64, n), make([]int, n)
	for i := range ranks {
		ranks[i], wire[i], streams[i] = i, 4096, 7
		if w.Proc(i).Node() != w.Proc((i+1)%n).Node() {
			streams[i] = 2
		}
	}
	g, s := w.NewGate(ranks), Shift{D: 1, Every: 1, Below: n}
	b.ResetTimer()
	for range b.N {
		g.Post(s, wire, wire, streams)
		g.Step(s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/msg")
}
