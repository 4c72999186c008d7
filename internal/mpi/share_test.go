package mpi

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// gateWalks has every rank of w pass a gate over all of them rounds
// times; each pass's walk runs s between Start and Finish with spin
// iterations of the walker's own work.
func gateWalks(w *World, s *Share, rounds, spin int, after func()) {
	ranks := make([]int, w.NumProcs())
	for i := range ranks {
		ranks[i] = i
	}
	g := w.NewGate(ranks)
	var sink atomic.Int64
	w.Run(func(p *Proc) {
		for round := 0; round < rounds; round++ {
			g.Pass(p, p.Rank(), 1, func() {
				s.Start()
				for i := 0; i < spin; i++ {
					sink.Add(1)
				}
				s.Finish()
				after()
			})
		}
	})
}

// TestShareRunsEveryItemOnce: however many workers help, each walk runs
// every item exactly once, and Finish returns only after all of them;
// with one worker the walker runs every item itself.
func TestShareRunsEveryItemOnce(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 127, 128} {
			t.Run(fmt.Sprint(n), func(t *testing.T) {
				w := testWorld(t, 2)
				hits := make([]atomic.Int32, n)
				s := w.NewShare(n, func(i int) { hits[i].Add(1) })
				helped := 0
				gateWalks(w, s, 100, 20000, func() {
					for i := range hits {
						if h := hits[i].Swap(0); h != 1 {
							t.Errorf("item %d ran %d times", i, h)
						}
					}
					if helped += n - s.own; runtime.GOMAXPROCS(0) == 1 && s.own != n {
						t.Errorf("one worker: the walker ran %d of %d items", s.own, n)
					}
				})
				t.Logf("helpers ran %d of %d items", helped, 100*n)
			})
		}
	})
}

// TestShareFinishesBesideBusyWorker: a walk whose world's other worker
// is busy running a rank is neither helped nor waits for help — the
// walker runs every item itself and returns.
func TestShareFinishesBesideBusyWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w := testWorld(t, 2) // ranks 0-3 on worker 0, 4-7 on worker 1
	g := w.NewGate([]int{0, 1})
	n := 128
	s := w.NewShare(n, func(int) {})
	var spinning, walked atomic.Bool
	w.Run(func(p *Proc) {
		switch r := p.Rank(); {
		case r == 4:
			spinning.Store(true)
			for deadline := time.Now().Add(10 * time.Second); !walked.Load(); {
				if time.Now().After(deadline) {
					t.Error("the walk did not finish beside a busy worker")
					return
				}
			}
		case r < 2:
			for !spinning.Load() {
				runtime.Gosched()
			}
			g.Pass(p, r, 1, func() {
				s.Start()
				s.Finish()
				walked.Store(true)
			})
		}
	})
	if s.own != n {
		t.Errorf("the walker ran %d of %d items, want all", s.own, n)
	}
}

// TestShareWalkDoesNotAllocate: a warm walk — Start, the helpers' wakes
// and claims, Finish — allocates nothing, at any worker count.
func TestShareWalkDoesNotAllocate(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		w := testWorld(t, 2)
		s := w.NewShare(128, func(int) {})
		walks := func(rounds int) uint64 {
			return mallocsDuring(func() { gateWalks(w, s, rounds, 5000, func() {}) })
		}
		walks(4) // warm-up: workers, fibers, the gate's first arrivals
		const extra = 200
		best := ^uint64(0)
		for try := 0; try < 3; try++ { // the least noisy of three
			one, many := walks(1), walks(1+extra)
			best = min(best, (many-min(many, one))/extra)
		}
		if best != 0 {
			t.Errorf("a warm walk allocates %d objects, want 0", best)
		}
	})
}
