package mpi

import (
	"runtime"
	"sync/atomic"
)

// Share is a job of n independent items, item i run by f(i), that the
// idle workers of a world help one rank run (DESIGN.md §6): the rank
// posts it with Start, goes on with its own work, and calls Finish,
// which runs every item no helper has claimed and returns once all n
// have run. A helper is a worker with no rank to run: Start wakes one
// idle worker, which wakes the next while items are left — so the
// poster pays one wake whatever the worker count — and a helper claims
// one item at a time and parks no rank. The world holds one job at a
// time: a Start that finds the slot taken leaves all of its items to
// its own Finish. Build a Share once per user, so that a run allocates
// nothing; f must not block.
type Share struct {
	w *World
	f func(i int)
	n int32

	// next is the next unclaimed item. Start resets it last, after done:
	// a helper still holding an earlier run's Share claims from this run
	// or finds it exhausted, and either way claims an item at most once.
	next, done atomic.Int32
	posted     bool // this run holds the world's slot
	own        int  // the items the poster ran itself in its last run
}

// NewShare builds the job of n items run by f.
func (w *World) NewShare(n int, f func(i int)) *Share {
	return &Share{w: w, f: f, n: int32(n)}
}

// Start posts the job and wakes an idle worker to help. Call it from a
// rank's turn, after writing everything the items read.
func (s *Share) Start() {
	s.done.Store(0)
	s.next.Store(0)
	if s.posted = s.w.job.CompareAndSwap(nil, s); s.posted {
		s.w.rouseIdle()
	}
}

// Finish runs the items nobody has claimed, then waits for those that
// helpers claimed to finish.
func (s *Share) Finish() {
	s.own = s.run()
	if s.posted {
		s.w.job.Store(nil)
	}
	for s.done.Load() < s.n {
		runtime.Gosched()
	}
}

// run claims and runs items until none is left; it returns how many.
func (s *Share) run() (ran int) {
	for i := s.next.Add(1) - 1; i < s.n; i = s.next.Add(1) - 1 {
		s.f(int(i))
		s.done.Add(1)
		ran++
	}
	return ran
}

// help runs the posted job's items on a woken worker, passing the wake on.
func (w *World) help() {
	if s := w.job.Load(); s != nil {
		if s.next.Load() < s.n {
			w.rouseIdle()
		}
		s.run()
	}
}

// rouseIdle wakes one idle worker of the world, if there is one.
func (w *World) rouseIdle() {
	for _, wk := range w.workers {
		if wk.rouse(nil) {
			return
		}
	}
}
