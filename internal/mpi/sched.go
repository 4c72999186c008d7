//go:build go1.23

package mpi

import (
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the host scheduler under TryRun (DESIGN.md §6 has the
// argument and the numbers). Each live rank's body runs on a pooled
// fiber, an iter.Pull coroutine; min(GOMAXPROCS, live ranks) workers
// resume them, live rank i on worker i*nw/len for the whole run, so ring
// and node-barrier neighbours share a worker. A rank that parks yields
// to its worker, which resumes the next rank of its FIFO run list. A
// waker on the same worker appends a claimed rank to that list without a
// lock; any other posts it to the worker's inbox, signalling the worker
// only if it is idle. An idle worker woken for a Share (share.go) helps
// with its items before looking for a rank again.
//
// Quiescence. An idle worker counts itself in World.quiet under its
// inbox lock, a finished one on its way out. A waker uncounts the idle
// worker it signals and a worker handling a quiescence uncounts itself
// before waking anybody, so quiet never counts a worker that can still
// make a rank runnable, and the worker whose count completes it knows no
// rank runs or can run. The count moves per idle spell, never per park.
//
// A rank body must block the host only inside waitFor: any other block
// (a channel, a lock held across a call of this package, runtime.Goexit)
// stalls every rank of its worker.

// worker resumes its share of the live ranks, one at a time.
type worker struct {
	w    *World
	left int // ranks of its share whose bodies have not finished

	// ring is the run list, as long as the share: a rank is in it or in
	// the inbox at most once, between its claim and its resume.
	ring    []*Proc
	head, n int

	mu     sync.Mutex
	inbox  []*Proc
	posted atomic.Bool   // the inbox is not empty; read without the lock
	idle   bool          // blocked on wake, or about to; cleared by whoever wakes it
	wake   chan struct{} // capacity 1: one token per idle spell
}

// schedule runs body once per live rank and returns when every body has
// returned, crashed or unwound. The calling goroutine is worker 0.
func (w *World) schedule(body func(*Proc)) {
	ranks := w.globalBarrier.members
	nw := min(runtime.GOMAXPROCS(0), len(ranks))
	if len(w.workers) != nw {
		w.workers = make([]*worker, nw)
		for i := range w.workers {
			w.workers[i] = &worker{w: w, wake: make(chan struct{}, 1)}
		}
	}
	for _, wk := range w.workers {
		wk.ring, wk.head = wk.ring[:0], 0
	}
	fibers.Lock()
	for i, p := range ranks {
		p.wk = w.workers[i*nw/len(ranks)]
		p.wk.ring = append(p.wk.ring, p)
		p.parked.Store(parkNone)
		if n := len(fibers.free); n > 0 {
			p.fib, fibers.free = fibers.free[n-1], fibers.free[:n-1]
		} else {
			p.fib = newFiber()
			fibers.made++
		}
		p.fib.p, p.fib.body = p, body
	}
	fibers.Unlock()
	w.quiet.Store(0)
	w.workersDone.Add(nw)
	for i, wk := range w.workers {
		wk.n, wk.left = len(wk.ring), len(wk.ring)
		if i > 0 {
			go wk.loop()
		}
	}
	if nw > 0 {
		w.workers[0].loop()
	}
	w.workersDone.Wait()
	fibers.Lock()
	for _, p := range ranks {
		fibers.free = append(fibers.free, p.fib)
		p.fib = nil
	}
	fibers.Unlock()
}

// loop resumes the worker's runnable ranks until its whole share has
// finished.
func (wk *worker) loop() {
	w := wk.w
	defer w.workersDone.Done()
	for wk.left > 0 {
		if p := wk.next(); p == nil {
			wk.sleep()
		} else if done, _ := p.fib.resume(); done {
			wk.left--
		}
	}
	for w.quiet.Add(1) == int32(len(w.workers)) && w.quiesce() {
	}
}

// next pops the next runnable rank, appending what the inbox holds
// first. With nothing to run it marks the worker idle, under the lock a
// remote waker takes, and returns nil.
func (wk *worker) next() *Proc {
	if wk.n == 0 || wk.posted.Load() {
		wk.mu.Lock()
		for _, p := range wk.inbox {
			wk.push(p)
		}
		wk.inbox = wk.inbox[:0]
		wk.posted.Store(false)
		wk.idle = wk.n == 0
		wk.mu.Unlock()
		if wk.n == 0 {
			return nil
		}
	}
	p := wk.ring[wk.head]
	if wk.head++; wk.head == len(wk.ring) {
		wk.head = 0
	}
	wk.n--
	return p
}

func (wk *worker) push(p *Proc) {
	i := wk.head + wk.n
	if i >= len(wk.ring) {
		i -= len(wk.ring)
	}
	wk.ring[i] = p
	wk.n++
}

// sleep blocks an idle worker until a rank of its share is made runnable,
// unless its count completes quiet: then nothing will ever wake it, and
// it handles the quiescence instead.
func (wk *worker) sleep() {
	if wk.w.quiet.Add(1) < int32(len(wk.w.workers)) {
		<-wk.wake
		wk.w.help()
		return
	}
	wk.mu.Lock()
	wk.idle = false
	wk.mu.Unlock()
	wk.w.quiesce() // finds this worker's parked share, so uncounts it
}

// ready makes p, whose committed park was just claimed, runnable on its
// worker wk. by is the claiming rank, nil outside any rank's turn.
func (wk *worker) ready(p, by *Proc) {
	if by != nil && by.wk == wk {
		wk.push(p)
		return
	}
	wk.rouse(p)
}

// rouse wakes wk if it is idle, posting p to its inbox first unless p is
// nil (a Share's Start: the woken worker helps, then looks for a rank),
// and reports whether it woke it.
func (wk *worker) rouse(p *Proc) bool {
	wk.mu.Lock()
	if p != nil {
		wk.inbox = append(wk.inbox, p)
		wk.posted.Store(true)
	}
	idle := wk.idle
	wk.idle = false
	wk.mu.Unlock()
	if idle {
		wk.w.quiet.Add(-1)
		wk.wake <- struct{}{}
	}
	return idle
}

// quiesce runs when no rank runs or can run: every rank not gone is
// parked for good. With none parked the run is over and it reports
// false. Otherwise it uncounts its worker, aborts the job and reports
// true — a deadlock, reported as a StallError, unless a fault or a bug
// already explains the stop.
func (w *World) quiesce() bool {
	var parked []int
	for _, p := range w.globalBarrier.members {
		if p.parked.Load() != parkGone {
			parked = append(parked, p.rank)
		}
	}
	if parked == nil {
		return false
	}
	w.quiet.Add(-1)
	w.failMu.Lock()
	if w.bug == nil && len(w.faults) == 0 {
		w.stall = &StallError{Ranks: parked}
	}
	w.failMu.Unlock()
	w.doAbort()
	return true
}

// StallError is TryRun's failure when the job stops with ranks parked
// that no remaining rank will wake and no fault or panic to blame: the
// simulated program deadlocked. Ranks are the parked ranks, ascending.
type StallError struct{ Ranks []int }

func (e *StallError) Error() string {
	return fmt.Sprintf("mpi: deadlock: ranks %v blocked with no rank left to wake them", e.Ranks)
}

// fiber is a pooled coroutine running one rank body per assignment:
// resume runs the body until the rank parks (false) or the body has
// finished (true).
type fiber struct {
	resume func() (done, ok bool)
	yield  func(done bool) bool
	p      *Proc
	body   func(*Proc)
}

// fibers is the process-wide pool: as many fibers as ranks have ever run
// at once, so a warm Run starts no coroutine.
var fibers struct {
	sync.Mutex
	free []*fiber
	made int
}

func newFiber() *fiber {
	f := new(fiber)
	f.resume, _ = iter.Pull(func(yield func(bool) bool) {
		for f.yield = yield; ; yield(true) {
			func() {
				defer f.p.w.leave(f.p)
				f.body(f.p)
			}()
			f.p, f.body = nil, nil
		}
	})
	return f
}
