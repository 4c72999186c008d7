package mpi

import (
	"reflect"
	"runtime"
	"testing"

	"numabfs/internal/machine"
)

// mallocsDuring runs f and returns the number of heap allocations the
// whole process performed meanwhile. The rendezvous paths run on rank
// coroutines and worker goroutines, so testing.AllocsPerRun
// (calling-goroutine only) cannot see them; the global Mallocs counter
// can, at the cost of absorbing a small fixed overhead from the run's
// worker spawns.
func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// perRunAllocs bounds what one World.Run of the 4-rank test world may
// allocate besides its messages: the closures of the worker spawns, a
// first run's worker, fiber and inbox growth, runtime bookkeeping. It
// does not grow with the message count, which is the point: the bounds
// below are this constant, not a share of msgs.
const perRunAllocs = 64

// TestRunAllocsIndependentOfRanks: a warm Run of the 128-rank Table I
// world allocates a constant, not something per rank — the ranks run on
// pooled coroutines and cached workers, and only the workers beyond the
// calling goroutine are spawned. Measured: 0, 1 and 7-12 objects at 1, 2
// and 8 workers, up to 28 under -race; a goroutine spawn per rank cost
// 257.
func TestRunAllocsIndependentOfRanks(t *testing.T) {
	const bound = 48
	atProcs(t, func(t *testing.T) {
		cfg := machine.TableI()
		cfg.WeakNode = -1
		w := NewWorld(cfg, machine.PlacementFor(cfg, machine.PPN8Bind))
		body := func(p *Proc) { p.Barrier() }
		w.Run(body) // warm-up: workers, fibers, inboxes
		allocs := mallocsDuring(func() { w.Run(body) })
		if allocs > bound {
			t.Fatalf("a %d-rank Run of one Barrier allocated %d objects, want <= %d", w.NumProcs(), allocs, bound)
		}
	})
}

// TestSendRecvHotPathDoesNotAllocPerMessage pins the allocation-free
// rendezvous: after a warm-up run has populated the per-rank message
// pools, a run exchanging 3*msgs messages allocates only the per-run
// overhead — a fresh cell per message would fail the bound 100x.
func TestSendRecvHotPathDoesNotAllocPerMessage(t *testing.T) {
	const msgs = 2000
	w := testWorld(t, 1) // 4 ranks, one node
	body := func(p *Proc) {
		switch p.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				p.Send(1, 7, 64, nil, 1)
			}
		case 1:
			for i := 0; i < msgs; i++ {
				p.Recv(0, 7)
			}
		case 2:
			for i := 0; i < msgs; i++ {
				p.SendRecv(3, 9, 64, nil, 3, 9, 1)
			}
		case 3:
			for i := 0; i < msgs; i++ {
				p.SendRecv(2, 9, 64, nil, 2, 9, 1)
			}
		}
	}
	w.Run(body) // warm-up: fills the per-rank message pools
	w.ResetClocks()
	allocs := mallocsDuring(func() { w.Run(body) })
	if allocs > perRunAllocs {
		t.Fatalf("run with %d messages allocated %d objects, want <= %d (per-run overhead only)", 3*msgs, allocs, perRunAllocs)
	}
}

// TestIsendHotPathDoesNotAllocAckChannels covers the nonblocking path:
// Isend must draw its message cell from the pool, Irecv its Request, and
// Wait must return both. With Requests pooled, the only per-exchange
// allocation left in this variant is the receiver's out Msg, which
// escapes because its address outlives the loop iteration.
func TestIsendHotPathDoesNotAllocAckChannels(t *testing.T) {
	const msgs = 2000
	w := testWorld(t, 1)
	body := func(p *Proc) {
		switch p.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				r := p.Isend(1, 5, 64, nil, 1)
				r.Wait()
			}
		case 1:
			for i := 0; i < msgs; i++ {
				var m Msg
				r := p.Irecv(0, 5, &m)
				r.Wait()
			}
		}
	}
	w.Run(body)
	w.ResetClocks()
	allocs := mallocsDuring(func() { w.Run(body) })
	// One escaping Msg per exchange is expected, and nothing else: the
	// regression this guards is the two Request structs (and the message
	// cell) coming back on top of it — before pooling, this path cost ~3
	// allocations per pair.
	if allocs > msgs+perRunAllocs {
		t.Fatalf("run with %d isend/irecv pairs allocated %d objects, want <= %d; request pooling regressed", msgs, allocs, msgs+perRunAllocs)
	}
}

// TestIsendPooledPathAllocFree is the fully pooled variant: the
// receiver reads the message from the pooled Request's internal storage
// (Request.Msg) instead of an escaping out pointer, so the steady-state
// exchange must allocate nothing per message — the same per-run
// constant the blocking Send/Recv path meets.
func TestIsendPooledPathAllocFree(t *testing.T) {
	const msgs = 2000
	w := testWorld(t, 1)
	body := func(p *Proc) {
		switch p.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				r := p.Isend(1, 5, 64, nil, 1)
				r.Wait()
			}
		case 1:
			for i := 0; i < msgs; i++ {
				r := p.Irecv(0, 5, nil)
				r.Wait()
				if m := r.Msg(); m.Tag != 5 || m.Src != 0 {
					panic("pooled Irecv delivered the wrong message")
				}
			}
		}
	}
	w.Run(body)
	w.ResetClocks()
	allocs := mallocsDuring(func() { w.Run(body) })
	if allocs > perRunAllocs {
		t.Fatalf("run with %d fully pooled isend/irecv pairs allocated %d objects, want <= %d", msgs, allocs, perRunAllocs)
	}
}

// TestRequestPoolRecycles checks the free-list mechanics directly: a
// Request completed by Wait comes back from the next post, reset, and
// the pool never hands out a Request still in flight.
func TestRequestPoolRecycles(t *testing.T) {
	w := testWorld(t, 1)
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			r1 := p.Isend(1, 3, 8, nil, 1)
			r1.Wait()
			r2 := p.Isend(1, 3, 8, nil, 1)
			if r2 != r1 {
				panic("mpi: completed Request not recycled by the next post")
			}
			r2.Wait()
		case 1:
			for i := 0; i < 2; i++ {
				r := p.Irecv(0, 3, nil)
				r.Wait()
			}
		}
	})
}

// TestAckPoolRecycles checks the free-list mechanics directly: a cell
// returned via putMessage comes back from newMessage, and the done flag
// its last acknowledgement left set cannot leak into the next rendezvous.
func TestAckPoolRecycles(t *testing.T) {
	p := &Proc{}
	m := p.newMessage(1, 8, 8, 1, &Payload{})
	m.end = 42
	m.done.Store(1)
	p.putMessage(m)
	got := p.newMessage(2, 8, 8, 1, &Payload{})
	if got != m {
		t.Fatal("newMessage did not reuse the pooled cell")
	}
	if got.done.Load() != 0 || got.tag != 2 {
		t.Fatalf("recycled cell not reset: done=%d tag=%d", got.done.Load(), got.tag)
	}
}

// TestFreeListsPinNoPayload: after a run that exchanged large Vals
// vectors, blocking and nonblocking, no pooled message cell or Request
// still references them — an idle cell pinning the last vectors it
// carried kept kernel 1's pair vectors alive after set-up.
func TestFreeListsPinNoPayload(t *testing.T) {
	w := testWorld(t, 1)
	n := w.NumProcs()
	w.Run(func(p *Proc) {
		me := p.Rank()
		next, prev := (me+1)%n, (me+n-1)%n
		vals := make([]int64, 1<<16)
		vals[0] = int64(me)
		if m := p.SendRecv(next, 1, 8<<16, vals, prev, 1, 1); m.Payload.Any.([]int64)[0] != int64(prev) {
			panic("blocking exchange delivered the wrong vector")
		}
		rr := p.Irecv(prev, 2, nil)
		sr := p.IsendPayload(next, 2, 8<<16, Payload{Vals: vals}, 1)
		rr.Wait()
		sr.Wait()
		if rr.Msg().Payload.Vals[0] != int64(prev) {
			panic("nonblocking exchange delivered the wrong vector")
		}
	})
	for r := 0; r < n; r++ {
		p := w.Proc(r)
		if len(p.msgFree) == 0 || len(p.reqFree) == 0 {
			t.Fatalf("rank %d: %d pooled cells, %d pooled Requests; want both pools used", r, len(p.msgFree), len(p.reqFree))
		}
		for k, m := range p.msgFree {
			if !reflect.ValueOf(m.payload).IsZero() {
				t.Errorf("rank %d: pooled cell %d still holds its payload", r, k)
			}
		}
		for k, req := range p.reqFree {
			if !reflect.ValueOf(req.msg).IsZero() {
				t.Errorf("rank %d: pooled Request %d still holds its message", r, k)
			}
		}
	}
}
