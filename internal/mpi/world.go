// Package mpi is an execution-driven simulator of the MPI runtime the
// paper's BFS is written against. Each rank is a goroutine executing the
// real algorithm on real data; every rank carries a virtual clock in
// nanoseconds. Computation advances a rank's clock by modelled phase
// costs (internal/machine); point-to-point transfers rendezvous — the
// transfer starts when both sides have arrived and both clocks advance to
// its end, with the duration charged by the network model
// (internal/simnet). Barriers synchronize clocks to the maximum plus a
// dissemination-round cost and report each rank's wait (the paper's
// "stall" time).
//
// The result is deterministic: virtual time depends only on the machine
// configuration, the algorithm and the input — never on host scheduling
// or host core count.
//
// On the host, a message moves through a per-(dst, src) slot published
// with one atomic store, is acknowledged through the pooled cell that
// carried it, and blocked ranks park on a per-rank wake channel: a
// steady-state message allocates nothing and takes no lock shared
// between ranks. rendezvous.go has the protocol and its ordering
// argument; DESIGN.md §6 places it in the host-performance architecture.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/simnet"
)

// FaultError is the structured error a modelled rank crash produces:
// TryRun returns it (instead of an opaque panic) so callers can tell a
// scheduled fault from a programming bug and attempt recovery.
type FaultError = fault.Error

// World is one simulated MPI job: a set of ranks placed on a machine.
type World struct {
	cfg machine.Config
	pl  machine.Placement
	net *simnet.Network

	// inj is the active fault injector, shared with net. Never nil — an
	// empty plan compiles to an injector whose every hook is an exact
	// identity.
	inj *fault.Injector

	procs []*Proc
	// slots[dst*np+src] is the rendezvous slot carrying messages from src
	// to dst (rendezvous.go): nil when empty, else the one posted message
	// dst has not completed yet. One flat array of np*np pointers, 128 KiB
	// at 128 ranks.
	slots []atomic.Pointer[message]

	globalBarrier *shardedBarrier
	nodeBarriers  []*barrier

	// Membership (membership.go): live[r] marks rank r as scheduled by
	// Run/TryRun — parked spares and permanently dead ranks are not.
	// The derived counts price barriers over the live epoch only, and
	// epoch numbers the world views (0 = the view Run first saw;
	// Shrink/Promote advance it).
	live       []bool
	liveOnNode []int
	liveNodes  int
	maxLivePPN int
	epoch      int

	// jobAborted is set when any rank panics, releasing ranks blocked in
	// communication (MPI job-abort semantics: one failing rank brings
	// the whole job down instead of deadlocking its partners). Parked
	// ranks learn of it through one wake token each (rendezvous.go).
	jobAborted   atomic.Bool
	jobAbortOnce sync.Once

	shmMu      sync.Mutex
	shmRegions map[string][]uint64

	// obsSess is the attached observability session, nil when off.
	obsSess *obs.Session
}

// errAborted is the panic value delivered to ranks released by an abort.
type errAborted struct{}

func (errAborted) Error() string { return "mpi: job aborted by another rank's failure" }

// doAbort releases every blocked rank: the flag first, then one wake
// per rank — unconditional, so it also reaches a rank between its
// parked store and its block — then the barriers.
func (w *World) doAbort() {
	w.jobAbortOnce.Do(func() {
		w.jobAborted.Store(true)
		for _, p := range w.procs {
			p.wakeNow()
		}
		w.globalBarrier.abortAll()
		for _, b := range w.nodeBarriers {
			b.abortAll()
		}
	})
}

// NewWorld builds a world of pl.Procs(cfg) ranks over cfg. Rank r lives
// on node r/ProcsPerNode; when the placement is bound, local rank i is
// pinned to socket i.
func NewWorld(cfg machine.Config, pl machine.Placement) *World {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	np := pl.Procs(cfg)
	w := &World{
		cfg:        cfg,
		pl:         pl,
		net:        simnet.New(cfg),
		slots:      make([]atomic.Pointer[message], np*np),
		shmRegions: make(map[string][]uint64),
	}
	w.inj = w.net.Injector()
	w.live = make([]bool, np)
	for r := range w.live {
		w.live[r] = true
	}
	w.liveOnNode = make([]int, cfg.Nodes)
	w.nodeBarriers = make([]*barrier, cfg.Nodes)
	w.rebuildMembership()
	w.procs = make([]*Proc, np)
	for r := 0; r < np; r++ {
		w.procs[r] = &Proc{
			wake:  make(chan struct{}, 1),
			w:     w,
			rank:  r,
			node:  r / pl.ProcsPerNode,
			local: r % pl.ProcsPerNode,
		}
	}
	return w
}

// NumProcs returns the number of ranks.
func (w *World) NumProcs() int { return len(w.procs) }

// ProcsPerNode returns ranks per node.
func (w *World) ProcsPerNode() int { return w.pl.ProcsPerNode }

// Config returns the machine configuration.
func (w *World) Config() machine.Config { return w.cfg }

// Placement returns the execution placement.
func (w *World) Placement() machine.Placement { return w.pl }

// Net returns the network model (for volume counters).
func (w *World) Net() *simnet.Network { return w.net }

// Injector returns the active fault injector (never nil).
func (w *World) Injector() *fault.Injector { return w.inj }

// InjectFaults installs a fault plan. The configuration's weak node is
// folded in so it persists — the plan adds to the machine, it does not
// replace it. Call between runs only; rank-scoped entries are validated
// against this world's size.
func (w *World) InjectFaults(plan fault.Plan) error {
	merged := fault.WeakNode(w.cfg.WeakNode, w.cfg.WeakNodeBWFactor).Merge(plan)
	inj, err := fault.NewInjector(merged, len(w.procs))
	if err != nil {
		return err
	}
	w.inj = inj
	w.net.SetInjector(inj)
	return nil
}

// Proc returns rank r. Intended for post-run inspection.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// Run executes body once per rank, each on its own goroutine, and blocks
// until all ranks return. A panic in any rank aborts the whole job —
// ranks blocked in communication are released, as MPI would — and the
// first failure is re-raised on the caller with its rank attached.
func (w *World) Run(body func(p *Proc)) {
	if err := w.TryRun(body); err != nil {
		panic(err)
	}
}

// TryRun is Run returning the job's failure instead of panicking. A
// modelled rank crash surfaces as a *FaultError — when several ranks
// crash in one attempt, deterministically the earliest (ties broken by
// rank), never whichever goroutine the host scheduler unblocked first —
// while a programming bug keeps its descriptive wrapped panic and takes
// precedence over any concurrent fault. After a failed attempt the world
// is re-armed (abort flag, barriers, slots, wake tokens), so a recovery
// attempt can reuse it.
func (w *World) TryRun(body func(p *Proc)) error {
	w.resetAbort()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var faults []*fault.Error
	panics := make(chan error, len(w.procs))
	for _, p := range w.procs {
		if !w.live[p.rank] {
			continue
		}
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					switch e := r.(type) {
					case errAborted:
					case *fault.Error:
						mu.Lock()
						faults = append(faults, e)
						mu.Unlock()
					default:
						panics <- fmt.Errorf("mpi: rank %d panicked: %v", p.rank, r)
					}
					w.doAbort()
				}
			}()
			body(p)
		}(p)
	}
	wg.Wait()
	select {
	case err := <-panics:
		return err
	default:
	}
	if len(faults) > 0 {
		first := faults[0]
		for _, f := range faults[1:] {
			if f.AtNs < first.AtNs || (f.AtNs == first.AtNs && f.Rank < first.Rank) {
				first = f
			}
		}
		return first
	}
	return nil
}

// resetAbort re-arms the abort machinery after a failed attempt: the
// flag is cleared, the barriers are rebuilt (an aborted barrier
// generation is poisoned), every slot is emptied (a crashed rank may
// have left a posted message no one will ever take), and every rank's
// parked flag and leftover wake token are cleared. A no-op unless an
// abort fired.
func (w *World) resetAbort() {
	if !w.jobAborted.Load() {
		return
	}
	w.jobAborted.Store(false)
	w.jobAbortOnce = sync.Once{}
	w.rebuildMembership()
	for i := range w.slots {
		w.slots[i].Store(nil)
	}
	for _, p := range w.procs {
		p.parked.Store(0)
		select {
		case <-p.wake:
		default:
		}
	}
}

// MaxClock returns the maximum virtual clock across ranks — the job's
// virtual wall time.
func (w *World) MaxClock() float64 {
	var m float64
	for _, p := range w.procs {
		if !w.live[p.rank] {
			continue
		}
		if p.clock > m {
			m = p.clock
		}
	}
	return m
}

// AttachObs connects an observability session: every rank gets its own
// span/counter stream (rank, node, socket). Call before Run — typically
// right after NewWorld, so construction-phase collectives are recorded
// too. Recording never advances virtual time, so results are identical
// with and without a session attached.
func (w *World) AttachObs(s *obs.Session) {
	w.obsSess = s
	s.SetLinkPeak(w.net.PeakStreamBandwidth())
	for _, p := range w.procs {
		// local is the rank's socket under the bound placement and the
		// best available stand-in otherwise.
		p.obs = s.AddRank(p.rank, p.node, p.local)
	}
}

// ResetClocks zeroes every rank's clock and counters (between BFS roots).
func (w *World) ResetClocks() {
	if w.obsSess != nil {
		// Stitch the next run onto the session timeline: everything
		// recorded so far ends at MaxClock, the next root restarts at 0.
		w.obsSess.Advance(w.MaxClock())
	}
	for _, p := range w.procs {
		p.clock = 0
		p.commNs = 0
		p.sentBytes = 0
	}
	w.net.ResetVolume()
}

// PrepareRecovery zeroes rank clocks and per-rank counters before a
// crash-recovery attempt — but, unlike ResetClocks, neither advances the
// observability epoch nor clears the network volume counters: the lost
// attempt's traffic stays in the iteration totals (those bytes really
// crossed the modelled network) and its spans stay on the timeline.
// Recovery then restores each clock from the checkpoint via
// Proc.RestoreClock.
func (w *World) PrepareRecovery() {
	for _, p := range w.procs {
		p.clock = 0
		p.commNs = 0
		p.sentBytes = 0
	}
}

// SharedWords returns (allocating on first use) a word slice shared by
// all ranks that request the same name. The BFS uses per-node names so
// ranks of one node share one in_queue, mirroring the paper's
// mmap-sharing. Callers synchronize access with node barriers.
func (w *World) SharedWords(name string, words int64) []uint64 {
	w.shmMu.Lock()
	defer w.shmMu.Unlock()
	if s, ok := w.shmRegions[name]; ok {
		if int64(len(s)) != words {
			panic(fmt.Sprintf("mpi: shared region %q size mismatch: have %d want %d", name, len(s), words))
		}
		return s
	}
	s := make([]uint64, words)
	w.shmRegions[name] = s
	return s
}

// DropShared removes a shared region so a later phase can re-create it
// with a different size.
func (w *World) DropShared(name string) {
	w.shmMu.Lock()
	defer w.shmMu.Unlock()
	delete(w.shmRegions, name)
}
