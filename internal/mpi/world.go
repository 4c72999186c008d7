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
// carried it, and a blocked rank — in a transfer or in a barrier — parks
// on its own wake channel, the one way a rank goroutine blocks: a
// steady-state message allocates nothing and takes no lock shared
// between ranks. A job fails at quiescence: a modelled crash only
// removes its rank, the others run until each has returned, crashed or
// blocked for good, and only when nobody can run does the job abort and
// report the earliest crash. Where every rank stops is then a function
// of the plan and the input, not of host scheduling. rendezvous.go has
// the protocol and its ordering argument; DESIGN.md §6 places it in the
// host-performance architecture.
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

	// globalBarrier spans the live ranks of the world (its members are
	// what TryRun schedules), nodeBarriers[n] those of node n.
	globalBarrier *barrier
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

	// jobAborted releases ranks blocked in communication (MPI job-abort
	// semantics: a failed job comes down instead of deadlocking the
	// failed rank's partners). A programming-bug panic sets it at once;
	// a modelled fault sets faultFired, after which the ranks look for
	// quiescence and the one that finds it sets jobAborted. Every park
	// reads both and nothing writes them while a job is healthy.
	jobAborted atomic.Bool
	faultFired atomic.Bool

	// What the running attempt has recorded of its own failure, under
	// failMu: the modelled faults that fired and the first
	// programming-bug panic.
	failMu sync.Mutex
	faults []*fault.Error
	bug    error

	shmMu      sync.Mutex
	shmRegions map[string][]uint64

	// obsSess is the attached observability session, nil when off.
	obsSess *obs.Session
}

// errAborted is the panic value delivered to ranks released by an abort.
type errAborted struct{}

func (errAborted) Error() string { return "mpi: job brought down by another rank's failure" }

// doAbort releases every blocked rank: the flag first, then a wake for
// what is parked. A rank about to park finds the flag by itself.
func (w *World) doAbort() {
	w.jobAborted.Store(true)
	for _, p := range w.procs {
		p.wakeIfParked()
	}
}

// leave is a rank goroutine's exit: it records how the body ended and
// marks the rank gone. A modelled fault aborts nothing by itself — the
// survivors run on until the world is quiescent — while a programming
// bug brings the job down at once.
func (w *World) leave(p *Proc) {
	switch e := recover().(type) {
	case nil, errAborted:
	case *fault.Error:
		w.failMu.Lock()
		w.faults = append(w.faults, e)
		w.failMu.Unlock()
		w.faultFired.Store(true)
	default:
		w.failMu.Lock()
		if w.bug == nil {
			w.bug = fmt.Errorf("mpi: rank %d panicked: %v", p.rank, e)
		}
		w.failMu.Unlock()
		w.doAbort()
	}
	// A pooled Request keeps its Msg readable until the rank's next post;
	// there is none after the body, so drop what it would pin.
	for _, r := range p.reqFree {
		r.msg = Msg{}
	}
	p.parked.Store(parkGone)
	if w.faultFired.Load() {
		w.abortIfQuiescent()
	}
}

// abortIfQuiescent aborts the job if no live rank can run any more:
// every one is blocked or gone, and was at one and the same instant
// (rendezvous.go, "Quiescence"). Called, once a fault has fired, by
// every rank that has just committed a park or gone; the parked ranks
// it releases unwind, and their own calls find the flag.
func (w *World) abortIfQuiescent() {
	if w.jobAborted.Load() {
		return
	}
	ranks := w.globalBarrier.members
	seen := make([]uint32, len(ranks))
	for i, p := range ranks {
		if seen[i] = p.parked.Load(); seen[i]&1 == 0 {
			return
		}
	}
	for i, p := range ranks {
		if p.parked.Load() != seen[i] {
			return
		}
	}
	w.doAbort()
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
	w.rebuildMembership()
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
// modelled fault (rank crash, dead link) takes its own rank out and
// nothing else: the other ranks run until each has returned, crashed
// too or blocked on something no remaining rank will provide, and only
// then — when no rank can run — does the job abort and TryRun return the
// earliest fault (ties broken by rank) as a *FaultError. Every wait
// names its slot or barrier, so how far each rank gets, which crashes
// fire in the attempt and so which one is reported depend on the plan
// and the input alone, never on which goroutine the host ran first. A
// programming bug aborts the job at once, keeps its descriptive wrapped
// panic and takes precedence over any concurrent fault. After any failed
// attempt the world is re-armed, so a recovery attempt can reuse it. (A
// program that deadlocks with no fault and no panic still hangs.)
func (w *World) TryRun(body func(p *Proc)) error {
	ranks := w.globalBarrier.members
	for _, p := range ranks {
		p.parked.Store(parkNone)
	}
	var wg sync.WaitGroup
	for _, p := range ranks {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer w.leave(p)
			body(p)
		}(p)
	}
	wg.Wait()

	var err error
	switch {
	case w.bug != nil:
		err = w.bug
	case len(w.faults) > 0:
		first := w.faults[0]
		for _, f := range w.faults[1:] {
			if f.AtNs < first.AtNs || (f.AtNs == first.AtNs && f.Rank < first.Rank) {
				first = f
			}
		}
		err = first
	}
	if err != nil {
		w.rearm()
	}
	return err
}

// rearm makes the world reusable after a failed attempt, whether it
// ended in an abort or not — a crash whose survivors all ran to
// completion aborts nothing yet may leave a posted message nobody took. The failure record and
// the flags are cleared, the barriers rebuilt and every slot emptied.
// Wake tokens need nothing: every committed park was claimed and every
// claim's token consumed before its goroutine could exit.
func (w *World) rearm() {
	w.faults, w.bug = nil, nil
	w.jobAborted.Store(false)
	w.faultFired.Store(false)
	w.rebuildMembership()
	for i := range w.slots {
		w.slots[i].Store(nil)
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
