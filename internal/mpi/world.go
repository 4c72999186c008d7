// Package mpi is an execution-driven simulator of the MPI runtime the
// paper's BFS is written against. Each rank is a coroutine executing the
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
// On the host, ranks are coroutines on GOMAXPROCS workers (sched.go). A
// message moves through a per-(dst, src) slot and is acknowledged
// through the pooled cell that carried it; a blocked rank parks in its
// own word and yields to its worker (rendezvous.go). A steady-state
// message allocates nothing and takes no lock shared between ranks. A
// job fails at quiescence, when no rank can run: a modelled crash only
// removes its rank, and the job aborts with the earliest crash once the
// others have returned, crashed or blocked for good — or, with nothing
// to blame, with a StallError naming the deadlocked ranks. DESIGN.md §6
// places both files in the host-performance architecture.
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
	// slots[dst*np+src] carries messages from src to dst (rendezvous.go):
	// nil, or the one posted message dst has not completed yet.
	slots []atomic.Pointer[message]

	// globalBarrier spans the live ranks of the world (its members are
	// what TryRun schedules), nodeBarriers[n] those of node n.
	globalBarrier *barrier
	nodeBarriers  []*barrier

	// attempt counts the failed attempts rearm cleaned up after; a gate
	// (gate.go) forgets arrivals from an earlier one at its next pass.
	attempt uint64

	// Membership (membership.go): live[r] marks rank r as scheduled by
	// Run/TryRun, the counts price barriers over the live ranks, and
	// epoch numbers the world views (Promote advances it).
	live       []bool
	liveOnNode []int
	liveNodes  int
	maxLivePPN int
	epoch      int

	// jobAborted releases ranks blocked in communication, as MPI's job
	// abort does: a programming-bug panic sets it at once, the worker
	// that finds the world quiescent otherwise (sched.go).
	jobAborted atomic.Bool

	// What the running attempt has recorded of its own failure, under
	// failMu: the modelled faults that fired, the first programming-bug
	// panic, and a deadlock found with neither.
	failMu sync.Mutex
	faults []*fault.Error
	bug    error
	stall  *StallError

	// The scheduler (sched.go), kept across runs.
	workers     []*worker
	quiet       atomic.Int32
	workersDone sync.WaitGroup
	job         atomic.Pointer[Share] // the job idle workers help with (share.go)

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
		p.wakeIfParked(nil)
	}
}

// leave is a rank body's exit: it records how the body ended and marks
// the rank gone. A modelled fault aborts nothing by itself (the world
// stops at quiescence), a programming bug brings the job down at once.
func (w *World) leave(p *Proc) {
	switch e := recover().(type) {
	case nil, errAborted:
	case *fault.Error:
		w.failMu.Lock()
		w.faults = append(w.faults, e)
		w.failMu.Unlock()
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

// Config returns the machine configuration, by pointer and read-only.
func (w *World) Config() *machine.Config { return &w.cfg }

// Placement returns the execution placement.
func (w *World) Placement() machine.Placement { return w.pl }

// Net returns the network model (for volume counters).
func (w *World) Net() *simnet.Network { return w.net }

// Injector returns the active fault injector (never nil).
func (w *World) Injector() *fault.Injector { return w.inj }

// InjectFaults installs a fault plan on top of the configuration's weak
// node, whose bandwidth event goes first in a fresh copy of the plan's
// BW list; the caller's slices are never written. Call between runs
// only; the plan is validated as written, rank-scoped entries against
// this world's size.
func (w *World) InjectFaults(plan fault.Plan) error {
	plan.BW = append(fault.WeakNode(w.cfg.WeakNode, w.cfg.WeakNodeBWFactor).BW, plan.BW...)
	inj, err := fault.NewInjector(plan, len(w.procs))
	if err != nil {
		return err
	}
	w.inj = inj
	w.net.SetInjector(inj)
	return nil
}

// Proc returns rank r. Intended for post-run inspection.
func (w *World) Proc(r int) *Proc { return w.procs[r] }

// Run executes body once per rank, each rank a coroutine, and blocks
// until all ranks return. A panic in any rank aborts the whole job —
// ranks blocked in communication are released, as MPI would — and the
// first failure is re-raised on the caller with its rank attached, as is
// a deadlock's *StallError.
func (w *World) Run(body func(p *Proc)) {
	if err := w.TryRun(body); err != nil {
		panic(err)
	}
}

// TryRun is Run returning the job's failure instead of panicking; a body
// may block the host only inside this package's calls (sched.go). A
// modelled fault (rank crash, dead link) takes its own rank out and
// nothing else: when no rank can run any more the job aborts and TryRun
// returns the earliest fault (ties broken by rank) as a *FaultError.
// Every wait names its slot or barrier, so which crashes fire and which
// one is reported depend on the plan and the input alone, never on which
// rank the host ran first. A programming bug aborts the job at once and
// takes precedence over any fault; a job that stops blocked with neither
// has deadlocked, and TryRun returns a *StallError. After any failed
// attempt the world is re-armed, so a recovery attempt can reuse it.
func (w *World) TryRun(body func(p *Proc)) error {
	w.schedule(body)

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
	case w.stall != nil:
		err = w.stall
	}
	if err != nil {
		w.rearm()
	}
	return err
}

// rearm makes the world reusable after a failed attempt, whether it
// ended in an abort or not — a crash whose survivors all ran to
// completion aborts nothing yet may leave a posted message nobody took.
// The failure record and the flag are cleared, the barriers rebuilt,
// the attempt advanced (so each gate forgets its arrivals at its next
// pass) and every slot emptied. The workers need nothing: each ran until
// every rank of its share had finished, so no run list or inbox holds a
// rank.
func (w *World) rearm() {
	w.faults, w.bug, w.stall = nil, nil, nil
	w.jobAborted.Store(false)
	w.job.Store(nil) // a walk that panicked may still hold it
	w.rebuildMembership()
	w.attempt++
	for i := range w.slots {
		w.slots[i].Store(nil)
	}
}

// MaxClock returns the maximum virtual clock across ranks — the job's
// virtual wall time.
func (w *World) MaxClock() float64 {
	var m float64
	for _, p := range w.globalBarrier.members {
		m = max(m, p.clock)
	}
	return m
}

// AttachObs connects an observability session: every rank gets its own
// span/counter stream (rank, node, socket). Call right after NewWorld so
// construction-phase collectives are recorded too. Recording never
// advances virtual time.
func (w *World) AttachObs(s *obs.Session) {
	w.obsSess = s
	s.SetLinkPeak(w.net.PeakStreamBandwidth())
	for _, p := range w.procs {
		// local is the rank's socket under the bound placement and the
		// best available stand-in otherwise.
		p.obs = s.AddRank(p.rank, p.node, p.local)
	}
}

// ResetClocks zeroes every rank's clock and the network volume (between
// BFS roots).
func (w *World) ResetClocks() {
	if w.obsSess != nil {
		// Stitch the next run onto the session timeline: everything
		// recorded so far ends at MaxClock, the next root restarts at 0.
		w.obsSess.Advance(w.MaxClock())
	}
	w.PrepareRecovery()
	w.net.ResetVolume()
}

// PrepareRecovery zeroes rank clocks before a crash-recovery attempt,
// which then sets each clock to where the rerun from the roots begins
// (Proc.RestoreClock). Unlike ResetClocks it keeps the observability
// epoch and the network volume: the lost attempt's traffic really
// crossed the modelled network.
func (w *World) PrepareRecovery() {
	for _, p := range w.procs {
		p.clock = 0
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
