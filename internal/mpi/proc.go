package mpi

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"numabfs/internal/fault"
	"numabfs/internal/obs"
)

// Msg is a received message as seen by the application.
type Msg struct {
	Src     int
	Tag     int
	Bytes   int64
	Payload Payload
}

// Phases of Proc.parked (rendezvous.go, "Park/wake"). A waker claims
// the two highest.
const (
	parkNone      = iota // running or runnable
	parkGone             // its body returned, crashed or unwound
	parkAnnounced        // about to block: will look at its condition once more
	parkCommitted        // yielded to its worker, or about to
)

// Proc is one simulated MPI rank. All methods must be called from the
// rank's own turn at World.Run's body.
type Proc struct {
	// parked is the rank's park word (rendezvous.go) — the only Proc
	// state other ranks touch, besides handing a claimed rank to wk.
	parked atomic.Uint32
	wk     *worker // the worker running the rank in this run (sched.go)
	fib    *fiber  // the coroutine running its body in this run

	w     *World
	rank  int
	node  int
	local int // index within the node; equals the socket when bound

	clock   float64 // virtual ns
	xportNs float64 // cumulative reliable-transport time (retransmit waits, holds, acks)

	// obs is the rank's observability stream; nil (the disabled
	// recorder) unless World.AttachObs was called.
	obs *obs.Rank

	// msgFree is the rank's own free-list of message cells: a cell is
	// taken before posting and returned once its acknowledgement was
	// awaited. Cells in flight during an abort unwind are dropped.
	msgFree []*message

	// reqFree is the rank's own free-list of nonblocking Requests: Wait
	// returns a completed one, Isend/Irecv draw from it. A completed
	// Request stays readable until the rank's next post (see Request);
	// World.leave drops their messages when the body returns.
	reqFree []*Request

	// parks counts the rank's committed parks (waitFor), folded by
	// World.Parks.
	parks int64
}

// getReq takes a Request from the free-list (reset to zero state), or
// allocates one.
func (p *Proc) getReq() *Request {
	if n := len(p.reqFree); n > 0 {
		r := p.reqFree[n-1]
		p.reqFree = p.reqFree[:n-1]
		*r = Request{p: p}
		return r
	}
	return &Request{p: p}
}

// putReq returns a completed Request to the free-list.
func (p *Proc) putReq(r *Request) { p.reqFree = append(p.reqFree, r) }

// Obs returns the rank's observability stream. It is nil when tracing
// is off — a nil *obs.Rank is a valid recorder whose methods no-op, so
// callers use the result without checking.
func (p *Proc) Obs() *obs.Rank { return p.obs }

// countMsg charges one outbound transfer to the hop-class counters:
// wire bytes (what crossed the network) and raw bytes (the logical,
// pre-compression size).
func (p *Proc) countMsg(dst int, wire, raw int64) {
	if p.obs == nil {
		return
	}
	d := p.w.procs[dst]
	p.obs.CountMsg(obs.ClassifyHop(p.node, p.local, d.node, d.local), wire, raw)
}

// Rank returns the global rank.
func (p *Proc) Rank() int { return p.rank }

// Node returns the node index the rank lives on.
func (p *Proc) Node() int { return p.node }

// LocalRank returns the rank's index within its node.
func (p *Proc) LocalRank() int { return p.local }

// World returns the owning world.
func (p *Proc) World() *World { return p.w }

// Clock returns the rank's virtual time in ns.
func (p *Proc) Clock() float64 { return p.clock }

// XportNs returns the reliable transport's cumulative share of the
// rank's communication time: retransmission waits, resequencing holds
// and ack round-trips. Zero unless the fault plan declares lossy links.
// Callers diff it around a communication section to attribute transport
// stall to a phase.
func (p *Proc) XportNs() float64 { return p.xportNs }

// Compute advances the rank's clock by ns of modelled computation. A
// straggler rank's cost is scaled by its plan factor, and a scheduled
// crash inside the interval truncates it: the rank dies at the crash
// time, not at the end of the phase it never finished.
func (p *Proc) Compute(ns float64) {
	if ns < 0 {
		panic(fmt.Sprintf("mpi: rank %d negative compute %g", p.rank, ns))
	}
	if s := p.w.inj.ComputeScale(p.rank); s != 1 {
		ns *= s
	}
	if at, ok := p.w.inj.NextCrash(p.rank); ok && p.clock+ns >= at {
		p.crashAt(at)
	}
	p.clock += ns
}

// checkCrash fires a scheduled crash whose time this rank's clock has
// reached. Called at every communication boundary, so a crashed rank
// dies before it can interact with the rest of the job again.
func (p *Proc) checkCrash() {
	if at, ok := p.w.inj.NextCrash(p.rank); ok && p.clock >= at {
		p.crashAt(at)
	}
}

// crashAt kills the rank: its clock lands on the crash time (never
// rewinding past work already charged) and the structured *fault.Error
// unwinds through the abort machinery so blocked partners are released.
func (p *Proc) crashAt(at float64) {
	p.clock = max(p.clock, at)
	p.obs.FaultEvent("crash", p.clock)
	panic(&fault.Error{Rank: p.rank, AtNs: at, Permanent: p.w.inj.CrashPermanent(p.rank)})
}

// RestoreClock sets the rank's clock to where its rerun begins: the
// crash's detection time plus any state adoption. Only
// crash recovery may call this — ordinary code advances clocks through
// Compute and the communication calls.
func (p *Proc) RestoreClock(ns float64) { p.clock = ns }

// Send transfers bytes of payload to dst under tag. streams is the number
// of same-node ranks concurrently driving the contended resource (NIC or
// memory system) during the enclosing collective step. Send blocks until
// the matching Recv completes and advances the clock to the transfer end.
// The payload arrives as Msg.Payload.Any. The simulator sends typed
// payloads through SendPayload; only tests and the benchmark's probes
// use this.
func (p *Proc) Send(dst, tag int, bytes int64, payload any, streams int) {
	p.SendPayload(dst, tag, bytes, Payload{Any: payload}, streams)
}

// SendPayload is Send with a typed payload, which boxes nothing: an
// Isend and its Wait.
func (p *Proc) SendPayload(dst, tag int, bytes int64, pl Payload, streams int) {
	p.isend(dst, tag, bytes, bytes, &pl, streams).Wait()
}

// Recv receives the next message from src, which must carry tag (the
// simulated programs use fully matched, in-order communication; a tag
// mismatch is a program bug and panics). The transfer starts when both
// sides have arrived and both clocks advance to its end: an Irecv and
// its Wait.
func (p *Proc) Recv(src, tag int) Msg {
	r := p.Irecv(src, tag, nil)
	r.Wait()
	return r.Msg()
}

// receive takes the next message from src, prices its delivery from the
// later of the sender's post and ready (when this side arrived), and
// completes the rendezvous. It stores the message into out and returns
// the transfer's begin and end on this side; the caller advances its own
// clock.
func (p *Proc) receive(src, tag int, ready float64, out *Msg) (begin, recvEnd float64) {
	m := p.take(src)
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", p.rank, tag, src, m.tag))
	}
	begin = max(m.sent, ready)
	recvEnd, sendEnd := p.deliver(&m.hop, begin)
	out.Src, out.Tag, out.Bytes, out.Payload = m.src, m.tag, m.bytes, m.payload
	p.complete(m, sendEnd)
	return begin, recvEnd
}

// SendRecv posts a send to dst and a receive from src concurrently and
// completes both, as MPI_Sendrecv does: an Isend and an Irecv, then the
// receive's Wait and the send's, so the clock reaches the later of both
// ends. Ring exchanges need this: with blocking Send alone, a cycle of
// ranks would deadlock. The untyped payload arrives as Msg.Payload.Any;
// only tests and the benchmark's probes use this, the simulator composes
// the typed nonblocking calls.
func (p *Proc) SendRecv(dst, sendTag int, bytes int64, payload any, src, recvTag int, streams int) Msg {
	sr := p.Isend(dst, sendTag, bytes, payload, streams)
	rr := p.Irecv(src, recvTag, nil)
	rr.Wait()
	sr.Wait()
	return rr.Msg()
}

// Barrier synchronizes all ranks: every clock advances to the maximum
// arrival time plus the cost of a hierarchical dissemination barrier —
// ceilLog2(ppn) rounds inside a node at the intra-node overhead, and
// only ceilLog2(Nodes) rounds at the inter-node alpha, since MPI barriers
// on NUMA clusters combine within the node first. It returns the rank's
// wait time (max - own arrival), the "stall" of Fig. 11.
func (p *Proc) Barrier() float64 {
	p.checkCrash()
	start := p.clock
	max := p.w.globalBarrier.sync(p, p.clock)
	// Dissemination depth follows the live epoch: at full membership
	// these counts equal ProcsPerNode and Nodes exactly.
	cost := float64(ceilLog2(p.w.maxLivePPN)) * p.w.cfg.IntraNodeAlphaNs
	cost += float64(ceilLog2(p.w.liveNodes)) * p.w.cfg.InterNodeAlphaNs
	p.clock = max + cost
	p.obs.BarrierWait(max - start)
	return max - start
}

// NodeBarrier synchronizes the ranks of p's node only (used around
// shared-memory epochs). Returns the rank's wait time.
func (p *Proc) NodeBarrier() float64 {
	p.checkCrash()
	start := p.clock
	max := p.w.nodeBarriers[p.node].sync(p, p.clock)
	rounds := ceilLog2(p.w.liveOnNode[p.node])
	p.clock = max + float64(rounds)*p.w.cfg.IntraNodeAlphaNs
	p.obs.NodeBarrierWait(max - start)
	return max - start
}

// SharedWords returns the node-scoped shared region `name` (see
// World.SharedWords); the region name is qualified with the node index so
// each node gets its own copy.
func (p *Proc) SharedWords(name string, words int64) []uint64 {
	return p.w.SharedWords(fmt.Sprintf("%s@node%d", name, p.node), words)
}

func ceilLog2(n int) int { return bits.Len(uint(max(n, 1) - 1)) }
