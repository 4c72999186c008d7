// Package simnet models the cluster interconnect of the paper's testbed:
// two 40 Gb/s InfiniBand ports per node behind one 36-port switch, plus
// the shared-memory path MPI uses between ranks of the same node.
//
// Transfers are charged with an alpha-beta model: a fixed per-message
// overhead plus bytes over the path bandwidth. Inter-node bandwidth
// depends on how many same-node ranks drive the NIC concurrently — one
// rank's stream reaches only about half of the two-port peak, which is
// the measured behaviour behind Fig. 4 and the motivation for the
// parallelized allgather of Section III.B. Collective implementations
// know their own communication structure, so they pass the concurrent
// stream count explicitly; this keeps the model deterministic.
package simnet

import (
	"fmt"
	"sync/atomic"

	"numabfs/internal/fault"
	"numabfs/internal/machine"
)

// Network charges virtual time for transfers over a machine's topology
// and keeps volume counters used to verify Eq. (1) and Eq. (2).
type Network struct {
	cfg machine.Config

	// inj perturbs inter-node bandwidth (internal/fault). New installs
	// the config's weak node as a trivial static plan; SetInjector
	// replaces it wholesale. Held through an atomic pointer because
	// SetInjector (driver goroutine, between runs) would otherwise be a
	// plain write racing TransferTimeAt readers on rank goroutines.
	inj atomic.Pointer[fault.Injector]

	intraBytes atomic.Int64 // bytes moved between ranks of one node
	interBytes atomic.Int64 // bytes moved between nodes
	intraMsgs  atomic.Int64
	interMsgs  atomic.Int64

	// Raw (logical, pre-compression) volume. TransferTime counts what
	// crosses the wire; when payloads travel encoded (wire formats of
	// internal/wire), the mpi layer also reports the logical size here,
	// so wire-vs-raw shows the compression savings in one run. For
	// uncompressed traffic the raw counters equal the wire counters.
	rawIntraBytes atomic.Int64
	rawInterBytes atomic.Int64

	degradedMsgs atomic.Int64 // inter-node messages sent at reduced bandwidth

	// Reliable-transport ledger (internal/mpi under a fault.Plan with
	// Loss events). Protocol traffic — frame headers, retransmitted
	// frames, duplicates and acks — lands in interBytes like any wire
	// traffic; xportOverheadBytes records how much of interBytes it is,
	// so goodput = InterBytes - XportOverheadBytes and the goodput /
	// raw-wire split mirrors the compression ledger's wire / raw split.
	xportOverheadBytes atomic.Int64
	xportRetransmits   atomic.Int64 // frames sent beyond the first attempt
	xportCorruptions   atomic.Int64 // frames delivered corrupted, caught by CRC
	xportDuplicates    atomic.Int64 // duplicate frame deliveries
	xportReorders      atomic.Int64 // frames held for resequencing
	xportAcks          atomic.Int64 // ack frames
}

// New returns a network over cfg. The testbed's ill-performing node
// (cfg.WeakNode) is realized as a static single-event fault plan; it is
// validated by machine.Config.Validate, so compiling it cannot fail.
func New(cfg machine.Config) *Network {
	inj, err := fault.NewInjector(fault.WeakNode(cfg.WeakNode, cfg.WeakNodeBWFactor), 0)
	if err != nil {
		panic(fmt.Sprintf("simnet: invalid weak-node config: %v", err))
	}
	n := &Network{cfg: cfg}
	n.inj.Store(inj)
	return n
}

// Injector returns the network's current fault injector.
func (n *Network) Injector() *fault.Injector { return n.inj.Load() }

// SetInjector replaces the fault injector. The caller owns composing the
// config's weak node into the new plan if it should persist (see
// mpi.World.InjectFaults). The swap is atomic, so a concurrent transfer
// is charged consistently under exactly one of the two injectors; for
// deterministic results, still install plans only between runs.
func (n *Network) SetInjector(inj *fault.Injector) { n.inj.Store(inj) }

// PeakStreamBandwidth returns the undegraded inter-node bandwidth
// (bytes/ns) a single rank's stream can drive — the normalization
// constant the observability layer's link-utilization view divides
// per-bucket wire volume by.
func (n *Network) PeakStreamBandwidth() float64 { return n.cfg.StreamBandwidth(1) }

// IntraNodeBandwidth returns the per-stream shared-memory copy bandwidth
// when `streams` rank pairs of the node copy concurrently. The copies all
// run through the node's memory system, so they share it.
func (n *Network) IntraNodeBandwidth(streams int) float64 {
	if streams < 1 {
		panic(fmt.Sprintf("simnet: stream count %d, need >= 1", streams))
	}
	return n.cfg.ShmCopyBW / float64(streams)
}

// Path is the α–β price of one link class at one stream count: a
// message of b bytes takes AlphaNs + b/BW (Time), BW in bytes/ns.
type Path struct{ AlphaNs, BW float64 }

// Path returns the price of the intra-node (shared-memory) or the
// inter-node path when `streams` concurrent streams share its contended
// resource. Every transfer is priced through it: TransferTimeAt per
// message, and a replayed collective (mpi.Gate) from a table of them.
func (n *Network) Path(intra bool, streams int) Path {
	if intra {
		return Path{n.cfg.IntraNodeAlphaNs, n.IntraNodeBandwidth(streams)}
	}
	return Path{n.cfg.InterNodeAlphaNs, n.cfg.StreamBandwidth(streams)}
}

// Time returns the duration (ns) of moving `bytes` over p with its
// bandwidth scaled by f: a fault.Injector link factor, exactly 1 when
// no event slows the link (and always 1 intra-node). A zero-byte
// transfer still pays the alpha overhead — it is a synchronizing
// message.
func (p Path) Time(bytes int64, f float64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("simnet: negative transfer size %d", bytes))
	}
	return p.AlphaNs + float64(bytes)/(p.BW*f)
}

// TransferTime returns the virtual duration (ns) of moving `bytes` from a
// rank on srcNode to a rank on dstNode with `streams` concurrent streams
// on the contended resource (the NIC for inter-node, the memory system
// for intra-node), and counts the message. Equivalent to TransferTimeAt
// at virtual time zero (before any scheduled fault event can start).
func (n *Network) TransferTime(bytes int64, srcNode, dstNode, streams int) float64 {
	return n.TransferTimeAt(0, bytes, srcNode, dstNode, streams)
}

// TransferTimeAt is TransferTime for a transfer beginning at virtual
// time `at`: bandwidth-degradation events active at that moment slow the
// inter-node path. The degradation factor is sampled once at transfer
// start — events are coarse relative to single messages, so integrating
// the rate over a window boundary is not worth the model complexity.
func (n *Network) TransferTimeAt(at float64, bytes int64, srcNode, dstNode, streams int) float64 {
	if srcNode == dstNode {
		d := n.Path(true, streams).Time(bytes, 1)
		n.intraBytes.Add(bytes)
		n.intraMsgs.Add(1)
		return d
	}
	f := n.inj.Load().LinkFactor(srcNode, dstNode, at)
	d := n.Path(false, streams).Time(bytes, f)
	n.interBytes.Add(bytes)
	n.interMsgs.Add(1)
	if f != 1 {
		n.degradedMsgs.Add(1)
	}
	return d
}

// CountRaw records the logical (pre-compression) size of one received
// message. The mpi layer calls it exactly once per message, on the
// receiver side, next to the TransferTime charge for the wire bytes.
func (n *Network) CountRaw(bytes int64, intra bool) {
	if intra {
		n.rawIntraBytes.Add(bytes)
		return
	}
	n.rawInterBytes.Add(bytes)
}

// Count adds a batch of transfers' counts at once, every field of v, as
// their TransferTimeAt and CountRaw calls would have one by one: a
// replayed collective step tallies its messages and adds them here, so
// the shared counters are touched once per step, not per message.
func (n *Network) Count(v *Volume) {
	add(&n.intraBytes, v.IntraBytes)
	add(&n.interBytes, v.InterBytes)
	add(&n.intraMsgs, v.IntraMsgs)
	add(&n.interMsgs, v.InterMsgs)
	add(&n.rawIntraBytes, v.RawIntraBytes)
	add(&n.rawInterBytes, v.RawInterBytes)
	add(&n.degradedMsgs, v.DegradedMsgs)
	add(&n.xportOverheadBytes, v.Xport.OverheadBytes)
	n.CountXportEvents(v.Xport.Retransmits, v.Xport.Corruptions, v.Xport.Duplicates, v.Xport.Reorders, v.Xport.Acks)
}

// add adds d to c unless it is zero, sparing the shared cache line.
func add(c *atomic.Int64, d int64) {
	if d != 0 {
		c.Add(d)
	}
}

// CountXportOverhead attributes `bytes` of already-charged wire traffic
// to the reliable-transport protocol (frame headers, retransmissions,
// duplicates, acks). The transport calls it next to the TransferTimeAt
// charges it accounts for.
func (n *Network) CountXportOverhead(bytes int64) { n.xportOverheadBytes.Add(bytes) }

// CountXportEvents adds one batch of per-message transport outcomes:
// retransmitted frames (of which `corruptions` arrived but failed the
// CRC), duplicate deliveries, resequencing holds and ack frames.
func (n *Network) CountXportEvents(retransmits, corruptions, duplicates, reorders, acks int64) {
	add(&n.xportRetransmits, retransmits)
	add(&n.xportCorruptions, corruptions)
	add(&n.xportDuplicates, duplicates)
	add(&n.xportReorders, reorders)
	add(&n.xportAcks, acks)
}

// Xport is the reliable-transport slice of a Volume: how much of the
// inter-node wire traffic was protocol overhead rather than payload,
// and the event counts behind it. All-zero when no loss plan is active.
type Xport struct {
	OverheadBytes int64 // header + retransmit + duplicate + ack bytes within InterBytes
	Retransmits   int64
	Corruptions   int64
	Duplicates    int64
	Reorders      int64
	Acks          int64
}

// Volume reports cumulative transferred bytes and message counts. The
// Raw fields are the logical (pre-compression) volume; they equal the
// wire fields unless encoded payloads were in flight.
type Volume struct {
	IntraBytes, InterBytes       int64
	IntraMsgs, InterMsgs         int64
	RawIntraBytes, RawInterBytes int64

	// DegradedMsgs counts inter-node messages that paid a fault-injected
	// bandwidth penalty (weak node, brown-out, or link event).
	DegradedMsgs int64

	// Xport is the reliable-transport overhead ledger. Inter-node
	// goodput is InterBytes - Xport.OverheadBytes.
	Xport Xport
}

// Volume returns the network's cumulative counters.
func (n *Network) Volume() Volume {
	return Volume{
		IntraBytes:    n.intraBytes.Load(),
		InterBytes:    n.interBytes.Load(),
		IntraMsgs:     n.intraMsgs.Load(),
		InterMsgs:     n.interMsgs.Load(),
		RawIntraBytes: n.rawIntraBytes.Load(),
		RawInterBytes: n.rawInterBytes.Load(),
		DegradedMsgs:  n.degradedMsgs.Load(),
		Xport: Xport{
			OverheadBytes: n.xportOverheadBytes.Load(),
			Retransmits:   n.xportRetransmits.Load(),
			Corruptions:   n.xportCorruptions.Load(),
			Duplicates:    n.xportDuplicates.Load(),
			Reorders:      n.xportReorders.Load(),
			Acks:          n.xportAcks.Load(),
		},
	}
}

// ResetVolume zeroes the counters (between experiment phases).
func (n *Network) ResetVolume() {
	n.intraBytes.Store(0)
	n.interBytes.Store(0)
	n.intraMsgs.Store(0)
	n.interMsgs.Store(0)
	n.rawIntraBytes.Store(0)
	n.rawInterBytes.Store(0)
	n.degradedMsgs.Store(0)
	n.xportOverheadBytes.Store(0)
	n.xportRetransmits.Store(0)
	n.xportCorruptions.Store(0)
	n.xportDuplicates.Store(0)
	n.xportReorders.Store(0)
	n.xportAcks.Store(0)
}
