package mpi

import (
	"numabfs/internal/fault"
	"numabfs/internal/obs"
	"numabfs/internal/wire"
)

// This file is the reliable-transport layer under every point-to-point
// delivery (Recv, SendRecv, Irecv.Wait, and so every collective). When
// the fault plan declares lossy links (fault.Plan.Loss), inter-node
// messages are priced as sequenced, CRC-protected frames
// (wire.FrameHeaderBytes) that the receiver acknowledges only when
// intact and in order; a dropped or corrupted frame — corruption counts
// as a drop — is retransmitted after a timeout with exponential backoff
// until a retry budget runs out, which surfaces as a *fault.Error
// (KindLinkLoss) through the same path as a rank crash.
//
// No frame is ever built; the protocol is charged analytically: the
// receiver, which prices both sides of a rendezvous, walks the attempt
// schedule, drawing each frame's fate from the deterministic transport hash
// (fault.Injector.TransportDraw) of the message identity and attempt
// number — never a live counter — and charges every attempt, duplicate
// and ack to the virtual clock and the simnet ledgers. Fates therefore
// depend only on virtual time: repeats, GOMAXPROCS values and recovery
// replays see the same losses. (Two equal-size messages one rank posts
// to one peer at the same clock share a fate schedule; only back-to-back
// Isends can, and a shared fate is indistinguishable from a burst loss.)
// Without Loss events the fast path executes the pre-transport
// instruction sequence: results, ledgers and allocations are unchanged.

// rtoCapFactor bounds exponential backoff at this multiple of the base
// retransmission timeout (TCP-style cap), so a transient brown-out
// window longer than a few timeouts is survived with a bounded probe
// interval instead of one enormous overshoot.
const rtoCapFactor = 64

// deliver charges one message's delivery to the receiving rank p and
// returns when the payload is available to the receiver (recvEnd) and
// when the sender may complete (sendEnd: the cumulative-ack arrival
// under the reliable transport; equal to recvEnd otherwise). begin is
// the rendezvous start — the later of the sender's post and the
// receiver's arrival. Exactly one CountRaw charge happens inside. A
// collective's replay (Gate.Step) prices as its fast path does, through
// the same simnet.Path.
func (p *Proc) deliver(m *hop, begin float64) (recvEnd, sendEnd float64) {
	srcNode := p.w.procs[m.src].node
	intra := srcNode == p.node
	if intra || !p.w.inj.Reliable() {
		dur := p.w.net.TransferTimeAt(begin, m.bytes, srcNode, p.node, m.streams)
		if j := p.w.inj.JitterNs(m.src, p.rank, m.sent, m.bytes); j != 0 {
			dur += j
		}
		p.w.net.CountRaw(m.raw, intra)
		end := begin + dur
		p.obs.LinkTransfer(!intra, m.bytes, begin, end)
		return end, end
	}
	return p.reliableDeliver(m, begin, srcNode)
}

// reliableDeliver walks the reliable transport's attempt schedule for
// one inter-node message. Without gauge sampling it allocates nothing:
// the hot loop is scalar arithmetic over the deterministic draw hash
// plus atomic ledger adds.
func (p *Proc) reliableDeliver(m *hop, begin float64, srcNode int) (recvEnd, sendEnd float64) {
	inj := p.w.inj
	net := p.w.net
	frame := m.bytes + wire.FrameHeaderBytes
	rto := fault.RetransmitTimeoutNs
	maxRTO := rto * rtoCapFactor

	var retrans, corrupt int64
	var overheadBytes int64
	sendAt := begin
	var arrive float64
	var loss fault.LinkLoss
	for attempt := 1; ; attempt++ {
		dur := net.TransferTimeAt(sendAt, frame, srcNode, p.node, m.streams)
		if j := inj.JitterNs(m.src, p.rank, m.sent, m.bytes); j != 0 {
			dur += j
		}
		arrive = sendAt + dur
		// Every attempt occupies the wire for its flight window, lost or
		// not — the bytes-in-flight gauge sees them all.
		p.obs.LinkTransfer(true, frame, sendAt, arrive)
		// Sample the link at the attempt's send time, so a transient
		// brown-out window is outlasted by the backoff schedule.
		loss = inj.LossAt(srcNode, p.node, sendAt)
		lost := loss.Drop > 0 &&
			inj.TransportDraw(fault.DrawDrop, m.src, p.rank, m.sent, m.bytes, attempt) < loss.Drop
		if !lost && loss.Corrupt > 0 &&
			inj.TransportDraw(fault.DrawCorrupt, m.src, p.rank, m.sent, m.bytes, attempt) < loss.Corrupt {
			// Delivered but fails the CRC: discarded like a drop.
			lost = true
			corrupt++
		}
		if !lost {
			break
		}
		// The whole attempt was protocol overhead; the sender times out
		// and retransmits.
		net.CountXportOverhead(frame)
		overheadBytes += frame
		retrans++
		p.obs.Sample(obs.GaugeRetransBacklog, sendAt, 1)
		if attempt >= fault.RetryBudget {
			at := sendAt + rto
			net.CountXportEvents(retrans, corrupt, 0, 0, 0)
			p.obs.Xport(retrans, corrupt, 0, 0, 0, overheadBytes, at-begin)
			p.obs.FaultEvent("link-loss", at)
			panic(&fault.Error{Rank: p.rank, AtNs: at, Kind: fault.KindLinkLoss})
		}
		sendAt += rto
		if rto < maxRTO {
			rto *= fault.RetransmitBackoff
			if rto > maxRTO {
				rto = maxRTO
			}
		}
	}

	// Duplicate delivery: the copy burns wire bytes and a NIC slot but
	// trails the original, so the receiver discards it without delay.
	var dups int64
	if loss.Dup > 0 &&
		inj.TransportDraw(fault.DrawDup, m.src, p.rank, m.sent, m.bytes, 0) < loss.Dup {
		net.TransferTimeAt(arrive, frame, srcNode, p.node, m.streams)
		net.CountXportOverhead(frame)
		overheadBytes += frame
		dups++
	}

	// Reordering: the frame was overtaken by up to Window successors, so
	// the receiver holds it for the gap to close — one inter-node alpha
	// per overtaking frame slot.
	var reorders int64
	var hold float64
	if loss.Reorder > 0 {
		if d := inj.TransportDraw(fault.DrawReorder, m.src, p.rank, m.sent, m.bytes, 0); d < loss.Reorder {
			slots := 1 + int(d/loss.Reorder*float64(loss.Window))
			if slots > loss.Window {
				slots = loss.Window
			}
			hold = float64(slots) * p.w.cfg.InterNodeAlphaNs
			reorders++
		}
	}
	recvEnd = arrive + hold

	// Cumulative ack back to the sender: header-only frame, never lost in
	// the model (cumulative acks are loss-tolerant — the next one
	// supersedes). The sender completes when it arrives.
	ackDur := net.TransferTimeAt(recvEnd, wire.AckFrameBytes, p.node, srcNode, m.streams)
	sendEnd = recvEnd + ackDur
	// Overhead bytes: every lost attempt and duplicate (counted above),
	// the delivered frame's header, and the ack.
	net.CountXportOverhead(wire.FrameHeaderBytes + wire.AckFrameBytes)
	overheadBytes += wire.FrameHeaderBytes + wire.AckFrameBytes

	net.CountRaw(m.raw, false)
	net.CountXportEvents(retrans, corrupt, dups, reorders, 1)
	p.xportNs += (sendAt - begin) + hold + ackDur
	p.obs.Xport(retrans, corrupt, dups, reorders, 1, overheadBytes,
		(sendAt-begin)+hold+ackDur)
	return recvEnd, sendEnd
}
