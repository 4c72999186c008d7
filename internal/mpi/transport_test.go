package mpi

import (
	"runtime"
	"testing"

	"numabfs/internal/fault"
	"numabfs/internal/simnet"
	"numabfs/internal/wire"
)

// exchange is a small mixed workload touching all three delivery paths:
// blocking pairs, a sendrecv ring, and nonblocking overlap.
func exchange(p *Proc) {
	np := p.World().NumProcs()
	// Blocking pair: rank 0 -> last rank (inter-node in testWorld).
	if p.Rank() == 0 {
		p.Send(np-1, 1, 1000, nil, 1)
	}
	if p.Rank() == np-1 {
		p.Recv(0, 1)
	}
	// SendRecv ring, three rounds.
	for s := 0; s < 3; s++ {
		dst := (p.Rank() + 1) % np
		src := (p.Rank() - 1 + np) % np
		p.SendRecv(dst, 10+s, 512, nil, src, 10+s, 1)
	}
	// Nonblocking cross-node pair with overlap.
	if p.Rank() == 0 {
		var m Msg
		rr := p.Irecv(np-1, 2, &m)
		rs := p.Isend(np-1, 3, 2048, nil, 1)
		p.Compute(5000)
		rr.Wait()
		rs.Wait()
	}
	if p.Rank() == np-1 {
		var m Msg
		rr := p.Irecv(0, 3, &m)
		rs := p.Isend(0, 2, 4096, nil, 1)
		p.Compute(1000)
		rs.Wait()
		rr.Wait()
	}
	p.Barrier()
}

// TestTransportIdentityWithoutLossPlan pins the identity guarantee at
// the mpi layer: a seeded plan whose only event is neutral (bandwidth
// factor 1 on every link) and that declares no Loss events leaves every
// clock and every ledger bit-identical to no plan at all, with the
// transport counters untouched.
func TestTransportIdentityWithoutLossPlan(t *testing.T) {
	base := testWorld(t, 2)
	base.Run(exchange)

	tuned := testWorld(t, 2)
	if err := tuned.InjectFaults(fault.Plan{
		Seed: 7,
		BW:   []fault.BWEvent{{Node: -1, Src: -1, Dst: -1, Factor: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	tuned.Run(exchange)

	for r := 0; r < base.NumProcs(); r++ {
		if a, b := base.Proc(r).Clock(), tuned.Proc(r).Clock(); a != b {
			t.Errorf("rank %d clock %v != %v under a plan without loss", r, a, b)
		}
		if x := tuned.Proc(r).XportNs(); x != 0 {
			t.Errorf("rank %d transport time %v under a plan without loss", r, x)
		}
	}
	va, vb := base.Net().Volume(), tuned.Net().Volume()
	if va != vb {
		t.Errorf("volumes differ:\n%+v\n%+v", va, vb)
	}
	if vb.Xport != (simnet.Xport{}) {
		t.Errorf("plan without loss touched the transport ledger: %+v", vb.Xport)
	}
}

// TestTransportProtocolCharges verifies the analytic charging of a
// clean (zero-rate) lossy link: one inter-node message pays exactly one
// framed transfer plus one ack, the overhead ledger carries header+ack,
// and goodput equals the payload.
func TestTransportProtocolCharges(t *testing.T) {
	w := testWorld(t, 2)
	if err := w.InjectFaults(fault.Lossy(1, 0)); err != nil {
		t.Fatal(err)
	}
	const payload = 1000
	last := w.NumProcs() - 1
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(last, 1, payload, nil, 1)
		case last:
			p.Recv(0, 1)
		}
	})
	cfg := w.Config()
	bw := cfg.StreamBandwidth(1)
	frameDur := cfg.InterNodeAlphaNs + float64(payload+wire.FrameHeaderBytes)/bw
	ackDur := cfg.InterNodeAlphaNs + float64(wire.AckFrameBytes)/bw
	if got := w.Proc(last).Clock(); got != frameDur {
		t.Errorf("receiver clock %v, want frame transfer %v", got, frameDur)
	}
	if got := w.Proc(0).Clock(); got != frameDur+ackDur {
		t.Errorf("sender clock %v, want frame+ack %v", got, frameDur+ackDur)
	}
	v := w.Net().Volume()
	if v.InterBytes != payload+wire.FrameHeaderBytes+wire.AckFrameBytes {
		t.Errorf("inter bytes %d", v.InterBytes)
	}
	if v.InterMsgs != 2 {
		t.Errorf("inter msgs %d, want frame + ack", v.InterMsgs)
	}
	if v.Xport.OverheadBytes != wire.FrameHeaderBytes+wire.AckFrameBytes {
		t.Errorf("overhead %d", v.Xport.OverheadBytes)
	}
	if g := v.InterBytes - v.Xport.OverheadBytes; g != payload {
		t.Errorf("goodput %d, want %d", g, payload)
	}
	if v.Xport.Acks != 1 || v.Xport.Retransmits != 0 || v.Xport.Duplicates != 0 {
		t.Errorf("xport events %+v", v.Xport)
	}
	if v.RawInterBytes != payload {
		t.Errorf("raw inter bytes %d", v.RawInterBytes)
	}
}

// TestTransportIntraNodeBypassesProtocol: shared-memory traffic is
// reliable by construction and never framed, even under a loss plan
// covering every link.
func TestTransportIntraNodeBypassesProtocol(t *testing.T) {
	w := testWorld(t, 2)
	if err := w.InjectFaults(fault.Lossy(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, 1000, nil, 1) // ranks 0 and 1 share node 0
		case 1:
			p.Recv(0, 1)
		}
	})
	v := w.Net().Volume()
	if v.Xport != (simnet.Xport{}) {
		t.Errorf("intra-node message hit the transport: %+v", v.Xport)
	}
	if v.IntraBytes != 1000 || v.InterBytes != 0 {
		t.Errorf("volume %+v", v)
	}
}

// TestTransportRetransmitTiming uses a total brown-out window so the
// first attempt is deterministically lost: the message must arrive via
// the retransmission at exactly one timeout later, with the lost frame
// charged as overhead.
func TestTransportRetransmitTiming(t *testing.T) {
	const rto = fault.RetransmitTimeoutNs
	plan := fault.Plan{
		Seed: 1,
		Loss: []fault.Loss{{Node: -1, Src: -1, Dst: -1, DropProb: 1, UntilNs: 1}},
	}
	w := testWorld(t, 2)
	if err := w.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	const payload = 1000
	last := w.NumProcs() - 1
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(last, 1, payload, nil, 1)
		case last:
			p.Recv(0, 1)
		}
	})
	cfg := w.Config()
	bw := cfg.StreamBandwidth(1)
	frameDur := cfg.InterNodeAlphaNs + float64(payload+wire.FrameHeaderBytes)/bw
	if got, want := w.Proc(last).Clock(), rto+frameDur; got != want {
		t.Errorf("receiver clock %v, want retransmit at timeout: %v", got, want)
	}
	v := w.Net().Volume()
	if v.Xport.Retransmits != 1 {
		t.Errorf("retransmits %d, want 1", v.Xport.Retransmits)
	}
	wantOverhead := int64(payload) + 3*wire.FrameHeaderBytes // lost frame + delivered header + ack
	if v.Xport.OverheadBytes != wantOverhead {
		t.Errorf("overhead %d, want %d", v.Xport.OverheadBytes, wantOverhead)
	}
	if g := v.InterBytes - v.Xport.OverheadBytes; g != payload {
		t.Errorf("goodput %d, want %d", g, payload)
	}
}

// TestTransportBackoffOutlastsBrownout: a 100%-drop window much longer
// than the base timeout must be survived by the exponential backoff
// schedule within the retry budget.
func TestTransportBackoffOutlastsBrownout(t *testing.T) {
	plan := fault.Plan{
		Seed: 1,
		// Attempts at 0, 20k, 60k, 140k, 300k and 620k: five are lost.
		Loss: []fault.Loss{{Node: -1, Src: -1, Dst: -1, DropProb: 1, UntilNs: 500e3}},
	}
	w := testWorld(t, 2)
	if err := w.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	last := w.NumProcs() - 1
	err := w.TryRun(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(last, 1, 100, nil, 1)
		case last:
			p.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatalf("brown-out not survived: %v", err)
	}
	if got := w.Proc(last).Clock(); got < 500e3 {
		t.Errorf("receiver clock %v inside the brown-out window", got)
	}
	v := w.Net().Volume()
	if v.Xport.Retransmits < 5 {
		t.Errorf("retransmits %d, want a backoff ladder", v.Xport.Retransmits)
	}
}

// TestTransportBudgetExhaustion: a permanently dead link must surface as
// a structured KindLinkLoss fault on the receiving rank, not hang or
// panic opaquely, once drop probability 1 has eaten all 16 transmissions.
func TestTransportBudgetExhaustion(t *testing.T) {
	plan := fault.Plan{
		Seed: 1,
		Loss: []fault.Loss{{Node: -1, Src: -1, Dst: -1, DropProb: 1}},
	}
	w := testWorld(t, 2)
	if err := w.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	last := w.NumProcs() - 1
	err := w.TryRun(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(last, 1, 100, nil, 1)
		case last:
			p.Recv(0, 1)
		}
	})
	fe, ok := err.(*fault.Error)
	if !ok {
		t.Fatalf("error = %v, want *fault.Error", err)
	}
	if fe.Kind != fault.KindLinkLoss {
		t.Errorf("kind = %v, want KindLinkLoss", fe.Kind)
	}
	if fe.Rank != last {
		t.Errorf("rank = %d, want the receiver %d", fe.Rank, last)
	}
	if v := w.Net().Volume(); v.Xport.Retransmits != fault.RetryBudget {
		t.Errorf("retransmits %d, want the full budget of %d", v.Xport.Retransmits, fault.RetryBudget)
	}
}

// TestTransportDupReorderCorruptCounters forces each remaining fate with
// probability-one events and checks the ledgers.
func TestTransportDupReorderCorruptCounters(t *testing.T) {
	plan := fault.Plan{
		Seed: 1,
		Loss: []fault.Loss{{Node: -1, Src: -1, Dst: -1, DupProb: 1, ReorderProb: 1, ReorderWindow: 3}},
	}
	w := testWorld(t, 2)
	if err := w.InjectFaults(plan); err != nil {
		t.Fatal(err)
	}
	const payload = 1000
	last := w.NumProcs() - 1
	w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(last, 1, payload, nil, 1)
		case last:
			p.Recv(0, 1)
		}
	})
	v := w.Net().Volume()
	if v.Xport.Duplicates != 1 || v.Xport.Reorders != 1 {
		t.Errorf("xport %+v, want 1 dup + 1 reorder", v.Xport)
	}
	// The duplicate burns a full extra frame on the wire.
	frame := int64(payload + wire.FrameHeaderBytes)
	if v.InterBytes != 2*frame+wire.AckFrameBytes {
		t.Errorf("inter bytes %d, want original + duplicate + ack", v.InterBytes)
	}
	// The resequencing hold delays delivery by 1..3 inter-node alphas.
	cfg := w.Config()
	bw := cfg.StreamBandwidth(1)
	clean := cfg.InterNodeAlphaNs + float64(frame)/bw
	hold := w.Proc(last).Clock() - clean
	alpha := cfg.InterNodeAlphaNs
	if hold < alpha-1e-9 || hold > 3*alpha+1e-9 {
		t.Errorf("reorder hold %v, want within [1, 3] alphas (%v)", hold, alpha)
	}

	// Corruption: CRC-detected and retransmitted, counted separately.
	w2 := testWorld(t, 2)
	if err := w2.InjectFaults(fault.Plan{
		Seed: 1,
		Loss: []fault.Loss{{Node: -1, Src: -1, Dst: -1, CorruptProb: 1, UntilNs: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	w2.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(last, 1, payload, nil, 1)
		case last:
			p.Recv(0, 1)
		}
	})
	v2 := w2.Net().Volume()
	if v2.Xport.Corruptions != 1 || v2.Xport.Retransmits != 1 {
		t.Errorf("corruption ledger %+v, want 1 corruption causing 1 retransmit", v2.Xport)
	}
}

// TestTransportDeterministicAcrossHostParallelism runs a contended
// workload under a mixed loss plan at GOMAXPROCS 1 and 4: every rank
// clock and every ledger must be bit-identical.
func TestTransportDeterministicAcrossHostParallelism(t *testing.T) {
	run := func(procs int) ([]float64, simnet.Volume) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		w := testWorld(t, 2)
		if err := w.InjectFaults(fault.Lossy(42, 0.05)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			w.Run(exchange)
		}
		clocks := make([]float64, w.NumProcs())
		for r := range clocks {
			clocks[r] = w.Proc(r).Clock()
		}
		return clocks, w.Net().Volume()
	}
	c1, v1 := run(1)
	c4, v4 := run(4)
	for r := range c1 {
		if c1[r] != c4[r] {
			t.Errorf("rank %d clock %v != %v across GOMAXPROCS", r, c1[r], c4[r])
		}
	}
	if v1 != v4 {
		t.Errorf("volumes differ across GOMAXPROCS:\n%+v\n%+v", v1, v4)
	}
}
