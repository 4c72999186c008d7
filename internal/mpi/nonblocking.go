package mpi

import "fmt"

// Request is a handle to a nonblocking operation. Complete it with Wait;
// a Request must be waited on exactly once.
//
// Requests are pooled per rank: Wait returns the Request to its rank's
// free-list, and the rank's next Isend/Irecv may hand it back out. A
// completed Request's fields (BeginNs/EndNs, Msg) therefore stay valid
// only until the rank's next nonblocking post.
type Request struct {
	p    *Proc
	done bool

	// send fields
	sent *message

	// recv fields
	isRecv    bool
	src, tag  int
	postClock float64
	out       *Msg
	msg       Msg

	// BeginNs and EndNs bracket the completed transfer on the virtual
	// timeline (recv side only; valid after Wait): pipelined collectives
	// split it into hidden and exposed time against the clock at Wait.
	BeginNs, EndNs float64
}

// Msg returns the received message (recv side only; valid after Wait,
// until the rank's next nonblocking post). Reading it here instead of
// through an out pointer, which escapes, keeps the hot path
// allocation-free.
func (r *Request) Msg() Msg { return r.msg }

// Isend posts a nonblocking send. The transfer is timestamped with the
// clock at post time, so computation between Isend and Wait genuinely
// overlaps the transfer: Wait only advances the clock if the rendezvous
// finishes after the rank's own work. Like Send, it blocks while an
// earlier message to dst has not been received yet. The untyped payload
// arrives as Msg.Payload.Any. The simulator sends typed payloads through
// IsendPayload; only tests and the benchmark's probes use this.
func (p *Proc) Isend(dst, tag int, bytes int64, payload any, streams int) *Request {
	return p.isend(dst, tag, bytes, bytes, &Payload{Any: payload}, streams)
}

// IsendPayload is Isend with a typed payload, which boxes nothing.
func (p *Proc) IsendPayload(dst, tag int, bytes int64, pl Payload, streams int) *Request {
	return p.isend(dst, tag, bytes, bytes, &pl, streams)
}

// IsendWire is IsendPayload for an encoded payload: pl.Wire's WireBytes
// cross the simulated network, its RawBytes (the pre-encoding size) go
// to the raw-volume counters.
func (p *Proc) IsendWire(dst, tag int, pl Payload, streams int) *Request {
	return p.isend(dst, tag, pl.Wire.WireBytes, pl.Wire.RawBytes, &pl, streams)
}

func (p *Proc) isend(dst, tag int, wireBytes, rawBytes int64, pl *Payload, streams int) *Request {
	if dst == p.rank {
		panic(fmt.Sprintf("mpi: rank %d isend to self", p.rank))
	}
	p.checkCrash()
	m := p.newMessage(tag, wireBytes, rawBytes, streams, pl)
	p.post(dst, m)
	p.countMsg(dst, wireBytes, rawBytes)
	r := p.getReq()
	r.sent = m
	return r
}

// Irecv posts a nonblocking receive from src with the given tag. The
// message's transfer is timed from the later of the sender's post and
// this receive's post, so work between Irecv and Wait overlaps the
// incoming transfer. Like every post, it fires a scheduled crash the
// clock has reached. The received message is stored into out at Wait;
// out may be nil, in which case the message is read from Request.Msg.
func (p *Proc) Irecv(src, tag int, out *Msg) *Request {
	if src == p.rank {
		panic(fmt.Sprintf("mpi: rank %d irecv from self", p.rank))
	}
	p.checkCrash()
	r := p.getReq()
	r.isRecv = true
	r.src, r.tag = src, tag
	r.postClock = p.clock
	r.out = out
	return r
}

// Wait completes the operation: it blocks until the rendezvous partner
// has arrived, then advances the rank's clock to max(own clock, transfer
// end) — the overlap semantics of MPI_Wait. A nil Request, as
// MPI_REQUEST_NULL, completes at once.
func (r *Request) Wait() {
	if r == nil {
		return
	}
	if r.done {
		panic("mpi: Request waited on twice")
	}
	r.done = true
	p := r.p
	if !r.isRecv {
		end := p.await(r.sent)
		p.putMessage(r.sent)
		if end > p.clock {
			p.clock = end
		}
		p.putReq(r)
		return
	}
	r.BeginNs, r.EndNs = p.receive(r.src, r.tag, r.postClock, &r.msg)
	if r.EndNs > p.clock {
		p.clock = r.EndNs
	}
	if r.out != nil {
		*r.out = r.msg
	}
	p.putReq(r)
}
