package collective

import (
	"fmt"

	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/wire"
)

// Exchange describes the send path of one allgather; the zero value is
// a blocking exchange of raw words. Compression is a stage of the send
// path and pipelining a schedule of it — neither is a second collective.
type Exchange struct {
	// Codec, when non-nil, makes every ring segment travel in its wire
	// formats: encoded once at the origin, forwarded still-encoded.
	Codec *wire.Codec
	// Chunks > 0 selects the pipelined schedule: every member's segment
	// is split into that many uniform chunks (clamped, see
	// segChunkCount), the rings are driven through Isend/Irecv so one
	// chunk transfer per neighbor is in flight while the rank decodes
	// and scans the chunk that just landed — Buluç & Madduri's
	// communication/computation overlap on the paper's NUMA-aware
	// collective. OnChunk, when non-nil, is called with every finalized
	// word range of the destination buffer and returns compute ns to
	// charge; Overlap (required) receives the hidden/exposed ledger.
	// Replayed, OnChunk runs on the thread that walks the ring, so it may
	// read only words its own ring has landed, or that were in place.
	Chunks  int
	OnChunk func(w0, w1 int64) float64
	Overlap *Overlap
}

// variant indexes a row of labels: in-place, pipelined, compressed.
func (x Exchange) variant(inPlace bool) int {
	return b2i(inPlace)<<2 | b2i(x.Chunks > 0)<<1 | b2i(x.Codec != nil)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// labelRing is the labels row of the plain group ring (the rows before
// it are indexed by Scheme).
const labelRing = int(SchemeParallel) + 1

// labels holds the obs collective label of every (algorithm, variant)
// pair — keys in -metrics/-trace exports, built once so that no call
// concatenates (and allocates) one. The library scheme has no row: the
// algorithm it picks labels itself.
var labels = func() (t [labelRing + 1][8]string) {
	base := [labelRing + 1][2]string{ // {staged, in place}
		SchemeLeader:    {"leader-allgather-staged", "leader-allgather"},
		SchemeSharedIn:  {"shared-inq-allgather", "shared-inplace-allgather"},
		SchemeSharedAll: {"shared-all-allgather", "shared-inplace-allgather"},
		SchemeParallel:  {"par-allgather", "par-allgather-inplace"},
		labelRing:       {"allgather-ring", "allgather-ring"},
	}
	for a := range t {
		for v := range t[a] {
			t[a][v] = base[a][v>>2] + [2]string{"", "-seg"}[v>>1&1] + [2]string{"", "-comp"}[v&1]
		}
	}
	return t
}()

// Overlap is the caller-owned ledger a pipelined allgather fills in: how
// much of the transfer time ran under the rank's own computation
// (hidden) versus stalled the rank in Wait (exposed), and the chunk
// count actually used. The ledger is reset at the start of each
// collective.
type Overlap struct {
	// HiddenNs is the part of the received transfers that completed (or
	// progressed) before the rank reached its Wait — communication the
	// pipeline hid behind decode and frontier scanning. ExposedNs is the
	// clock the rank actually spent stalled in the send/recv Waits;
	// transport retransmission delays under lossy links surface here.
	HiddenNs  float64
	ExposedNs float64
	// Segments is the chunk count per member segment actually used: the
	// requested count clamped to the smallest segment and the tag space.
	Segments int

	// hold is the ring pipeline's forwarding slots (the chunk received
	// at flattened index k waits here until send k+Q). They live on the
	// caller-owned ledger so steady-state collectives — one per
	// bottom-up level of every root — reuse them instead of allocating
	// per call. Stale entries are never read: slot q is always rewritten
	// (step 0's receive) before its first forward.
	hold []mpi.Payload
}

func (o *Overlap) reset() { o.HiddenNs, o.ExposedNs, o.Segments = 0, 0, 0 }

// segChunkCount clamps the requested chunk count to what the layout and
// the tag space support: at least 1, at most the smallest non-empty
// segment (so no chunk is empty), at most 256 (the flattened step×chunk
// tags of a 16-node subgroup then stay inside the 0xB000 block).
func segChunkCount(l Layout, want int) int {
	q := int64(min(max(want, 1), 256))
	for _, c := range l.Counts {
		if c > 0 && c < q {
			q = c
		}
	}
	return int(q)
}

// chunkSpan returns the word range [w0, w1) of chunk q (of Q) of member
// id's segment. Both sides of every transfer derive the same bounds from
// the layout, so no chunk geometry ever crosses the wire.
func chunkSpan(l Layout, id, q, Q int) (int64, int64) {
	d, c := l.Displs[id], l.Counts[id]
	return d + c*int64(q)/int64(Q), d + c*int64(q+1)/int64(Q)
}

// segStep maps flattened step k of a ring of n members pipelined in Q
// chunks to its ring step s, its chunk q and the origin of the chunk
// member me receives; the member before me sends it. Both executors
// walk these steps.
func segStep(k, Q, me, n int) (s, q, from int) {
	s, q = k/Q, k%Q
	return s, q, (me - s - 1 + n) % n
}

// scanOwn calls hook, when non-nil, on each of member me's own chunks,
// charging p what it returns.
func scanOwn(p *mpi.Proc, l Layout, me, Q int, hook func(w0, w1 int64) float64) {
	for q := 0; hook != nil && q < Q; q++ {
		w0, w1 := chunkSpan(l, me, q, Q)
		p.Compute(hook(w0, w1))
	}
}

// wait books one chunk's Waits of p in the ledger: the clock p stalled
// since it reached them at ready (exposed, and sampled as the
// exposed-wait gauge), and the part of its received transfer [begin,
// end) that ran before ready (hidden).
func (o *Overlap) wait(p *mpi.Proc, ready, begin, end float64) {
	if d := p.Clock() - ready; d > 0 {
		o.ExposedNs += d
		p.Obs().Sample(obs.GaugeExposedWait, ready, d)
	}
	if h := min(ready, end) - begin; h > 0 {
		o.HiddenNs += h
	}
}

// allgatherRingPipelined is the pipelined ring driver. The (n-1) ring
// steps × Q chunks flatten to K exchanges (segStep); the loop keeps
// exactly one send and one receive in flight: wait on pair k, post pair
// k+1, then decode and scan chunk k while pair k+1's transfer runs.
// Send k+1 always forwards data whose receive completed at k+1-Q ≤ k,
// so the pipeline can never deadlock on the capacity-1 slots, and the
// per-chunk Wait bracketing splits every transfer into hidden and
// exposed time via Request.BeginNs/EndNs. One pipelined message is a
// typed mpi.Payload: chunk Q of origin segment ID, as raw Words
// (forwarded chunks alias the origin's buffer, stable for the whole
// collective) or, with a codec, as a Wire payload whose bytes live in
// the origin's per-slot scratch (wire.EncodeSlot, stable until the
// origin's next collective — forwarding never re-encodes). onChunk sees
// the rank's own chunks first, right after the pipeline starts, so
// their scan overlaps the first transfer. That is the first executor,
// run with crashes or lossy links in the plan; otherwise every member
// posts its arguments at the group's gate and the last one replays the
// loop for all of them (walkSeg).
func (g *Group) allgatherRingPipelined(p *mpi.Proc, buf []uint64, l Layout, streams int, x Exchange) {
	c, onChunk, ov := x.Codec, x.OnChunk, x.Overlap
	Q := segChunkCount(l, x.Chunks)
	ov.Segments = Q
	n := g.Size()
	me := g.Pos(p.Rank())
	if n == 1 {
		scanOwn(p, l, me, Q, onChunk)
		return
	}
	if !forceMessages && p.World().Injector().Replayable() {
		if c != nil && len(g.priced[me]) < Q {
			g.priced[me] = make([]wire.Price, Q)
		}
		for q := 0; c != nil && q < Q; q++ { // price this member's chunks, on its worker
			w0, w1 := chunkSpan(l, me, q, Q)
			g.priced[me][q], _ = c.Price(buf[w0:w1])
		}
		g.posted[me] = shiftArgs{buf: buf, l: l, c: c, streams: streams, hook: onChunk, ov: ov}
		g.gate.Streams[me] = streams
		g.gate.Pass(p, me, tagSeg, func() { g.walkSeg() })
		g.posted[me] = shiftArgs{}
		return
	}
	next := g.ranks[(me+1)%n]
	prev := g.ranks[(me-1+n)%n]
	K := (n - 1) * Q

	// hold[q] carries the payload received at flattened index k (k%Q == q)
	// until send k+Q forwards it as it came: same origin, same chunk,
	// raw alias or still-encoded bytes.
	if cap(ov.hold) < Q {
		ov.hold = make([]mpi.Payload, Q)
	}
	hold := ov.hold[:Q]

	postPair := func(k int) (*mpi.Request, *mpi.Request) {
		s, q, _ := segStep(k, Q, me, n)
		tag := tagSeg + k
		pl := hold[q]
		if s == 0 {
			w0, w1 := chunkSpan(l, me, q, Q)
			pl = mpi.Payload{ID: me, Q: q}
			if c != nil {
				var ns float64
				pl.Wire, ns = c.EncodeSlot(buf[w0:w1], q)
				p.Compute(ns)
			} else {
				pl.Words = buf[w0:w1]
			}
		}
		var sr *mpi.Request
		if c != nil {
			sr = p.IsendWire(next, tag, pl, streams)
		} else {
			sr = p.IsendPayload(next, tag, int64(len(pl.Words))*8, pl, streams)
		}
		return sr, p.Irecv(prev, tag, nil)
	}

	sr, rr := postPair(0)
	scanOwn(p, l, me, Q, onChunk) // while chunk 0 is in flight

	for k := 0; k < K; k++ {
		_, q, recvID := segStep(k, Q, me, n)

		// Receive before the send wait: the send's ack only arrives once
		// the successor executes its own receive, so waiting on the send
		// first would deadlock the whole ring in send waits.
		waitStart := p.Clock()
		rr.Wait()
		sr.Wait()
		ov.wait(p, waitStart, rr.BeginNs, rr.EndNs)

		// Extract and stash the payload before posting pair k+1: the
		// pooled Request's message is only valid until then, and the
		// pair's send may read hold slot q for a deeper forward in a later
		// iteration (the in-flight message keeps its own copy of the value).
		in := rr.Msg().Payload
		if in.ID != recvID || in.Q != q {
			panic(fmt.Sprintf("collective: segmented ring expected chunk %d/%d, got %d/%d",
				recvID, q, in.ID, in.Q))
		}
		hold[q] = in

		if k+1 < K {
			sr, rr = postPair(k + 1)
		}

		// Chunk k is final: land it and scan it while pair k+1 flies.
		w0, w1 := chunkSpan(l, in.ID, in.Q, Q)
		if c != nil {
			p.Compute(c.Decode(buf[w0:w1], in.Wire))
		} else {
			copy(buf[w0:w1], in.Words)
		}
		if onChunk != nil {
			p.Compute(onChunk(w0, w1))
		}
	}
}

// walkSeg replays the pipelined ring for every member, in its loop's
// order: member i posts step k+1 once its Waits of step k are booked,
// then lands chunk k, is charged its decode and scans it. A chunk lands
// as a copy of its origin's raw words, so a hook reads them only once
// they are in place, as in the loop; under a codec it is priced by its
// origin before the gate, its encode charged at its first post and its
// decode after it lands.
func (g *Group) walkSeg() {
	n, gt, ps := len(g.ranks), g.gate, g.posted
	Q := ps[0].ov.Segments
	K := (n - 1) * Q
	post := func(i, k int) {
		s, q, o := segStep(k, Q, (i+1)%n, n) // what i's successor receives
		a := &ps[i]
		if a.c == nil {
			w0, w1 := chunkSpan(a.l, o, q, Q)
			gt.Bytes[i], gt.Raw[i] = (w1-w0)*8, (w1-w0)*8
		} else {
			pr := g.priced[o][q]
			if s == 0 {
				gt.Member(i).Compute(a.c.Cost(pr, false))
			}
			gt.Bytes[i], gt.Raw[i] = pr.WireBytes, pr.RawBytes
		}
		gt.Post(i, (i+1)%n)
	}
	for i := range n {
		post(i, 0)
		scanOwn(gt.Member(i), ps[i].l, i, Q, ps[i].hook)
	}
	for k := range K {
		gt.Step(1, false)
		for r := range n {
			p, a := gt.Member(r), &ps[r]
			a.ov.wait(p, gt.Ready[r], gt.Begin[r], gt.End[r])
			if k+1 < K {
				post(r, k+1)
			}
			_, q, o := segStep(k, Q, r, n)
			w0, w1 := chunkSpan(a.l, o, q, Q)
			copy(a.buf[w0:w1], ps[o].buf[w0:w1])
			if a.c != nil {
				p.Compute(a.c.Cost(g.priced[o][q], true))
			}
			if a.hook != nil {
				p.Compute(a.hook(w0, w1))
			}
		}
	}
}
