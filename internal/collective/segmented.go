package collective

import (
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
	// segChunkCount), and a member posts a chunk's transfer before it
	// decodes and scans the chunk that just landed — Buluç & Madduri's
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
}

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

// scan calls a's chunk hook, if any, on chunks [q0, q1) of segment k
// of its buffer, charging p what it returns.
func (a *shiftArgs) scan(p *mpi.Proc, k, q0, q1 int) {
	for q := q0; a.hook != nil && q < q1; q++ {
		w0, w1 := chunkSpan(a.l, k, q, a.chunks)
		p.Compute(a.hook(w0, w1))
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
