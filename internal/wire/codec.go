package wire

import (
	"fmt"

	"numabfs/internal/machine"
	"numabfs/internal/omp"
)

// Price is an item as the cost model and the network see it: its wire
// format, the bytes that cross the simulated network (WireBytes), its
// logical pre-encoding size (RawBytes) and, for a bitmap segment, its
// set bits. Encode and EncodeList return it inside the payload; Price
// and PriceList return it without writing a byte.
type Price struct {
	Format    Format
	WireBytes int64
	RawBytes  int64
	Pop       int64
}

// Payload is one encoded item in flight through a collective. The
// dense format travels as an alias of the owner's stable words — no
// host copy, exactly like the uncompressed path — while the simulated
// transfer still pays DenseSize bytes. Every other format carries the
// real encoded bytes, so receivers exercise the byte decoders the fuzz
// tests cover.
type Payload struct {
	Price
	Dense []uint64
	Enc   []byte
}

// Stats accumulates one codec's encode-side selector decisions:
// segments encoded per format and the raw-vs-wire byte totals.
type Stats struct {
	Segments  [NumFormats]int64
	RawBytes  int64
	WireBytes int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	for i := range s.Segments {
		s.Segments[i] += o.Segments[i]
	}
	s.RawBytes += o.RawBytes
	s.WireBytes += o.WireBytes
}

// Codec encodes and decodes segments for one rank, charging the
// modelled CPU cost of every pass through the machine cost model (the
// rank's whole thread team streams the words, like the uncompressed
// path's staging copies). A Codec must not be shared between ranks,
// and one Codec serves one collective at a time: Encode reuses a
// single scratch buffer, and payloads alias it until every receiver
// has decoded — the collective's own synchronization (the ring
// completes before the next level's global allreduce) is what makes
// the reuse safe, the same argument as the engine's shared receive
// buffers.
type Codec struct {
	// Team is the rank's modelled execution resources (omp.TeamFor).
	Team omp.Team
	// Loc is the locality of the raw segment words being scanned.
	Loc machine.Locality

	// Force pins every segment to one wire format; FormatAuto (the
	// zero value) enables adaptive per-segment selection.
	Force Format
	// SparseMaxDensity, when > 0, replaces the analytic size-based
	// selector with the classic density threshold of Buluç & Madduri:
	// sparse below the threshold, dense at or above it (the ablation
	// knob; never chooses RLE).
	SparseMaxDensity float64

	buf []byte
	// slots are additional scratch buffers for pipelined collectives
	// (EncodeSlot): a segmented ring keeps several of this rank's
	// encoded chunks in flight at once — possibly several hops
	// downstream — so each chunk needs scratch that lives until the
	// whole collective completes. Grown on demand, reused across calls.
	slots [][]byte
	stats Stats
}

// Stats returns the codec's accumulated encode statistics.
func (c *Codec) Stats() Stats { return c.stats }

// ResetStats clears the accumulated statistics.
func (c *Codec) ResetStats() { c.stats = Stats{} }

// pick resolves the wire format for a segment with stats st.
func (c *Codec) pick(st SegStats) Format {
	f := c.Force
	if f == FormatAuto || f == FormatList {
		if c.SparseMaxDensity > 0 {
			f = FormatDense
			if st.Words <= sparseMaxWords &&
				float64(st.Pop) < c.SparseMaxDensity*float64(64*st.Words) {
				f = FormatSparse
			}
		} else {
			f, _ = Choose(st)
		}
	}
	if f == FormatSparse && st.Words > sparseMaxWords {
		f = FormatDense
	}
	return f
}

// Cost is the codec's one cost model: the modelled CPU time (ns) on
// the codec's team of encoding an item of price pr, or of decoding it.
// Both directions stream the raw words and the wire bytes once. Dense
// encode is only the selection scan — the payload aliases the words,
// so, like the uncompressed path, no host copy happens — and dense
// decode is free beyond the transfer (the receive copy is part of the
// modelled transfer). The per-word work is one operation per raw word,
// two when encoding RLE and either way for the varint lists, and one
// per set bit for sparse (plus the scan when encoding). The real codec
// and a replayed collective both charge it, so the two cannot drift.
func (c *Codec) Cost(pr Price, decode bool) float64 {
	words := pr.RawBytes / 8
	load := machine.PhaseLoad{SeqBytes: pr.RawBytes + pr.WireBytes, SeqLoc: c.Loc, CPUOps: words}
	switch {
	case pr.Format == FormatDense:
		if decode {
			return 0
		}
		load.SeqBytes = pr.RawBytes
	case pr.Format == FormatSparse && decode:
		load.CPUOps = pr.Pop
	case pr.Format == FormatSparse:
		load.CPUOps = words + pr.Pop
	case pr.Format == FormatList, !decode:
		load.CPUOps = 2 * words
	}
	return c.Team.Parallel(load)
}

// charge counts an encoded item in the statistics and returns its
// encode time.
func (c *Codec) charge(pr Price) float64 {
	c.stats.Segments[pr.Format]++
	c.stats.RawBytes += pr.RawBytes
	c.stats.WireBytes += pr.WireBytes
	return c.Cost(pr, false)
}

// price resolves the format of a segment with scan statistics st and
// its exact size in that format.
func (c *Codec) price(st SegStats) Price {
	f := c.pick(st)
	return Price{Format: f, WireBytes: int64(st.Size(f)), RawBytes: 8 * int64(st.Words), Pop: int64(st.Pop)}
}

// Price prices seg as Encode would encode it — the same format, wire
// size, statistics and modelled time — without writing a byte: a
// replayed collective moves the raw words and charges this.
func (c *Codec) Price(seg []uint64) (Price, float64) {
	pr := c.price(Analyze(seg))
	return pr, c.charge(pr)
}

// PriceList is Price for EncodeList.
func (c *Codec) PriceList(vals []int64) (Price, float64) {
	pr := Price{Format: FormatList, WireBytes: int64(ListSize(vals)), RawBytes: 8 * int64(len(vals))}
	return pr, c.charge(pr)
}

// Encode encodes seg and returns the payload plus the modelled CPU
// time (ns) of the selection scan and the encoding pass (Cost).
func (c *Codec) Encode(seg []uint64) (Payload, float64) {
	return c.encode(&c.buf, seg)
}

// EncodeSlot is Encode with a dedicated scratch buffer per slot, for
// collectives that keep several of this rank's encoded items in flight
// at once: item i encodes into slot i, and no slot is reused until the
// collective completes globally (the engine's inter-level allreduce),
// so a payload several ring hops downstream is never overwritten by a
// later encode.
func (c *Codec) EncodeSlot(seg []uint64, slot int) (Payload, float64) {
	return c.encode(c.slot(slot), seg)
}

// slot returns scratch buffer i, growing the set on demand.
func (c *Codec) slot(i int) *[]byte {
	for len(c.slots) <= i {
		c.slots = append(c.slots, nil)
	}
	return &c.slots[i]
}

// encode is the shared encode body: it writes any non-dense encoding
// into *buf, reusing its capacity, and returns the payload and the
// modelled CPU time.
func (c *Codec) encode(buf *[]byte, seg []uint64) (Payload, float64) {
	pl := Payload{Price: c.price(Analyze(seg))}
	*buf = (*buf)[:0]
	if pl.Format == FormatDense {
		pl.Dense = seg
	} else {
		*buf = Append(*buf, pl.Format, seg)
		pl.Enc = *buf
		pl.WireBytes = int64(len(*buf))
	}
	return pl, c.charge(pl.Price)
}

// Decode decodes pl into dst, overwriting it, and returns the modelled
// CPU time (Cost).
func (c *Codec) Decode(dst []uint64, pl Payload) float64 {
	if pl.Format == FormatDense {
		copy(dst, pl.Dense)
		return 0
	}
	f, err := DecodeBytes(dst, pl.Enc)
	if err != nil {
		panic(fmt.Sprintf("wire: corrupt %s payload: %v", pl.Format, err))
	}
	if f != pl.Format {
		panic(fmt.Sprintf("wire: payload header %s does not match format %s", f, pl.Format))
	}
	return c.Cost(pl.Price, true)
}

// EncodeList encodes an int64 vertex list in the varint-delta format
// and returns the payload plus the modelled CPU time (Cost).
func (c *Codec) EncodeList(vals []int64) (Payload, float64) {
	return c.encodeList(&c.buf, vals)
}

// EncodeListSlot is EncodeList into scratch slot slot, for collectives
// that keep several of this rank's encoded lists in flight at once (the
// pairwise alltoallv encodes one list per step) — the same argument as
// EncodeSlot.
func (c *Codec) EncodeListSlot(vals []int64, slot int) (Payload, float64) {
	return c.encodeList(c.slot(slot), vals)
}

func (c *Codec) encodeList(buf *[]byte, vals []int64) (Payload, float64) {
	*buf = AppendList((*buf)[:0], vals)
	pl := Payload{Price: Price{Format: FormatList, WireBytes: int64(len(*buf)), RawBytes: 8 * int64(len(vals))}, Enc: *buf}
	return pl, c.charge(pl.Price)
}

// DecodeList decodes a list payload, appending the values to out, and
// returns the extended slice plus the modelled CPU time (Cost).
func (c *Codec) DecodeList(pl Payload, out []int64) ([]int64, float64) {
	out, err := DecodeList(pl.Enc, out)
	if err != nil {
		panic(fmt.Sprintf("wire: corrupt list payload: %v", err))
	}
	return out, c.Cost(pl.Price, true)
}
