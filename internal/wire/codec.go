package wire

import (
	"fmt"

	"numabfs/internal/machine"
	"numabfs/internal/omp"
)

// Payload is one encoded segment in flight through a collective. The
// dense format travels as an alias of the owner's stable words — no
// host copy, exactly like the uncompressed path — while the simulated
// transfer still pays DenseSize bytes. Every other format carries the
// real encoded bytes, so receivers exercise the byte decoders the fuzz
// tests cover. WireBytes is what crosses the simulated network;
// RawBytes is the logical (pre-encoding) size of the segment.
type Payload struct {
	Format    Format
	Dense     []uint64
	Enc       []byte
	WireBytes int64
	RawBytes  int64
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

// Encode encodes seg and returns the payload plus the modelled CPU
// time (ns) of the selection scan and the encoding pass. The scan
// streams the raw words once; sparse and RLE pay a second pass that
// writes the wire bytes. Dense costs only the scan — the payload
// aliases seg, so, like the uncompressed path, no host copy happens
// and none is charged.
func (c *Codec) Encode(seg []uint64) (Payload, float64) {
	var pl Payload
	var ns float64
	c.buf, pl, ns = c.encode(c.buf, seg)
	return pl, ns
}

// EncodeSlot is Encode with a dedicated scratch buffer per slot, for
// pipelined collectives that keep several of this rank's encoded chunks
// in flight at once: chunk i encodes into slot i, and no slot is reused
// until the collective completes globally (the engine's inter-level
// allreduce), so a payload several ring hops downstream is never
// overwritten by a later encode.
func (c *Codec) EncodeSlot(seg []uint64, slot int) (Payload, float64) {
	for len(c.slots) <= slot {
		c.slots = append(c.slots, nil)
	}
	var pl Payload
	var ns float64
	c.slots[slot], pl, ns = c.encode(c.slots[slot], seg)
	return pl, ns
}

// encode is the shared encode body: it writes any non-dense encoding
// into buf (reusing its capacity) and returns the buffer, the payload
// and the modelled CPU time.
func (c *Codec) encode(buf []byte, seg []uint64) ([]byte, Payload, float64) {
	st := Analyze(seg)
	f := c.pick(st)
	raw := 8 * int64(len(seg))
	load := machine.PhaseLoad{SeqBytes: raw, SeqLoc: c.Loc, CPUOps: int64(len(seg))}
	pl := Payload{Format: f, RawBytes: raw}
	switch f {
	case FormatDense:
		buf = buf[:0]
		pl.Dense = seg
		pl.WireBytes = int64(DenseSize(len(seg)))
	default:
		buf = Append(buf[:0], f, seg)
		pl.Enc = buf
		pl.WireBytes = int64(len(buf))
		load.SeqBytes += pl.WireBytes
		if f == FormatSparse {
			load.CPUOps += int64(st.Pop)
		} else {
			load.CPUOps += int64(len(seg))
		}
	}
	c.stats.Segments[f]++
	c.stats.RawBytes += raw
	c.stats.WireBytes += pl.WireBytes
	return buf, pl, c.Team.Parallel(load)
}

// Decode decodes pl into dst, overwriting it, and returns the modelled
// CPU time. Dense decode is free beyond the transfer, mirroring the
// uncompressed path (the receive copy is part of the modelled
// transfer); sparse and RLE pay a clear-plus-scatter pass over the
// wire bytes and the destination words.
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
	load := machine.PhaseLoad{
		SeqBytes: pl.WireBytes + pl.RawBytes,
		SeqLoc:   c.Loc,
		CPUOps:   pl.RawBytes / 8,
	}
	if f == FormatSparse {
		load.CPUOps = (pl.WireBytes - 5) / 4
	}
	return c.Team.Parallel(load)
}

// EncodeList encodes an int64 vertex list in the varint-delta format
// and returns the payload plus the modelled CPU time (one read pass
// over the values, one write pass over the wire bytes).
func (c *Codec) EncodeList(vals []int64) (Payload, float64) {
	c.buf = AppendList(c.buf[:0], vals)
	raw := 8 * int64(len(vals))
	pl := Payload{
		Format:    FormatList,
		Enc:       c.buf,
		WireBytes: int64(len(c.buf)),
		RawBytes:  raw,
	}
	c.stats.Segments[FormatList]++
	c.stats.RawBytes += raw
	c.stats.WireBytes += pl.WireBytes
	load := machine.PhaseLoad{
		SeqBytes: raw + pl.WireBytes,
		SeqLoc:   c.Loc,
		CPUOps:   2 * int64(len(vals)),
	}
	return pl, c.Team.Parallel(load)
}

// EncodeListSlot is EncodeList with a dedicated scratch buffer per
// slot, for collectives that keep several of this rank's encoded lists
// in flight at once (the pairwise alltoallv encodes one list per step):
// step s encodes into slot s, and no slot is reused until the
// collective completes globally, so a payload still travelling is never
// overwritten by a later encode — the same argument as EncodeSlot.
func (c *Codec) EncodeListSlot(vals []int64, slot int) (Payload, float64) {
	for len(c.slots) <= slot {
		c.slots = append(c.slots, nil)
	}
	c.slots[slot] = AppendList(c.slots[slot][:0], vals)
	raw := 8 * int64(len(vals))
	pl := Payload{
		Format:    FormatList,
		Enc:       c.slots[slot],
		WireBytes: int64(len(c.slots[slot])),
		RawBytes:  raw,
	}
	c.stats.Segments[FormatList]++
	c.stats.RawBytes += raw
	c.stats.WireBytes += pl.WireBytes
	load := machine.PhaseLoad{
		SeqBytes: raw + pl.WireBytes,
		SeqLoc:   c.Loc,
		CPUOps:   2 * int64(len(vals)),
	}
	return pl, c.Team.Parallel(load)
}

// DecodeList decodes a list payload, appending the values to out, and
// returns the extended slice plus the modelled CPU time.
func (c *Codec) DecodeList(pl Payload, out []int64) ([]int64, float64) {
	out, err := DecodeList(pl.Enc, out)
	if err != nil {
		panic(fmt.Sprintf("wire: corrupt list payload: %v", err))
	}
	load := machine.PhaseLoad{
		SeqBytes: pl.WireBytes + pl.RawBytes,
		SeqLoc:   c.Loc,
		CPUOps:   pl.RawBytes / 4,
	}
	return out, c.Team.Parallel(load)
}
