// Package wire implements the self-describing frontier wire formats
// behind the compressed allgather (bfs.OptCompressedAllgather). The
// bottom-up allgather ships the dense in_queue bitmap even at levels
// where the frontier is nearly empty or nearly full; following Romera's
// multi-GPU frontier compression and Buluç & Madduri's per-level
// sparse-vs-dense choice, each segment is encoded in the cheapest of
// three formats, chosen per segment from its measured density:
//
//   - dense: the raw words — optimal near saturation;
//   - sparse: a u32 index per set bit — optimal for near-empty
//     frontiers (density below ~1/16);
//   - RLE: zero-word-skip run-length records — optimal when the
//     frontier clusters into runs, the typical mid-BFS shape under a
//     degree-sorted R-MAT vertex order.
//
// Every encoding starts with a 1-byte format header, so payloads are
// self-describing and the selector's worst case over shipping raw
// words is exactly that header (a property the tests pin down). A
// fourth format, the varint-delta list, serves the 2-D engine's
// expand-phase vertex lists. The Codec type (codec.go) pairs the byte
// codecs with the machine cost model so encode/decode CPU time is
// charged to the simulated clock — compression is a modelled
// trade-off, not a free lunch.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Format identifies a wire encoding; it is the value of the 1-byte
// header that starts every encoded payload.
type Format byte

const (
	// FormatAuto is not a wire format: it tells the codec to pick the
	// cheapest format from the segment's scan statistics.
	FormatAuto Format = iota
	// FormatDense is the raw bitmap: header + 8 bytes per word.
	FormatDense
	// FormatSparse lists the set bits: header + u32 count + one u32
	// segment-relative bit index per set bit.
	FormatSparse
	// FormatRLE is a zero-word-skip run-length code: records of
	// (uvarint zero-word run, uvarint literal-word run, literal words)
	// until the segment is exhausted.
	FormatRLE
	// FormatList is the varint-delta code for int64 vertex lists
	// (uvarint count, then zigzag-varint deltas between consecutive
	// values).
	FormatList
	// NumFormats bounds Format values (for stats arrays).
	NumFormats
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatDense:
		return "dense"
	case FormatSparse:
		return "sparse"
	case FormatRLE:
		return "rle"
	case FormatList:
		return "list"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// sparseMaxWords bounds segments the sparse format can address: bit
// indices are u32, so a segment may hold at most 2^32 bits.
const sparseMaxWords = 1 << 26

// DenseSize returns the encoded size of a words-long segment in the
// dense format: the header plus the raw words.
func DenseSize(words int) int { return 1 + 8*words }

// SparseSize returns the encoded size of a segment with pop set bits
// in the sparse format: header, u32 count, u32 per bit.
func SparseSize(pop int) int { return 5 + 4*pop }

// SegStats summarizes one scan of a segment: its population count and
// the exact encoded size of the run-length format. One scan feeds the
// size prediction of every candidate format.
type SegStats struct {
	Words    int
	Pop      int
	RLEBytes int
}

// Analyze scans seg once, accumulating the popcount and the exact RLE
// size (runs of zero words alternating with runs of literal words).
func Analyze(seg []uint64) SegStats {
	st := SegStats{Words: len(seg), RLEBytes: 1}
	i := 0
	for i < len(seg) {
		z := i
		for i < len(seg) && seg[i] == 0 {
			i++
		}
		l := i
		for i < len(seg) && seg[i] != 0 {
			st.Pop += bits.OnesCount64(seg[i])
			i++
		}
		st.RLEBytes += uvarintLen(uint64(l-z)) + uvarintLen(uint64(i-l)) + 8*(i-l)
	}
	return st
}

// Size returns the exact encoded size, under Append, of the segment
// the statistics describe in bitmap format f.
func (st SegStats) Size(f Format) int {
	switch f {
	case FormatSparse:
		return SparseSize(st.Pop)
	case FormatRLE:
		return st.RLEBytes
	}
	return DenseSize(st.Words)
}

// Choose returns the format with the smallest predicted size for a
// segment with the given scan statistics, and that size. Dense is
// always a candidate, so the chosen size never exceeds DenseSize —
// the adaptive selector's overhead versus shipping raw words is at
// most the 1-byte header.
func Choose(st SegStats) (Format, int) {
	best := FormatDense
	for _, f := range []Format{FormatRLE, FormatSparse} {
		if st.Size(f) < st.Size(best) && (f != FormatSparse || st.Words <= sparseMaxWords) {
			best = f
		}
	}
	return best, st.Size(best)
}

// Append appends the f-encoding of seg to dst and returns the
// extended slice. f must be a concrete bitmap format (dense, sparse
// or RLE).
func Append(dst []byte, f Format, seg []uint64) []byte {
	switch f {
	case FormatDense:
		return appendDense(dst, seg)
	case FormatSparse:
		return appendSparse(dst, seg)
	case FormatRLE:
		return appendRLE(dst, seg)
	default:
		panic(fmt.Sprintf("wire: Append of non-bitmap format %s", f))
	}
}

func appendDense(dst []byte, seg []uint64) []byte {
	dst = append(dst, byte(FormatDense))
	var b [8]byte
	for _, w := range seg {
		binary.LittleEndian.PutUint64(b[:], w)
		dst = append(dst, b[:]...)
	}
	return dst
}

func appendSparse(dst []byte, seg []uint64) []byte {
	if len(seg) > sparseMaxWords {
		panic("wire: segment too large for the sparse format")
	}
	dst = append(dst, byte(FormatSparse))
	cntAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	var n uint32
	var b [4]byte
	for wi, w := range seg {
		for w != 0 {
			binary.LittleEndian.PutUint32(b[:], uint32(wi*64+bits.TrailingZeros64(w)))
			dst = append(dst, b[:]...)
			n++
			w &= w - 1
		}
	}
	binary.LittleEndian.PutUint32(dst[cntAt:], n)
	return dst
}

func appendRLE(dst []byte, seg []uint64) []byte {
	dst = append(dst, byte(FormatRLE))
	var vb [binary.MaxVarintLen64]byte
	var wb [8]byte
	i := 0
	for i < len(seg) {
		z := i
		for i < len(seg) && seg[i] == 0 {
			i++
		}
		dst = append(dst, vb[:binary.PutUvarint(vb[:], uint64(i-z))]...)
		l := i
		for i < len(seg) && seg[i] != 0 {
			i++
		}
		dst = append(dst, vb[:binary.PutUvarint(vb[:], uint64(i-l))]...)
		for _, w := range seg[l:i] {
			binary.LittleEndian.PutUint64(wb[:], w)
			dst = append(dst, wb[:]...)
		}
	}
	return dst
}

// DecodeBytes decodes a bitmap payload produced by Append into dst,
// overwriting dst completely, and returns the format found in the
// header. dst must be exactly the segment the payload was encoded
// from; a malformed or mismatched payload returns an error.
func DecodeBytes(dst []uint64, data []byte) (Format, error) {
	if len(data) == 0 {
		return FormatAuto, fmt.Errorf("wire: empty payload")
	}
	f := Format(data[0])
	body := data[1:]
	switch f {
	case FormatDense:
		if len(body) != 8*len(dst) {
			return f, fmt.Errorf("wire: dense payload %d bytes for %d words", len(body), len(dst))
		}
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		return f, nil

	case FormatSparse:
		if len(body) < 4 {
			return f, fmt.Errorf("wire: truncated sparse header")
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint64(len(body)) != 4*uint64(n) {
			return f, fmt.Errorf("wire: sparse payload %d bytes for %d indices", len(body), n)
		}
		for i := range dst {
			dst[i] = 0
		}
		for k := 0; k < int(n); k++ {
			idx := binary.LittleEndian.Uint32(body[4*k:])
			wi := int(idx / 64)
			if wi >= len(dst) {
				return f, fmt.Errorf("wire: sparse index %d beyond %d-word segment", idx, len(dst))
			}
			dst[wi] |= 1 << (idx % 64)
		}
		return f, nil

	case FormatRLE:
		i := 0
		for i < len(dst) {
			zrun, k := binary.Uvarint(body)
			if k <= 0 {
				return f, fmt.Errorf("wire: truncated rle zero-run")
			}
			body = body[k:]
			lrun, k := binary.Uvarint(body)
			if k <= 0 {
				return f, fmt.Errorf("wire: truncated rle literal-run")
			}
			body = body[k:]
			rem := uint64(len(dst) - i)
			if zrun > rem || lrun > rem-zrun {
				return f, fmt.Errorf("wire: rle runs overflow %d-word segment", len(dst))
			}
			for j := uint64(0); j < zrun; j++ {
				dst[i] = 0
				i++
			}
			if uint64(len(body)) < 8*lrun {
				return f, fmt.Errorf("wire: truncated rle literals")
			}
			for j := uint64(0); j < lrun; j++ {
				dst[i] = binary.LittleEndian.Uint64(body[8*j:])
				i++
			}
			body = body[8*lrun:]
		}
		if len(body) != 0 {
			return f, fmt.Errorf("wire: %d trailing rle bytes", len(body))
		}
		return f, nil
	}
	return f, fmt.Errorf("wire: unknown format %d", data[0])
}

// AppendList appends the varint-delta encoding of vals to dst: the
// list header, a uvarint count, then the zigzag-varint delta of each
// value from its predecessor (sorted vertex lists encode in a few
// bytes per entry; arbitrary order still round-trips).
func AppendList(dst []byte, vals []int64) []byte {
	dst = append(dst, byte(FormatList))
	var vb [binary.MaxVarintLen64]byte
	dst = append(dst, vb[:binary.PutUvarint(vb[:], uint64(len(vals)))]...)
	prev := int64(0)
	for _, v := range vals {
		dst = append(dst, vb[:binary.PutVarint(vb[:], v-prev)]...)
		prev = v
	}
	return dst
}

// DecodeList decodes an AppendList payload, appending the values to
// out and returning the extended slice.
func DecodeList(data []byte, out []int64) ([]int64, error) {
	if len(data) == 0 || Format(data[0]) != FormatList {
		return out, fmt.Errorf("wire: not a list payload")
	}
	body := data[1:]
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return out, fmt.Errorf("wire: truncated list count")
	}
	body = body[k:]
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, k := binary.Varint(body)
		if k <= 0 {
			return out, fmt.Errorf("wire: truncated list delta %d/%d", i, n)
		}
		body = body[k:]
		prev += d
		out = append(out, prev)
	}
	if len(body) != 0 {
		return out, fmt.Errorf("wire: %d trailing list bytes", len(body))
	}
	return out, nil
}

// ListSize returns the exact encoded size of vals under AppendList.
func ListSize(vals []int64) int {
	sz := 1 + uvarintLen(uint64(len(vals)))
	prev := int64(0)
	for _, v := range vals {
		sz += uvarintLen(zigzag(v - prev))
		prev = v
	}
	return sz
}

// uvarintLen returns the encoded length of v under binary.PutUvarint:
// one byte per started 7 bits, at least one.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed delta to binary.PutVarint's unsigned form.
func zigzag(v int64) uint64 {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return ux
}
