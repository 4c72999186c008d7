package wire

import (
	"encoding/binary"
	"testing"
)

// wordsFromBytes builds a word segment from fuzzer bytes (zero-padding
// the tail) so every input maps to a valid segment.
func wordsFromBytes(data []byte) []uint64 {
	seg := make([]uint64, (len(data)+7)/8)
	var tail [8]byte
	for i := range seg {
		if (i+1)*8 <= len(data) {
			seg[i] = binary.LittleEndian.Uint64(data[i*8:])
		} else {
			copy(tail[:], data[i*8:])
			seg[i] = binary.LittleEndian.Uint64(tail[:])
			tail = [8]byte{}
		}
	}
	return seg
}

// FuzzSegRoundTrip checks, for arbitrary segments, that every bitmap
// format round-trips exactly, that SegStats.Size predicts every
// format's encoded size and a pinned codec's Price its Encode, that the
// adaptive choice is never larger than dense, and that decoding the
// input bytes as a payload never panics.
func FuzzSegRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{byte(FormatSparse), 1, 0, 0, 0, 9, 0, 0, 0})
	f.Add([]byte{byte(FormatRLE), 0xff, 0xff, 0x01, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		seg := wordsFromBytes(data)
		st := Analyze(seg)
		chosen, size := Choose(st)
		if size > DenseSize(len(seg)) {
			t.Fatalf("Choose %s at %d bytes > dense %d", chosen, size, DenseSize(len(seg)))
		}
		if size != st.Size(chosen) {
			t.Fatalf("Choose %s at %d bytes, Size says %d", chosen, size, st.Size(chosen))
		}
		dst := make([]uint64, len(seg))
		for _, format := range []Format{FormatDense, FormatSparse, FormatRLE} {
			enc := Append(nil, format, seg)
			if len(enc) != st.Size(format) {
				t.Fatalf("%s: Size predicted %d bytes, got %d", format, st.Size(format), len(enc))
			}
			// A codec pinned to the format prices the segment as it
			// encodes it, without encoding.
			c, ref := testCodec(format), testCodec(format)
			pr, pns := c.Price(seg)
			pl, ens := ref.Encode(seg)
			if pr != pl.Price || pns != ens || c.Stats() != ref.Stats() {
				t.Fatalf("%s: Price %+v %g ns, Encode %+v %g ns", format, pr, pns, pl.Price, ens)
			}
			got, err := DecodeBytes(dst, enc)
			if err != nil || got != format {
				t.Fatalf("%s: decode %s, %v", format, got, err)
			}
			for i := range seg {
				if dst[i] != seg[i] {
					t.Fatalf("%s: word %d mismatch", format, i)
				}
			}
		}
		// Arbitrary bytes as payload: errors allowed, panics not.
		_, _ = DecodeBytes(dst, data)
	})
}

// FuzzListRoundTrip checks the varint-delta list format on arbitrary
// int64 sequences, that ListSize is exact and PriceList prices as
// EncodeList encodes, and that decoding arbitrary
// bytes never panics.
func FuzzListRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(AppendList(nil, []int64{-1, 1 << 60}))
	f.Fuzz(func(t *testing.T, data []byte) {
		seg := wordsFromBytes(data)
		vals := make([]int64, len(seg))
		for i, w := range seg {
			vals[i] = int64(w)
		}
		enc := AppendList(nil, vals)
		if len(enc) != ListSize(vals) {
			t.Fatalf("encoded %d bytes, ListSize %d", len(enc), ListSize(vals))
		}
		c, ref := testCodec(FormatAuto), testCodec(FormatAuto)
		pr, pns := c.PriceList(vals)
		if pl, ens := ref.EncodeList(vals); pr != pl.Price || pns != ens || c.Stats() != ref.Stats() {
			t.Fatalf("PriceList %+v %g ns, EncodeList %+v %g ns", pr, pns, pl.Price, ens)
		}
		out, err := DecodeList(enc, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(out) != len(vals) {
			t.Fatalf("decoded %d values, want %d", len(out), len(vals))
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("value %d: %d != %d", i, out[i], vals[i])
			}
		}
		_, _ = DecodeList(data, nil)
	})
}
