package wire

import (
	"math/rand"
	"testing"

	"numabfs/internal/machine"
	"numabfs/internal/omp"
)

// segPatterns returns segments spanning the shapes the selector must
// handle: empty, a single bit, near-empty, clustered runs, alternating
// words, dense, and full.
func segPatterns() map[string][]uint64 {
	pats := map[string][]uint64{
		"empty":      make([]uint64, 32),
		"nil":        nil,
		"one-word":   {0xdeadbeef},
		"full":       {^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
		"single-bit": make([]uint64, 64),
		"clustered":  make([]uint64, 128),
		"alternate":  make([]uint64, 64),
		"dense-rand": make([]uint64, 64),
		"sparse":     make([]uint64, 256),
	}
	pats["single-bit"][37] = 1 << 11
	for i := 40; i < 56; i++ {
		pats["clustered"][i] = ^uint64(0)
	}
	for i := range pats["alternate"] {
		if i%2 == 0 {
			pats["alternate"][i] = 0xaaaa5555aaaa5555
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := range pats["dense-rand"] {
		pats["dense-rand"][i] = rng.Uint64()
	}
	for i := 0; i < 8; i++ {
		pats["sparse"][rng.Intn(256)] = 1 << uint(rng.Intn(64))
	}
	return pats
}

func segsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRoundTripAllFormats encodes every pattern in every bitmap format
// and checks the decode restores the exact words, that the header names
// the format, and that the size predictors match the encoded length.
func TestRoundTripAllFormats(t *testing.T) {
	for name, seg := range segPatterns() {
		st := Analyze(seg)
		for _, f := range []Format{FormatDense, FormatSparse, FormatRLE} {
			enc := Append(nil, f, seg)
			if Format(enc[0]) != f {
				t.Fatalf("%s/%s: header %d", name, f, enc[0])
			}
			var want int
			switch f {
			case FormatDense:
				want = DenseSize(len(seg))
			case FormatSparse:
				want = SparseSize(st.Pop)
			case FormatRLE:
				want = st.RLEBytes
			}
			if len(enc) != want {
				t.Fatalf("%s/%s: encoded %d bytes, predicted %d", name, f, len(enc), want)
			}
			dst := make([]uint64, len(seg))
			for i := range dst {
				dst[i] = ^uint64(0) // decode must overwrite, not or
			}
			got, err := DecodeBytes(dst, enc)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, f, err)
			}
			if got != f {
				t.Fatalf("%s/%s: decoded header %s", name, f, got)
			}
			if !segsEqual(dst, seg) {
				t.Fatalf("%s/%s: round trip mismatch", name, f)
			}
		}
	}
}

// TestChooseNeverExceedsDense pins the selector's contract: the chosen
// size never exceeds the dense size (raw words + 1-byte header), i.e.
// adaptive selection costs at most the header over shipping raw words.
func TestChooseNeverExceedsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		words := rng.Intn(200)
		seg := make([]uint64, words)
		density := rng.Float64() * rng.Float64() // skew toward sparse
		for i := range seg {
			for b := 0; b < 64; b++ {
				if rng.Float64() < density {
					seg[i] |= 1 << uint(b)
				}
			}
		}
		st := Analyze(seg)
		f, size := Choose(st)
		if size > DenseSize(words) {
			t.Fatalf("trial %d: Choose picked %s at %d bytes > dense %d",
				trial, f, size, DenseSize(words))
		}
		if got := len(Append(nil, f, seg)); got != size {
			t.Fatalf("trial %d: Choose predicted %d bytes, %s encoded to %d",
				trial, size, f, got)
		}
	}
}

// TestAnalyze checks the one-pass scan against naive counting.
func TestAnalyze(t *testing.T) {
	for name, seg := range segPatterns() {
		st := Analyze(seg)
		if st.Words != len(seg) {
			t.Fatalf("%s: Words = %d", name, st.Words)
		}
		var pop int
		for _, w := range seg {
			for ; w != 0; w &= w - 1 {
				pop++
			}
		}
		if st.Pop != pop {
			t.Fatalf("%s: Pop = %d, want %d", name, st.Pop, pop)
		}
		if got := len(appendRLE(nil, seg)); got != st.RLEBytes {
			t.Fatalf("%s: RLEBytes = %d, encoded %d", name, st.RLEBytes, got)
		}
	}
}

// TestDecodeErrors feeds malformed payloads; every case must return an
// error rather than panic or write out of bounds.
func TestDecodeErrors(t *testing.T) {
	seg := []uint64{1, 0, ^uint64(0)}
	dst := make([]uint64, len(seg))
	cases := map[string][]byte{
		"empty":            {},
		"unknown-format":   {0x7f, 1, 2, 3},
		"auto-header":      {byte(FormatAuto)},
		"dense-short":      Append(nil, FormatDense, seg)[:8],
		"dense-long":       append(Append(nil, FormatDense, seg), 0),
		"sparse-no-count":  {byte(FormatSparse), 1, 0},
		"sparse-short":     {byte(FormatSparse), 2, 0, 0, 0, 5, 0, 0, 0},
		"sparse-oob-index": {byte(FormatSparse), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		"rle-truncated":    {byte(FormatRLE)},
		"rle-overflow":     {byte(FormatRLE), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0},
		"rle-no-literals":  {byte(FormatRLE), 0, 3},
		"rle-trailing":     append(Append(nil, FormatRLE, seg), 0xab),
		"list-not-list":    {byte(FormatDense)},
		"list-short-count": {byte(FormatList), 0x80},
		"list-short-delta": {byte(FormatList), 2, 2},
		"list-trailing":    append(AppendList(nil, []int64{3}), 0xcd),
	}
	for name, data := range cases {
		if name[:4] == "list" {
			if _, err := DecodeList(data, nil); err == nil {
				t.Errorf("%s: DecodeList accepted malformed payload", name)
			}
			continue
		}
		if _, err := DecodeBytes(dst, data); err == nil {
			t.Errorf("%s: DecodeBytes accepted malformed payload", name)
		}
	}
}

// TestListRoundTrip covers sorted vertex lists (the production shape),
// arbitrary signed values, and append-to-existing semantics.
func TestListRoundTrip(t *testing.T) {
	lists := [][]int64{
		nil,
		{0},
		{5, 6, 7, 1000, 1 << 40},
		{-3, 12, -1 << 50, 1 << 50, 0},
		make([]int64, 300),
	}
	rng := rand.New(rand.NewSource(3))
	for i := range lists[4] {
		lists[4][i] = rng.Int63() - rng.Int63()
	}
	for i, vals := range lists {
		enc := AppendList(nil, vals)
		if len(enc) != ListSize(vals) {
			t.Fatalf("list %d: encoded %d bytes, ListSize %d", i, len(enc), ListSize(vals))
		}
		out, err := DecodeList(enc, []int64{99})
		if err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
		if out[0] != 99 {
			t.Fatalf("list %d: decode clobbered existing entries", i)
		}
		out = out[1:]
		if len(out) != len(vals) {
			t.Fatalf("list %d: decoded %d values, want %d", i, len(out), len(vals))
		}
		for j := range vals {
			if out[j] != vals[j] {
				t.Fatalf("list %d: value %d = %d, want %d", i, j, out[j], vals[j])
			}
		}
	}
}

func testCodec(force Format) *Codec {
	cfg := machine.TableI()
	return &Codec{
		Team:  omp.Team{Cfg: cfg, Threads: 8, SocketsUsed: 1, BWShare: 1},
		Loc:   machine.Local,
		Force: force,
	}
}

// TestCodecRoundTrip runs Encode/Decode through the cost-charging codec
// for every pattern under the adaptive selector and each forced format.
func TestCodecRoundTrip(t *testing.T) {
	for _, force := range []Format{FormatAuto, FormatDense, FormatSparse, FormatRLE} {
		c := testCodec(force)
		for name, seg := range segPatterns() {
			pl, ens := c.Encode(seg)
			if ens < 0 {
				t.Fatalf("%s/%s: negative encode time", force, name)
			}
			if pl.RawBytes != 8*int64(len(seg)) {
				t.Fatalf("%s/%s: RawBytes = %d", force, name, pl.RawBytes)
			}
			if pl.Format == FormatDense {
				if pl.WireBytes != int64(DenseSize(len(seg))) {
					t.Fatalf("%s/%s: dense WireBytes = %d", force, name, pl.WireBytes)
				}
			} else if pl.WireBytes != int64(len(pl.Enc)) {
				t.Fatalf("%s/%s: WireBytes %d != len(Enc) %d", force, name, pl.WireBytes, len(pl.Enc))
			}
			if force != FormatAuto && pl.Format != force &&
				!(force == FormatSparse && len(seg) > sparseMaxWords) {
				t.Fatalf("%s/%s: forced format came back %s", force, name, pl.Format)
			}
			dst := make([]uint64, len(seg))
			if dns := c.Decode(dst, pl); dns < 0 {
				t.Fatalf("%s/%s: negative decode time", force, name)
			}
			if !segsEqual(dst, seg) {
				t.Fatalf("%s/%s: codec round trip mismatch", force, name)
			}
		}
	}
}

// TestCodecAutoNeverExceedsDense is the codec-level form of the
// selector property: under FormatAuto, wire bytes never exceed raw
// bytes + 1 header byte per segment.
func TestCodecAutoNeverExceedsDense(t *testing.T) {
	c := testCodec(FormatAuto)
	segs := 0
	for _, seg := range segPatterns() {
		if pl, _ := c.Encode(seg); pl.WireBytes > pl.RawBytes+1 {
			t.Fatalf("auto payload %d wire bytes for %d raw", pl.WireBytes, pl.RawBytes)
		}
		segs++
	}
	st := c.Stats()
	var total int64
	for _, n := range st.Segments {
		total += n
	}
	if total != int64(segs) {
		t.Fatalf("stats counted %d segments, encoded %d", total, segs)
	}
	if st.WireBytes > st.RawBytes+total {
		t.Fatalf("aggregate wire %d exceeds raw %d + %d headers", st.WireBytes, st.RawBytes, total)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("ResetStats left residue")
	}
}

// TestCodecDensityThreshold checks the ablation selector: with a
// density threshold set, the codec chooses sparse strictly below it and
// dense at or above it, never RLE.
func TestCodecDensityThreshold(t *testing.T) {
	c := testCodec(FormatAuto)
	c.SparseMaxDensity = 1.0 / 64
	sparse := make([]uint64, 64) // density 1/(64*64)
	sparse[10] = 1
	if pl, _ := c.Encode(sparse); pl.Format != FormatSparse {
		t.Fatalf("below threshold encoded %s", pl.Format)
	}
	dense := make([]uint64, 64) // density 1/64 == threshold
	for i := range dense {
		dense[i] = 1
	}
	if pl, _ := c.Encode(dense); pl.Format != FormatDense {
		t.Fatalf("at threshold encoded %s", pl.Format)
	}
	clustered := make([]uint64, 64) // RLE-friendly, still must not pick RLE
	clustered[0] = ^uint64(0)
	if pl, _ := c.Encode(clustered); pl.Format == FormatRLE {
		t.Fatal("density-threshold selector chose RLE")
	}
}

// TestCodecListRoundTrip exercises EncodeList/DecodeList with scratch
// reuse, the 2-D expand-phase pattern.
func TestCodecListRoundTrip(t *testing.T) {
	c := testCodec(FormatAuto)
	var out []int64
	for trial, vals := range [][]int64{{3, 1, 4, 1, 5}, nil, {1 << 45, -9}} {
		pl, ens := c.EncodeList(vals)
		if ens < 0 {
			t.Fatalf("trial %d: negative encode time", trial)
		}
		if pl.Format != FormatList || pl.WireBytes != int64(ListSize(vals)) {
			t.Fatalf("trial %d: payload %s/%d bytes", trial, pl.Format, pl.WireBytes)
		}
		var dns float64
		out, dns = c.DecodeList(pl, out[:0])
		if dns < 0 {
			t.Fatalf("trial %d: negative decode time", trial)
		}
		if len(out) != len(vals) {
			t.Fatalf("trial %d: %d values back, want %d", trial, len(out), len(vals))
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("trial %d: value %d mismatch", trial, i)
			}
		}
	}
	if c.Stats().Segments[FormatList] != 3 {
		t.Fatalf("list segments = %d", c.Stats().Segments[FormatList])
	}
}
