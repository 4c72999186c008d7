package msbfs

import (
	"cmp"
	"math/bits"
	"slices"
)

// LaneParents returns lane l's global parent array: -1 wherever lane l
// did not reach, and throughout for a lane outside the last batch (or
// before the first). Valid after RunBatch, until the next one: the first
// call derives every lane's tree, each call copies the cached one.
func (r *Runner) LaneParents(l int) []int64 {
	if l < 0 || l >= len(r.roots) {
		return unreached(r.Params.NumVertices())
	}
	if r.parents == nil {
		r.parents = r.deriveParents()
	}
	return slices.Clone(r.parents[l])
}

func unreached(n int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// deriveParents rebuilds every lane's tree of the last batch from the
// visit records with the engine's claim rules (DESIGN.md §6): a root is
// its own parent; a lane settled bottom-up at depth k took the row's
// first neighbour at depth k-1, one settled top-down the smallest such
// neighbour in the vertex's own segment, else the smallest overall.
// Neighbours differ in depth by at most one, so depth mod 4 tells k-1
// apart. One row scan per vertex resolves all its lanes.
func (r *Runner) deriveParents() [][]int64 {
	n := r.Params.NumVertices()
	out := make([][]int64, len(r.roots))
	for l := range out {
		out[l] = unreached(n)
	}
	var codes []uint8
	if len(r.roots) == 1 { // a byte per vertex keeps lookups in cache
		codes = make([]uint8, n)
		for v, d := range r.recs {
			codes[v] = uint8(d.vis&1 | d.lo&1<<1 | d.hi&1<<2)
		}
	}
	for _, ls := range r.states {
		lo, hi := ls.csr.Lo, ls.csr.Hi
		for i, d := range ls.rec {
			if d.vis == 0 {
				continue
			}
			// Depth k-1 mod 4, bit-sliced: lo flips, hi borrows where lo was 0.
			t := hits{recs: r.recs, codes: codes, out: out, v: lo + int64(i), lo: ^d.lo, hi: d.hi ^ ^d.lo}
			row := ls.csr.Neighbors(t.v)
			t.first(row, d.vis&d.bu)
			if td := d.vis &^ d.bu; td != 0 {
				a, _ := slices.BinarySearchFunc(row, lo, cmpID)
				b, _ := slices.BinarySearchFunc(row, hi, cmpID)
				t.first(row[b:], t.first(row[:a], t.first(row[a:b], td)))
			}
		}
	}
	for l, root := range r.roots {
		out[l][root] = root // its lane found no neighbour at depth -1
	}
	return out
}

func cmpID(id uint32, v int64) int { return cmp.Compare(int64(id), v) }

// hits resolves vertex v's lanes to neighbours at their depth k-1 (lo,
// hi), looked up in recs or, for one lane, in codes.
type hits struct {
	recs   []laneRec
	codes  []uint8
	out    [][]int64
	v      int64
	lo, hi uint64
}

// first gives each lane of pend its first hit in row; it returns the rest.
func (t *hits) first(row []uint32, pend uint64) uint64 {
	if t.codes != nil && pend != 0 {
		want := uint8(1 | t.lo&1<<1 | t.hi&1<<2)
		for _, id := range row {
			if t.codes[id] == want {
				t.out[0][t.v] = int64(id)
				return 0
			}
		}
		return pend
	}
	for _, id := range row {
		if pend == 0 {
			break
		}
		c := &t.recs[id]
		h := pend & c.vis &^ (c.lo ^ t.lo) &^ (c.hi ^ t.hi)
		pend &^= h
		for ; h != 0; h &= h - 1 {
			t.out[bits.TrailingZeros64(h)][t.v] = int64(id)
		}
	}
	return pend
}
