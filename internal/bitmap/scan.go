package bitmap

import "math/bits"

// BottomUpScan is the bottom-up scan kernel of both engines: for rows of
// a CSR (RowPtr, Col) the caller found unvisited, find the first
// neighbour in row order that is in Front, consulting Sum (Front's
// summary) before every probe.
type BottomUpScan struct {
	RowPtr []int64
	Col    []uint32 // graph.CSR's 4-byte neighbour ids
	Front  *Bitmap
	Sum    *Summary
	// Neighbour v is Front bit v>>Drop<<Keep | v&(1<<Keep-1): the 2-D row
	// frontier cuts the processor-row bits [Keep, Drop) out of the id;
	// Keep = Drop = 63 is the identity.
	Keep, Drop uint
	// Counters over every Word so far, for the cost model: rows with a
	// parent, edges scanned (= summary probes), probes of Front.
	Hits, Edges, Probes int64
	Rows, Nbrs          [64]int64 // the last Word's rows with a parent, and the parents
}

// Word scans rows base+b for the set bits b of mask, derived by the
// caller per 64 vertices, and returns how many found a parent. It first
// loads every non-empty candidate row's first neighbour — a likely cache
// miss each, the scan's dominant cost — in a loop with no data-dependent
// branch, so the misses overlap instead of issuing one per row behind the
// mispredicted exit of the previous row's neighbour loop (the store into
// Nbrs keeps the load; an empty row's is clamped into Col and its slot
// reused). The rows are then resolved from cache.
func (sc *BottomUpScan) Word(base int64, mask uint64) (hits int) {
	rowPtr, col, rows, nbrs := sc.RowPtr, sc.Col, &sc.Rows, &sc.Nbrs
	front, sum := sc.Front.words, sc.Sum.bits.words
	n, last := 0, int64(len(col))-1
	for ; mask != 0 && last >= 0; mask &= mask - 1 {
		i := base + int64(bits.TrailingZeros64(mask))
		s := rowPtr[i]
		rows[n&63] = i
		nbrs[n&63] = int64(col[min(s, last)])
		n += int(uint64(s-rowPtr[i+1]) >> 63)
	}
	for _, i := range rows[:n] {
		k, end := rowPtr[i], rowPtr[i+1]
		for k < end {
			v := int64(col[k])
			k++
			si := v>>(sc.Drop&63)<<(sc.Keep&63) | v&(1<<(sc.Keep&63)-1)
			if g := granule(si, sc.Sum.g); sum[g>>6]>>(uint(g)&63)&1 != 0 {
				sc.Probes++
				if front[si>>6]>>(uint(si)&63)&1 != 0 {
					rows[hits], nbrs[hits] = i, v // hits <= the slot just read
					hits++
					break
				}
			}
		}
		sc.Edges += k - rowPtr[i]
	}
	sc.Hits += int64(hits)
	return hits
}
