package bitmap

import (
	"math/rand"
	"testing"
)

// TestBottomUpScanWord checks the kernel against a plain per-row loop on
// random CSRs with many empty rows — leading, trailing (row start ==
// len(Col), the load the gather clamps) and in between — for random
// masks, bases that are not word-aligned, frontiers from empty to full,
// power-of-two and other granularities, the identity index and a
// cut-out one, and an edgeless CSR.
func TestBottomUpScanWord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := int64(64 + rng.Intn(200))
		const ids = 1 << 10 // neighbour id space
		sc := BottomUpScan{RowPtr: make([]int64, n+1), Keep: 63, Drop: 63}
		frontBits := int64(ids)
		if trial%2 == 1 {
			sc.Keep, sc.Drop = 6, 8 // bit = v>>8<<6 | v&63
			frontBits = ids >> 2
		}
		index := func(v int64) int64 { return v>>sc.Drop<<sc.Keep | v&(1<<sc.Keep-1) }
		for i := int64(0); i < n; i++ {
			deg := 0
			if trial > 1 && rng.Intn(3) == 0 && i > 2 && i < n-3 {
				deg = 1 + rng.Intn(5)
			}
			for k := 0; k < deg; k++ {
				sc.Col = append(sc.Col, uint32(rng.Int63n(ids)))
			}
			sc.RowPtr[i+1] = int64(len(sc.Col))
		}
		sc.Front = New(frontBits)
		for k, fill := 0, rng.Intn(int(frontBits)); k < fill; k++ {
			sc.Front.Set(rng.Int63n(frontBits))
		}
		sc.Sum = NewSummary(frontBits, []int64{64, 192, 256}[trial%3])
		sc.Sum.Rebuild(sc.Front)
		base := rng.Int63n(n - 63)
		mask := rng.Uint64()
		if trial%5 == 0 {
			mask = ^uint64(0)
		}

		var wantRows, wantNbrs []int64
		var wantEdges, wantProbes int64
		for b := int64(0); b < 64; b++ {
			i := base + b
			if mask>>uint(b)&1 == 0 {
				continue
			}
			for _, w := range sc.Col[sc.RowPtr[i]:sc.RowPtr[i+1]] {
				v := int64(w)
				wantEdges++
				if sc.Sum.CoveredZero(index(v)) {
					continue
				}
				wantProbes++
				if sc.Front.Get(index(v)) {
					wantRows, wantNbrs = append(wantRows, i), append(wantNbrs, v)
					break
				}
			}
		}
		sc.Hits, sc.Edges, sc.Probes = 1, 10, 100 // Word accumulates
		if hits := sc.Word(base, mask); hits != len(wantRows) || sc.Hits != 1+int64(hits) ||
			sc.Edges != 10+wantEdges || sc.Probes != 100+wantProbes {
			t.Fatalf("trial %d: %d hits, counters %d/%d/%d; want %d hits, %d edges, %d probes on top of 1/10/100",
				trial, hits, sc.Hits, sc.Edges, sc.Probes, len(wantRows), wantEdges, wantProbes)
		}
		for k := range wantRows {
			if sc.Rows[k] != wantRows[k] || sc.Nbrs[k] != wantNbrs[k] {
				t.Fatalf("trial %d hit %d: row %d parent %d, want %d / %d",
					trial, k, sc.Rows[k], sc.Nbrs[k], wantRows[k], wantNbrs[k])
			}
		}
	}
}
