package experiments

import (
	"math"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/fault"
	"numabfs/internal/graph500"
)

func TestBatchSizeResolution(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 64}, {1, 1}, {17, 17}, {64, 64}, {65, 64}, {-3, 1},
	} {
		if got := (Spec{Batch: tc.in}).batchSize(); got != tc.want {
			t.Errorf("batchSize(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestExtMSBFSShape runs the amortization figure at CI scale: one row
// per supported optimization level, and on every row the batch must do
// strictly fewer allgather rounds in strictly less virtual time than
// its sequential counterpart (the driver itself validates every lane
// and checks bit-identity, so a pass here covers correctness too).
func TestExtMSBFSShape(t *testing.T) {
	s := quick()
	h0, m0 := s.Cache.Stats()
	tab, err := ExtMSBFS(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(msbfsOpts) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(msbfsOpts))
	}
	if len(tab.Columns) != 7 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	for _, r := range tab.Rows {
		teps, batchMs, batchRounds := r.Values[0], r.Values[1], r.Values[2]
		seqMs, seqRounds := r.Values[3], r.Values[4]
		speedup, ratio := r.Values[5], r.Values[6]
		if teps <= 0 || batchMs <= 0 {
			t.Errorf("row %q: degenerate batch (%v)", r.Label, r.Values)
		}
		if batchRounds >= seqRounds {
			t.Errorf("row %q: batch rounds %g not < seq rounds %g", r.Label, batchRounds, seqRounds)
		}
		if batchMs >= seqMs {
			t.Errorf("row %q: batch time %g ms not < seq time %g ms", r.Label, batchMs, seqMs)
		}
		if speedup <= 1 || ratio <= 1 {
			t.Errorf("row %q: speedup %g / rounds ratio %g not > 1", r.Label, speedup, ratio)
		}
	}
	// At most one graph build serves every cell: the batched runner
	// shares the sequential path's cache key.
	if h, m := s.Cache.Stats(); h+m-h0-m0 != int64(len(msbfsOpts)) || m-m0 > 1 {
		t.Errorf("graph cache hits=%d misses=%d over %d/%d, want %d lookups and at most 1 build",
			h, m, h0, m0, len(msbfsOpts))
	}
}

// TestExtMSBFSUnderCrash: Spec.Faults reaches the batched cells. A crash
// halfway through every cell's batch is survived by a rerun from the
// roots: the driver's per-lane bit-identity check against the clean
// batch-of-one runs still passes, and each row's batch time grows.
func TestExtMSBFSUnderCrash(t *testing.T) {
	s := quick()
	s.Batch = 8
	clean, err := ExtMSBFS(s)
	if err != nil {
		t.Fatal(err)
	}
	at := math.Inf(1)
	for _, r := range clean.Rows {
		at = min(at, r.Values[1]*1e6/2)
	}
	s.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 3, AtNs: at}}}
	crashed, err := ExtMSBFS(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range crashed.Rows {
		if got, base := r.Values[1], clean.Rows[i].Values[1]; got <= base {
			t.Errorf("row %q: batch %g ms under a crash, not above the clean %g ms", r.Label, got, base)
		}
	}
}

// TestExtMSBFSLoadShape runs the offered-load sweep at CI scale: per
// load level the filled policy must pack fuller batches and spend fewer
// allgather rounds per query than batch-of-one, and past saturation it
// must hold a lower p95.
func TestExtMSBFSLoadShape(t *testing.T) {
	s := quick()
	s.Batch = 16 // smaller lanes keep the batch-1 cells cheap at CI scale
	tab, err := ExtMSBFSLoad(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*len(msbfsLoadLevels) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 2*len(msbfsLoadLevels))
	}
	for i := 0; i < len(tab.Rows); i += 2 {
		single, filled := tab.Rows[i], tab.Rows[i+1]
		if single.Values[0] != filled.Values[0] {
			t.Errorf("rows %q/%q: offered load differs", single.Label, filled.Label)
		}
		for _, r := range []Row{single, filled} {
			if r.Values[1] <= 0 || r.Values[2] < 1 || r.Values[3] <= 0 {
				t.Errorf("row %q: degenerate service (%v)", r.Label, r.Values)
			}
		}
		if filled.Values[2] <= single.Values[2] {
			t.Errorf("filled policy %q fill %g not above batch-1's %g",
				filled.Label, filled.Values[2], single.Values[2])
		}
		if filled.Values[6] >= single.Values[6] {
			t.Errorf("filled policy %q rounds/query %g not below batch-1's %g",
				filled.Label, filled.Values[6], single.Values[6])
		}
	}
	// Past saturation (the last load level) the batched policy must also
	// win on tail latency.
	last := len(tab.Rows) - 2
	if tab.Rows[last+1].Values[4] >= tab.Rows[last].Values[4] {
		t.Errorf("at %gx load, filled p95 %g ms not below batch-1's %g ms",
			msbfsLoadLevels[len(msbfsLoadLevels)-1], tab.Rows[last+1].Values[4], tab.Rows[last].Values[4])
	}
}

// TestMSBFSAcceptanceAtDefaultScale is the tentpole acceptance: at the
// default base scale a full 64-root batch must do strictly fewer
// allgather rounds and finish in strictly less total virtual time than
// 64 sequential single-root runs of the same engine at the same
// optimization level, with every lane Graph500-validated and
// bit-identical to its sequential counterpart.
func TestMSBFSAcceptanceAtDefaultScale(t *testing.T) {
	s := Spec{BaseScale: Default().BaseScale}
	gc := s.msbfsConfig(bfs.OptCompressedAllgather)
	r, err := graph500.NewBatchRunner(gc)
	if err != nil {
		t.Fatal(err)
	}
	roots := gc.Params.Roots(64, r.HasEdgeGlobal)
	br := r.RunBatch(roots)
	if err := graph500.ValidateBatch(r, roots); err != nil {
		t.Fatalf("lane validation: %v", err)
	}
	batched := make([][]int64, len(roots))
	for l := range roots {
		batched[l] = r.LaneParents(l)
	}
	var seqNs float64
	var seqRounds int64
	for l, root := range roots {
		sr := r.RunBatch([]int64{root})
		seqNs += sr.TimeNs
		seqRounds += sr.AllgatherRounds
		solo := r.LaneParents(0)
		for v := range solo {
			if solo[v] != batched[l][v] {
				t.Fatalf("lane %d (root %d) vertex %d: batched parent %d, sequential parent %d",
					l, root, v, batched[l][v], solo[v])
			}
		}
	}
	if br.AllgatherRounds >= seqRounds {
		t.Errorf("batch rounds %d not strictly below sequential rounds %d", br.AllgatherRounds, seqRounds)
	}
	if br.TimeNs >= seqNs {
		t.Errorf("batch time %.0f ns not strictly below sequential total %.0f ns", br.TimeNs, seqNs)
	}
}
