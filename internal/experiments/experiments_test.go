package experiments

import (
	"reflect"
	"strings"
	"testing"

	"numabfs/internal/bfs"
	"numabfs/internal/chassis"
	"numabfs/internal/fault"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
	"numabfs/internal/trace"
)

// graphs is the package's one graph cache, as bfsbench keeps one per
// invocation: the figures below sweep the same (scale, nodes, policy)
// cells over and over, and a hit is bit-identical to a fresh build
// (graph500.TestGraphCacheBitIdentical), so kernel 1 runs once per graph
// for the whole test binary instead of once per cell.
var graphs = chassis.NewGraphCache()

// quick returns a spec small enough for CI; shapes assertions below use
// it, so they exercise the same code paths as the full benches.
func quick() Spec { return Spec{BaseScale: 13, Roots: 2, Cache: graphs} }

func TestSpecScaling(t *testing.T) {
	s := Default()
	if s.scaleFor(1) != s.BaseScale {
		t.Fatal("one node must use the base scale")
	}
	if s.scaleFor(16) != s.BaseScale+4 {
		t.Fatalf("16 nodes -> scale %d, want base+4", s.scaleFor(16))
	}
	cfg := s.clusterConfig(4)
	if cfg.Nodes != 4 {
		t.Fatalf("nodes = %d", cfg.Nodes)
	}
	if cfg.WeakNode >= 0 {
		t.Fatal("weak node must be disabled below 16 nodes")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Name: "Fig. X", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("row", 1.5, 2e9)
	tab.Notes = append(tab.Notes, "a note")
	out := tab.String()
	for _, want := range []string{"Fig. X", "demo", "row", "1.500", "2.000e+09", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4BandwidthShape(t *testing.T) {
	tab, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Fig4PPNs) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// More processes per node -> more aggregate bandwidth at large
	// message sizes; eight processes reach roughly the two-port peak.
	last := len(Fig4Sizes) - 1
	bw1 := tab.Rows[0].Values[last]
	bw8 := tab.Rows[3].Values[last]
	if bw8 <= bw1 {
		t.Fatalf("8 ppn (%g) not faster than 1 ppn (%g)", bw8, bw1)
	}
	if bw8 < 9.5 || bw8 > 10.5 {
		t.Fatalf("8 ppn = %g GB/s, want ~10 (2x40Gb ports)", bw8)
	}
	if frac := bw1 / bw8; frac < 0.2 || frac > 0.6 {
		t.Fatalf("1 ppn reaches %.0f%% of peak, want a clearly limited share", 100*frac)
	}
}

func TestFig6LeaderBreakdownShape(t *testing.T) {
	tab, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	// For each size the leader-based breakdown must show intra-node
	// steps (gather+bcast) dominating the inter-node exchange — the
	// paper's argument that overlap cannot hide them — and the
	// overlapped variant must improve on plain leader-based.
	var leaderTotal, overlapTotal float64
	checked := 0
	for _, row := range tab.Rows {
		switch {
		case strings.HasPrefix(row.Label, "leader-based"):
			vals := row.Values // total, gather, inter, bcast
			intra := vals[1] + vals[3]
			inter := vals[2]
			if intra <= inter {
				t.Errorf("%s: intra %g not dominating inter %g", row.Label, intra, inter)
			}
			leaderTotal = vals[0]
			checked++
		case strings.HasPrefix(row.Label, "overlapped"):
			overlapTotal = row.Values[0]
			if overlapTotal >= leaderTotal {
				t.Errorf("%s: overlap (%g) not faster than leader-based (%g)", row.Label, overlapTotal, leaderTotal)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no leader-based rows found")
	}
}

func TestFig10PolicyOrdering(t *testing.T) {
	tab, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	teps := map[string]float64{}
	for _, r := range tab.Rows {
		teps[r.Label] = r.Values[0]
	}
	// The paper's ordering: bind > interleave > noflag8 > noflag1.
	if !(teps["ppn=8.bind-to-socket"] > teps["ppn=1.interleave"]) {
		t.Errorf("bind (%g) must beat interleave (%g)", teps["ppn=8.bind-to-socket"], teps["ppn=1.interleave"])
	}
	if !(teps["ppn=1.interleave"] > teps["ppn=1.noflag"]) {
		t.Errorf("interleave (%g) must beat noflag (%g)", teps["ppn=1.interleave"], teps["ppn=1.noflag"])
	}
	if !(teps["ppn=8.bind-to-socket"] > teps["ppn=8.noflag"]) {
		t.Errorf("bind (%g) must beat unbound ppn=8 (%g)", teps["ppn=8.bind-to-socket"], teps["ppn=8.noflag"])
	}
}

func TestShareDegreeTradeoff(t *testing.T) {
	tab, err := AblationShareDegree(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want k in {1,2,4,8}", len(tab.Rows))
	}
	// Communication must not grow with the sharing degree; the modelled
	// check latency must not shrink (capacity helps but hits migrate to
	// peer caches) beyond k=1.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Values[0] > tab.Rows[0].Values[0]*1.01 {
			t.Errorf("k=%d allgather (%g) above private k=1 (%g)",
				1<<i, tab.Rows[i].Values[0], tab.Rows[0].Values[0])
		}
		if tab.Rows[i].Values[1] < tab.Rows[i-1].Values[1]*0.99 {
			t.Errorf("check latency not monotone at row %d: %g < %g",
				i, tab.Rows[i].Values[1], tab.Rows[i-1].Values[1])
		}
	}
}

func TestLevelProfileShape(t *testing.T) {
	tab, err := LevelProfile(quick())
	if err != nil {
		t.Fatal(err)
	}
	// The last two rows are the bottom-up shares; both must dominate
	// (Sec. II.B: most vertices reached bottom-up, most time there).
	n := len(tab.Rows)
	buVisited := tab.Rows[n-2].Values[0]
	if buVisited < 0.5 {
		t.Errorf("bottom-up visited share %g, want the majority", buVisited)
	}
}

func TestExtCompressionShape(t *testing.T) {
	tab, err := ExtCompression(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 5 TEPS rows + par/comp bu-comm + wire/raw MB + 3 segment rows.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
	rows := map[string][]float64{}
	for _, r := range tab.Rows {
		rows[r.Label] = r.Values
	}
	wireMB := rows["Compressed wire MB/root"]
	rawMB := rows["Compressed raw MB/root"]
	// The selector always has dense as a candidate, so the adaptive wire
	// volume can exceed raw only by header bytes; at 4+ nodes the sparse
	// frontier levels must yield a real reduction. (The modelled *time*
	// win needs larger segments than this quick spec produces — the unit
	// test at scale 16 covers it.)
	for i := range wireMB {
		if wireMB[i] > rawMB[i]*1.001 {
			t.Errorf("col %d: wire %g MB above raw %g MB", i, wireMB[i], rawMB[i])
		}
		if i >= 2 && wireMB[i] >= rawMB[i] {
			t.Errorf("col %d: no wire saving (%g >= %g MB)", i, wireMB[i], rawMB[i])
		}
	}
	// The adaptive selector must actually switch formats within a run.
	for i := range wireMB {
		used := 0
		for _, label := range []string{"segments dense/root", "segments sparse/root", "segments rle/root"} {
			if rows[label][i] > 0 {
				used++
			}
		}
		if i >= 1 && used < 2 {
			t.Errorf("col %d: selector used %d format(s)", i, used)
		}
	}
	if len(rows["Par allgather bu-comm (ms)"]) != 5 || len(rows["Compressed bu-comm (ms)"]) != 5 {
		t.Fatalf("bu-comm rows incomplete: %v / %v",
			rows["Par allgather bu-comm (ms)"], rows["Compressed bu-comm (ms)"])
	}
}

func TestAblationCompressionShape(t *testing.T) {
	tab, err := AblationCompression(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 selector configurations", len(tab.Rows))
	}
	// Columns: TEPS, wire MB, raw MB, bu-comm ms.
	base := tab.Rows[0] // par-allgather, no codec
	if base.Values[1] != base.Values[2] {
		t.Errorf("par-allgather wire %g != raw %g (no codec means they coincide)",
			base.Values[1], base.Values[2])
	}
	adaptive := tab.Rows[1]
	for _, r := range tab.Rows[1:] {
		// Compression never changes the logical traffic.
		if rel := r.Values[2]/base.Values[2] - 1; rel > 1e-9 || rel < -1e-9 {
			t.Errorf("%s: raw MB %g differs from baseline %g", r.Label, r.Values[2], base.Values[2])
		}
		// Every forced format and threshold rule is one of the adaptive
		// selector's candidates, so none can move fewer wire bytes.
		if r.Values[1] < adaptive.Values[1]*(1-1e-9) {
			t.Errorf("%s: wire %g MB below adaptive's %g", r.Label, r.Values[1], adaptive.Values[1])
		}
	}
	if adaptive.Values[1] >= base.Values[1] {
		t.Errorf("adaptive wire %g MB not below uncompressed %g", adaptive.Values[1], base.Values[1])
	}
}

func TestFig12CommGrowsWithNodes(t *testing.T) {
	tab, err := Fig12(quick())
	if err != nil {
		t.Fatal(err)
	}
	ppn8 := tab.Rows[1].Values
	for i := 1; i < len(ppn8); i++ {
		if ppn8[i] <= ppn8[i-1] {
			t.Fatalf("ppn=8 comm not growing: %v", ppn8)
		}
	}
	prop := tab.Rows[2].Values
	if prop[len(prop)-1] <= prop[0] {
		t.Fatalf("comm proportion not growing: %v", prop)
	}
	// ppn=8 communication costs more than ppn=1 at every point.
	ppn1 := tab.Rows[0].Values
	for i := range ppn8 {
		if ppn8[i] <= ppn1[i] {
			t.Fatalf("ppn8 comm (%g) not above ppn1 (%g) at index %d", ppn8[i], ppn1[i], i)
		}
	}
}

func TestExtFaultsShape(t *testing.T) {
	tab, err := ExtFaults(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 5 degradation rows (the cumulative optimization levels) + crash row.
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	for _, r := range tab.Rows[:5] {
		if r.Values[0] != 1 {
			t.Errorf("%s: baseline column %g, want exactly 1 (self-relative)", r.Label, r.Values[0])
		}
		for i, v := range r.Values {
			if v <= 0 || v > 1.0001 {
				t.Errorf("%s col %d: retained fraction %g outside (0, 1]", r.Label, i, v)
			}
		}
		// Harsher degradation must never help.
		for i := 1; i < len(r.Values); i++ {
			if r.Values[i] > r.Values[i-1]*1.0001 {
				t.Errorf("%s: retained fraction rose under harsher degradation: %v", r.Label, r.Values)
			}
		}
	}
	crash := tab.Rows[5]
	if !strings.Contains(crash.Label, "crash") {
		t.Fatalf("last row %q is not the crash row", crash.Label)
	}
	if v := crash.Values[0]; v <= 0 || v >= 1 {
		t.Errorf("crash row retained %g, want in (0, 1): recovery costs time but completes", v)
	}
}

func TestExtLossShape(t *testing.T) {
	tab, err := ExtLoss(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 5 optimization-level rows + retransmit and overhead ledger rows.
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	for _, r := range tab.Rows[:5] {
		if r.Values[0] != 1 {
			t.Errorf("%s: clean column %g, want exactly 1 (self-relative)", r.Label, r.Values[0])
		}
		for i, v := range r.Values {
			if v <= 0 || v > 1.0001 {
				t.Errorf("%s col %d: retained fraction %g outside (0, 1]", r.Label, i, v)
			}
		}
		// The protocol tax plus harsher loss must never help.
		for i := 1; i < len(r.Values); i++ {
			if r.Values[i] > r.Values[i-1]*1.0001 {
				t.Errorf("%s: retained fraction rose under harsher loss: %v", r.Label, r.Values)
			}
		}
	}
	retrans, overhead := tab.Rows[5], tab.Rows[6]
	if !strings.Contains(retrans.Label, "Retransmits") || !strings.Contains(overhead.Label, "Overhead") {
		t.Fatalf("ledger rows mislabeled: %q, %q", retrans.Label, overhead.Label)
	}
	// Clean and loss-0% columns carry no retransmissions; real loss must.
	if retrans.Values[0] != 0 || retrans.Values[1] != 0 {
		t.Errorf("retransmits without loss: %v", retrans.Values)
	}
	if last := retrans.Values[len(retrans.Values)-1]; last <= 0 {
		t.Errorf("no retransmits at the harshest rate: %v", retrans.Values)
	}
	// Protocol overhead appears as soon as the transport is on (loss 0%).
	if overhead.Values[0] != 0 || overhead.Values[1] <= 0 {
		t.Errorf("overhead columns wrong: %v", overhead.Values)
	}
}

func TestExtOverlapShape(t *testing.T) {
	s := quick()
	h0, m0 := s.Cache.Stats()
	tab, err := ExtOverlap(s)
	if err != nil {
		t.Fatal(err)
	}
	// 1 compressed TEPS row + 4 segment-count TEPS rows + 6 attribution rows.
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tab.Rows))
	}
	rows := map[string][]float64{}
	for _, r := range tab.Rows {
		rows[r.Label] = r.Values
	}
	hidden := rows["Overlap hidden comm (ms)"]
	eff := rows["Overlap efficiency"]
	speedup := rows["Speedup vs compressed"]
	for i := range eff {
		if eff[i] < 0 || eff[i] > 1 {
			t.Errorf("col %d: efficiency %g outside [0, 1]", i, eff[i])
		}
	}
	// With at least two nodes the pipeline must hide real transfer time.
	// At the CI scale bottom-up comm is under 1% of the traversal, so the
	// net effect is a wash — assert only that the pipelining overhead
	// stays in the noise here; the strict reduction is asserted at the
	// driver's default base scale in TestOverlapAcceptanceAtDefaultScale.
	for i := 1; i < len(hidden); i++ {
		if hidden[i] <= 0 {
			t.Errorf("col %d: no hidden communication attributed: %v", i, hidden)
		}
		if speedup[i] < 0.99 || speedup[i] > 1.5 {
			t.Errorf("col %d: speedup %g implausible for scale %d", i, speedup[i], s.BaseScale)
		}
	}
	// 25 validated cells share 5 graphs, which earlier tests may have
	// built already.
	if h, m := s.Cache.Stats(); h+m-h0-m0 != 25 || m-m0 > 5 {
		t.Errorf("graph cache hits=%d misses=%d over %d/%d, want 25 lookups and at most 5 builds (one per node count)",
			h, m, h0, m0)
	}
}

// TestOverlapAcceptanceAtDefaultScale is the tentpole acceptance on the
// experiments' own cluster model: at the default base scale the
// pipelined level must beat the compressed level in total virtual time
// at 4 nodes, with hidden communication accounting for the gain and the
// Figs. 12/14 bottom-up communication time strictly reduced.
func TestOverlapAcceptanceAtDefaultScale(t *testing.T) {
	s := Spec{BaseScale: Default().BaseScale, Roots: 1, Cache: graphs}
	const nodes = 4
	comp := bfs.DefaultOptions()
	comp.Opt = bfs.OptCompressedAllgather
	rc, err := graph500.Run(s.own(s.config(nodes, machine.PPN8Bind, comp)))
	if err != nil {
		t.Fatal(err)
	}
	ov := bfs.DefaultOptions()
	ov.Opt = bfs.OptOverlapAllgather
	ro, err := graph500.Run(s.own(s.config(nodes, machine.PPN8Bind, ov)))
	if err != nil {
		t.Fatal(err)
	}
	if ro.MeanTimeNs >= rc.MeanTimeNs {
		t.Errorf("overlap mean time %.0f ns not below compressed %.0f ns", ro.MeanTimeNs, rc.MeanTimeNs)
	}
	if ro.Breakdown.Ns[trace.Overlap] <= 0 {
		t.Errorf("no hidden communication: %v", ro.Breakdown.Ns)
	}
	if ro.Breakdown.Ns[trace.BUComm] >= rc.Breakdown.Ns[trace.BUComm] {
		t.Errorf("exposed bu-comm %.0f ns not below compressed %.0f ns",
			ro.Breakdown.Ns[trace.BUComm], rc.Breakdown.Ns[trace.BUComm])
	}
}

func TestTimelineShape(t *testing.T) {
	s := quick()
	s.Obs = obs.NewRecorder()
	tab, err := Timeline(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (compressed, overlap)", len(tab.Rows))
	}
	if len(tab.Columns) != 7 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(tab.Columns) {
			t.Fatalf("row %q has %d values for %d columns", r.Label, len(r.Values), len(tab.Columns))
		}
		vals := map[string]float64{}
		for i, c := range tab.Columns {
			vals[c] = r.Values[i]
		}
		if vals["TEPS"] <= 0 || vals["time ms"] <= 0 {
			t.Errorf("row %q: non-positive TEPS/time: %v", r.Label, r.Values)
		}
		// The gauge streams must have recorded real activity: the frontier
		// peaks above a single vertex, density stays a fraction, inter-node
		// traffic flows, and link utilization is a positive fraction of the
		// per-stream peak.
		if vals["peak frontier"] < 2 {
			t.Errorf("row %q: peak frontier %g — frontier gauge not sampled", r.Label, vals["peak frontier"])
		}
		if d := vals["peak density"]; d <= 0 || d > 1 {
			t.Errorf("row %q: peak density %g outside (0, 1]", r.Label, d)
		}
		if vals["inter-node MiB"] <= 0 {
			t.Errorf("row %q: no inter-node bytes sampled", r.Label)
		}
		if u := vals["peak link util"]; u <= 0 {
			t.Errorf("row %q: link utilization %g not positive", r.Label, u)
		}
	}
	// Both sessions recorded with sampling enabled, ready for obsdiff.
	sessions := s.Obs.Dump().Sessions
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	for _, sess := range sessions {
		if sess.BucketNs == 0 {
			t.Errorf("session %q recorded without sampling", sess.Label)
		}
	}
	// The overlap row must attribute some exposed wait or hide the
	// transfers entirely; either way the sweep ran the pipelined level.
	if !strings.Contains(tab.Rows[1].Label, "Overlap") {
		t.Errorf("second row %q is not the overlap level", tab.Rows[1].Label)
	}
}

func TestAblationOverlapShape(t *testing.T) {
	tab, err := AblationOverlap(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Compressed baseline + 6 pinned segment counts.
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	base := tab.Rows[0] // columns: TEPS, time ms, bu-comm ms, hidden, exposed, efficiency
	if base.Values[3] != 0 || base.Values[4] != 0 || base.Values[5] != 0 {
		t.Errorf("compressed baseline reports overlap: %v", base.Values)
	}
	for _, r := range tab.Rows[1:] {
		if r.Values[3] <= 0 {
			t.Errorf("%s: no hidden communication: %v", r.Label, r.Values)
		}
		if r.Values[5] < 0 || r.Values[5] > 1 {
			t.Errorf("%s: efficiency %g outside [0, 1]", r.Label, r.Values[5])
		}
	}
}

// TestLossTransportIdentityOnFigures: a transport-tuning-only plan (no
// Loss events) applied through the Spec must leave a cluster figure
// bit-identical to running with no plan at all — the experiments-level
// face of the transport's identity guarantee, which the mpi transport
// suite and bfs's TestLossPlanPreservesResults assert where it lives.
// Fig. 15's cells (every rung at every node count) contain Fig. 13's
// and Fig. 9's rungs.
func TestLossTransportIdentityOnFigures(t *testing.T) {
	tiny := Spec{BaseScale: 12, Roots: 1, Cache: graphs}
	base, err := Fig15(tiny)
	if err != nil {
		t.Fatal(err)
	}
	tiny.Faults = &fault.Plan{RetransmitTimeoutNs: 5e3, RetransmitBackoff: 1.5, RetryBudget: 4}
	got, err := Fig15(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Errorf("tuning-only plan perturbed the table:\nbase %v\ngot  %v", base, got)
	}
}

func TestExtAvailabilityShape(t *testing.T) {
	tab, err := ExtAvailability(quick())
	if err != nil {
		t.Fatal(err)
	}
	// 5 optimization levels x 2 completion policies (rerun, spare).
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != 6 {
			t.Fatalf("%s: %d values, want 6", r.Label, len(r.Values))
		}
		for k := 0; k < 2; k++ {
			teps, ratio, mttr := r.Values[3*k], r.Values[3*k+1], r.Values[3*k+2]
			if teps <= 0 || teps >= 1 {
				t.Errorf("%s x%d: retained TEPS %g, want in (0, 1): recovery costs time but completes", r.Label, k+1, teps)
			}
			if ratio < 1 {
				t.Errorf("%s x%d: time ratio %g below 1 — a crash cannot speed the run up", r.Label, k+1, ratio)
			}
			if mttr <= 0 {
				t.Errorf("%s x%d: MTTR %g ms, want positive (detection latency alone is nonzero)", r.Label, k+1, mttr)
			}
		}
		// A second death costs at least as much repair and wall time. The
		// time comparison gets a small tolerance: the second recovery
		// restarts every member from one synchronized detection floor,
		// which can erase accumulated skew worth a fraction of a percent.
		if r.Values[4] < r.Values[1]*0.99 {
			t.Errorf("%s: time ratio fell from %g to %g with a second crash", r.Label, r.Values[1], r.Values[4])
		}
		if r.Values[5] <= r.Values[2] {
			t.Errorf("%s: MTTR fell from %g to %g ms with a second crash", r.Label, r.Values[2], r.Values[5])
		}
	}
}
