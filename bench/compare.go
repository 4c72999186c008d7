package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// exactBound is how far a virtual-clock metric may drift between two
// commits measured with one seed before it counts as changed; hostFloor
// is the smallest change of a host metric worth calling an improvement.
const (
	exactBound = 1e-9
	hostFloor  = 0.01
)

// judge compares the parent's measurement a of metric d with the
// change's b. Medians are the reported values; the spread is the wider
// of the two sides' interquartile ranges over their per-pass samples,
// as a share of the median.
//
//	worse       the median worsened by more than the bound
//	unresolved  the spread is wider than the bound, so neither "same" nor
//	            "worse" can be said — unless every sample of the change
//	            beats every sample of the parent
//	better      the median improved by more than the spread (and by at
//	            least 1 % on the host clock)
//	same        anything else
func judge(d metricDef, a, b metricValue) (verdict string, spread float64) {
	worsening := (b.Value - a.Value) / math.Abs(a.Value)
	if d.Better == "higher" {
		worsening = -worsening
	}
	if a.Value == b.Value {
		worsening = 0
	}
	bound, floor := d.Bound, hostFloor
	if d.Exact {
		bound, floor = exactBound, exactBound
	} else {
		spread = math.Max(relSpread(a), relSpread(b))
	}
	switch {
	case spread > bound && allBetter(d, a.Samples, b.Samples):
		return "better", spread
	case spread > bound:
		return "unresolved", spread
	case worsening > bound:
		return "worse", spread
	case -worsening > math.Max(spread, floor):
		return "better", spread
	}
	return "same", spread
}

func relSpread(v metricValue) float64 {
	if len(v.Samples) < 2 || v.Value == 0 {
		return 0
	}
	q1, q3 := quartiles(v.Samples)
	return (q3 - q1) / math.Abs(v.Value)
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// compares the exact per-layer counts and the digests bit for bit. It
// reports whether anything got worse: a "worse" verdict, a digest
// mismatch, or a higher share of failed ops.
func compareFiles(pathA, pathB string, w io.Writer) (worse bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d\n", pathA, a.Commit, a.GoVersion, a.NProc, a.GOMAXPROCS, a.Seed)
	fmt.Fprintf(w, "B: %s  commit %s  %s  nproc %d  GOMAXPROCS %d  seed %d\n", pathB, b.Commit, b.GoVersion, b.NProc, b.GOMAXPROCS, b.Seed)
	if a.Seed != b.Seed {
		return false, fmt.Errorf("bench: seeds differ (%d, %d): the virtual clock compares exactly only for one seed", a.Seed, b.Seed)
	}
	fmt.Fprintf(w, "%-11s %-20s %14s %14s %8s  %-23s %-23s %6s %7s  %s\n",
		"workload", "metric", "A", "B", "B vs A", "A q1..q3", "B q1..q3", "bound", "spread", "verdict")
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil {
			return false, fmt.Errorf("bench: %s has no workload %s", pathB, ra.Name)
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			verdict, spread := judge(d, va, vb)
			bound := d.Bound
			if d.Exact {
				bound = exactBound
			}
			fmt.Fprintf(w, "%-11s %-20s %14.6g %14.6g %+7.2f%%  %-23s %-23s %6.2g %6.1f%%  %s\n",
				ra.Name, d.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/math.Abs(va.Value), quartileText(va), quartileText(vb),
				bound, 100*spread, verdict)
			worse = worse || verdict == "worse"
		}
		for _, d := range perLayer {
			va, vb := ra.PerLayer[d.Name], rb.PerLayer[d.Name]
			if d.Exact && va.Value != vb.Value {
				fmt.Fprintf(w, "%-11s %-44s exact count differs: %v -> %v\n", ra.Name, d.Name, va.Value, vb.Value)
			}
		}
		if ra.VirtDigest != rb.VirtDigest {
			fmt.Fprintf(w, "%-11s virt_digest differs: %s -> %s (virtual results or parent trees changed)\n", ra.Name, ra.VirtDigest, rb.VirtDigest)
			worse = true
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		fmt.Fprintf(w, "%-11s %-20s %14.6g %14.6g\n", ra.Name, "failed_ops_frac", fa, fb)
		worse = worse || fb > fa
	}
	return worse, nil
}

func quartileText(v metricValue) string {
	if len(v.Samples) < 2 {
		return "-"
	}
	q1, q3 := quartiles(v.Samples)
	return fmt.Sprintf("%.5g..%.5g", q1, q3)
}

func failedFrac(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
