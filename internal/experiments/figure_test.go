package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"numabfs/internal/chassis"
	"numabfs/internal/obs"
)

// TestFiguresMatchBaseline: the registry lists exactly the figures of
// the committed bench baseline, in its record order.
func TestFiguresMatchBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_2026-10-18.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Records []struct {
			Fig string `json:"fig"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, r := range bf.Records {
		want = append(want, r.Fig)
	}
	for _, f := range Figures {
		got = append(got, f.Key)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry keys %v, baseline records %v", got, want)
	}
}

// TestFigureLedgerKeys: run through the registry at parallel width 4,
// every ledger entry carries the key of the figure that ran its cell.
func TestFigureLedgerKeys(t *testing.T) {
	s := Spec{BaseScale: 12, Roots: 1, Parallel: 4, Ledger: NewLedger()}
	cheap := map[string]bool{"10": true, "levels": true, "abl-sharedegree": true, "abl-hybrid": true}
	for _, f := range Figures {
		if !cheap[f.Key] {
			continue
		}
		before := len(s.Ledger.Cells())
		if _, err := f.Run(s); err != nil {
			t.Fatal(err)
		}
		added := s.Ledger.Cells()[before:]
		if len(added) == 0 {
			t.Errorf("figure %s ledgered no cells", f.Key)
		}
		for _, c := range added {
			if c.Fig != f.Key {
				t.Errorf("figure %s: cell %q filed under %q", f.Key, c.Cell, c.Fig)
			}
		}
	}
}

// TestFig3OnSpecRunPath: Fig. 3's machine overrides are baked into its
// cells, so its cells go through the one run path — the shared graph
// cache (each of the four machines builds once, a second run hits every
// one) and the gauge sampling of the Spec reach them. A recorded run
// bypasses the cache: each session carries its own kernel 1.
func TestFig3OnSpecRunPath(t *testing.T) {
	s := quick()
	s.Cache = chassis.NewGraphCache()
	for _, want := range [][2]int64{{0, 4}, {4, 4}} {
		if _, err := Fig3(s); err != nil {
			t.Fatal(err)
		}
		if h, m := s.Cache.Stats(); h != want[0] || m != want[1] {
			t.Errorf("graph cache hits=%d misses=%d, want %d/%d", h, m, want[0], want[1])
		}
	}
	s.Cache = chassis.NewGraphCache()
	s.Obs = obs.NewRecorder()
	s.SampleNs = obs.DefaultSampleNs
	if _, err := Fig3(s); err != nil {
		t.Fatal(err)
	}
	if h, m := s.Cache.Stats(); h != 0 || m != 0 {
		t.Errorf("recorded run: graph cache hits=%d misses=%d, want 0/0", h, m)
	}
	for _, sess := range s.Obs.Dump().Sessions {
		if sess.BucketNs == 0 {
			t.Errorf("session %q recorded without sampling", sess.Label)
		}
	}
}
