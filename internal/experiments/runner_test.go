package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"numabfs/internal/bfs"
	"numabfs/internal/chassis"
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
)

// runFig10At runs Fig10 at the given parallel width with a fresh
// recorder, cache and ledger, returning everything a caller might want
// to compare across widths.
func runFig10At(t *testing.T, parallel int) (*Table, *obs.Recorder, *Ledger) {
	t.Helper()
	s := quick()
	s.Parallel = parallel
	s.Obs = obs.NewRecorder()
	s.Cache = chassis.NewGraphCache()
	s.Ledger = NewLedger()
	tab, err := Fig10(s)
	if err != nil {
		t.Fatalf("parallel=%d: %v", parallel, err)
	}
	return tab, s.Obs, s.Ledger
}

// TestParallelRunnerDeterministic is the tentpole acceptance: a figure
// driver run at -parallel 8 must be byte-identical to the sequential
// run — rendered table, JSON table, timeline export (session order and
// content; every renderer reads it), and the ledger's (fig, cell)
// sequence. Only HostNs may differ.
func TestParallelRunnerDeterministic(t *testing.T) {
	seqTab, seqRec, seqLed := runFig10At(t, 1)
	parTab, parRec, parLed := runFig10At(t, 8)

	if seqTab.String() != parTab.String() {
		t.Errorf("rendered tables differ:\n--- parallel=1\n%s\n--- parallel=8\n%s", seqTab, parTab)
	}
	seqJSON, _ := json.Marshal(seqTab)
	parJSON, _ := json.Marshal(parTab)
	if !bytes.Equal(seqJSON, parJSON) {
		t.Error("JSON tables differ between parallel widths")
	}

	var seqTL, parTL bytes.Buffer
	if err := seqRec.Dump().WriteJSONL(&seqTL); err != nil {
		t.Fatal(err)
	}
	if err := parRec.Dump().WriteJSONL(&parTL); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqTL.Bytes(), parTL.Bytes()) {
		t.Errorf("timeline JSONL exports differ between parallel widths (%d vs %d bytes)",
			seqTL.Len(), parTL.Len())
	}

	seqCells, parCells := seqLed.Cells(), parLed.Cells()
	if len(seqCells) != len(parCells) {
		t.Fatalf("ledger lengths differ: %d vs %d", len(seqCells), len(parCells))
	}
	for i := range seqCells {
		if seqCells[i].Fig != parCells[i].Fig || seqCells[i].Cell != parCells[i].Cell {
			t.Errorf("ledger entry %d differs: %+v vs %+v", i, seqCells[i], parCells[i])
		}
	}
}

// TestParallelRunnerDeterministicUnderLoss repeats the width comparison
// with fault.Lossy plans and full tree validation in every cell: the
// reliable transport's retransmission schedule is virtual-time-driven,
// so it too must not see host scheduling.
func TestParallelRunnerDeterministicUnderLoss(t *testing.T) {
	lossy := func(parallel int) *Table {
		s := Spec{BaseScale: 12, Roots: 1, Parallel: parallel, Cache: chassis.NewGraphCache()}
		tab := &Table{Name: "loss-det", Columns: []string{"teps", "retrans"}}
		var cells []cell
		for _, opt := range []bfs.Opt{bfs.OptParAllgather, bfs.OptCompressedAllgather} {
			for _, rate := range []float64{0, 0.02} {
				plan := fault.Lossy(7, rate)
				cfg := s.config(2, machine.PPN8Bind, optsAt(opt))
				cfg.Faults, cfg.Validate = &plan, true
				cells = append(cells, cell{fmt.Sprintf("%v/%g", opt, rate), cfg})
			}
		}
		results, err := s.collect(cells)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, res := range results {
			var retrans int64
			for _, rr := range res.PerRoot {
				retrans += rr.Xport.Retransmits
			}
			tab.AddRow(cells[i].label, res.HarmonicTEPS, float64(retrans))
		}
		return tab
	}
	seq, par := lossy(1), lossy(8)
	if seq.String() != par.String() {
		t.Errorf("lossy tables differ:\n--- parallel=1\n%s\n--- parallel=8\n%s", seq, par)
	}
}

// TestRunnerErrorDeterminism: parallel mode must surface the
// lowest-index error regardless of which worker fails first, and
// sequential mode must stop at the first failing cell.
func TestRunnerErrorDeterminism(t *testing.T) {
	errA := errors.New("cell 1 failed")
	errB := errors.New("cell 3 failed")
	labels := []string{"ok", "a", "ok2", "b"}
	run := func(s Spec, ran *[4]bool) error {
		_, err := gather(s, labels, func(_ Spec, i int) (struct{}, error) {
			ran[i] = true
			switch i {
			case 1:
				time.Sleep(20 * time.Millisecond)
				return struct{}{}, errA
			case 3:
				return struct{}{}, errB
			}
			return struct{}{}, nil
		})
		return err
	}

	var ranPar [4]bool
	s := Spec{Parallel: 4}
	// Cell 3's error lands long before cell 1's, but cell 1's must win.
	if err := run(s, &ranPar); !errors.Is(err, errA) {
		t.Errorf("parallel: got %v, want %v", err, errA)
	}
	for i, r := range ranPar {
		if !r {
			t.Errorf("parallel: cell %d never ran", i)
		}
	}

	var ranSeq [4]bool
	s.Parallel = 1
	if err := run(s, &ranSeq); !errors.Is(err, errA) {
		t.Errorf("sequential: got %v, want %v", err, errA)
	}
	if ranSeq[2] || ranSeq[3] {
		t.Error("sequential mode must stop at the first error")
	}
}

// TestRunnerObsAndLedgerOrder: with stub cells that each record a
// session, the parent recorder's session order and the ledger's entry
// order must match cell declaration order at any width, and every entry
// carries the key of the figure that ran it.
func TestRunnerObsAndLedgerOrder(t *testing.T) {
	const n = 9
	s := Spec{Parallel: 4, Obs: obs.NewRecorder(), Ledger: NewLedger()}
	cells := make([]string, n)
	for i := range cells {
		cells[i] = fmt.Sprintf("c%d", i)
	}
	order := Figure{"order", func(s Spec) (*Table, error) {
		_, err := gather(s, cells, func(cs Spec, i int) (int, error) {
			// Stagger so late-indexed cells finish first.
			time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
			cs.Obs.NewSession(fmt.Sprintf("s%d", i))
			return i, nil
		})
		return nil, err
	}}
	if _, err := order.Run(s); err != nil {
		t.Fatal(err)
	}
	sessions := s.Obs.Dump().Sessions
	if len(sessions) != n {
		t.Fatalf("sessions = %d, want %d", len(sessions), n)
	}
	for i, sess := range sessions {
		if want := fmt.Sprintf("s%d", i); sess.Label != want {
			t.Errorf("session %d = %q, want %q", i, sess.Label, want)
		}
	}
	led := s.Ledger.Cells()
	if len(led) != n {
		t.Fatalf("ledger = %d entries, want %d", len(led), n)
	}
	for i, c := range led {
		if want := fmt.Sprintf("c%d", i); c.Cell != want || c.Fig != "order" {
			t.Errorf("ledger %d = %+v, want fig=order cell=%s", i, c, want)
		}
	}
}

// TestRunnerDispatchesConcurrently verifies the pool actually overlaps
// cells in host time. Sleep-bound cells overlap regardless of core
// count, so this holds even on a single-CPU host; the >= 2x wall-clock
// speedup on simulation-bound figs is CI's host-budget concern.
func TestRunnerDispatchesConcurrently(t *testing.T) {
	const n, naplen = 8, 60 * time.Millisecond
	cells := make([]string, n)
	for i := range cells {
		cells[i] = fmt.Sprintf("nap%d", i)
	}
	s := Spec{Parallel: n}
	t0 := time.Now()
	if _, err := gather(s, cells, func(Spec, int) (bool, error) {
		time.Sleep(naplen)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(t0); wall > time.Duration(n)*naplen/2 {
		t.Errorf("parallel width %d took %v for %d x %v cells — no overlap", n, wall, n, naplen)
	}
}
