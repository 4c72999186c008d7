package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"numabfs/internal/obs"
)

// This file is the deterministic parallel cell runner. A figure driver
// names its cells — one benchmark configuration each — up front instead
// of running them inline; gather farms them across Spec.Parallel
// host workers and commits every side effect (results, obs sessions,
// host-time ledger entries, the returned error) in submission order.
// Each cell already owns a private mpi.World and simnet.Network, so
// cells are embarrassingly parallel in host time while every virtual
//-time result stays bit-identical to the sequential schedule: the only
// cross-cell state is the graph cache (singleflight, order-independent
// counters) and the obs recorder (replaced per cell and merged in
// order).

// gather runs one cell per label at the spec's parallel width and
// returns the cells' values in label order. run receives the cell's
// private Spec copy — its Obs recorder, when recording is on, is a
// fresh per-cell one that the runner adopts into the parent recorder in
// submission order after all cells finish. Sequential mode
// (Spec.Parallel 0 or 1) runs in order and stops at the first error;
// parallel mode runs every cell and returns the lowest-index error, so
// the error surfaced does not depend on host scheduling. A failed
// cell's error names its label.
func gather[T any](s Spec, labels []string, run func(cs Spec, i int) (T, error)) ([]T, error) {
	n := len(labels)
	out := make([]T, n)
	recs := make([]*obs.Recorder, n)
	errs := make([]error, n)
	hostNs := make([]int64, n)
	ran := make([]bool, n)
	runOne := func(i int) {
		cs := s
		if s.Obs != nil {
			recs[i] = obs.NewRecorder()
			cs.Obs = recs[i]
		}
		ran[i] = true
		t0 := time.Now()
		out[i], errs[i] = run(cs, i)
		hostNs[i] = time.Since(t0).Nanoseconds()
	}

	if w := min(max(s.Parallel, 1), n); w <= 1 {
		for i := range labels {
			runOne(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runOne(i)
				}
			}()
		}
		for i := range labels {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	// Commit side effects in submission order.
	var firstErr error
	for i, label := range labels {
		if !ran[i] {
			continue
		}
		if s.Ledger != nil {
			s.Ledger.add(CellTime{Cell: label, HostNs: hostNs[i]})
		}
		if firstErr == nil && errs[i] != nil {
			firstErr = fmt.Errorf("%s: %w", label, errs[i])
		}
		// Adopt even a failed cell's sessions: the sequential schedule
		// records a session before the run fails, and exports must match.
		if s.Obs != nil {
			s.Obs.Adopt(recs[i])
		}
	}
	return out, firstErr
}

// CellTime is one ledger entry: the host wall-clock spent running one
// cell of one figure driver.
type CellTime struct {
	Fig    string `json:"fig"`
	Cell   string `json:"cell"`
	HostNs int64  `json:"host_ns"`
}

// Ledger accumulates per-cell host times across figure drivers. Entries
// are appended in deterministic submission order (the runner commits
// them after its barrier), so two runs of the same figure set produce
// the same entry sequence — only the HostNs values vary with the host.
type Ledger struct {
	mu    sync.Mutex
	cells []CellTime
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

func (l *Ledger) add(c CellTime) {
	l.mu.Lock()
	l.cells = append(l.cells, c)
	l.mu.Unlock()
}

// Cells returns the recorded entries in commit order.
func (l *Ledger) Cells() []CellTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]CellTime(nil), l.cells...)
}

// String renders the ledger as aligned text with per-fig subtotals.
func (l *Ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-40s %14s\n", "fig", "cell", "host ms")
	var fig string
	var figNs, totalNs int64
	flush := func() {
		if fig != "" {
			fmt.Fprintf(&b, "%-16s %-40s %14.2f\n", fig, "(subtotal)", float64(figNs)/1e6)
		}
	}
	for _, c := range l.Cells() {
		if c.Fig != fig {
			flush()
			fig, figNs = c.Fig, 0
		}
		fmt.Fprintf(&b, "%-16s %-40s %14.2f\n", c.Fig, c.Cell, float64(c.HostNs)/1e6)
		figNs += c.HostNs
		totalNs += c.HostNs
	}
	flush()
	fmt.Fprintf(&b, "%-16s %-40s %14.2f\n", "total", "", float64(totalNs)/1e6)
	return b.String()
}
