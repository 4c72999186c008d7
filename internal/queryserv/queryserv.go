// Package queryserv is the query-service layer over the batched MS-BFS
// engine: a stream of single-root BFS queries arrives over virtual
// time, an admission policy groups them into batches of up to 64, and
// each batch traverses once — the "millions of users" serving story,
// where the batch amortizes the per-level collectives across queries
// that happen to arrive together.
//
// The server is a deterministic virtual-time loop, not a goroutine
// system: the engine is the only resource, batches run back to back,
// and each decision (how long to hold the admission window open, which
// queries make the batch) is a pure function of the arrival times and
// the policy — so a workload replays bit-identically, which the
// determinism suite asserts.
package queryserv

import (
	"fmt"
	"math"
	"sort"

	"numabfs/internal/graph500"
	"numabfs/internal/msbfs"
	"numabfs/internal/stats"
	"numabfs/internal/xrand"
)

// Query is one root request with a virtual arrival time.
type Query struct {
	ID       int
	Root     int64
	ArriveNs float64
}

// Policy is the admission policy: a batch launches when it is full
// (MaxBatch queries) or when the oldest waiting query has waited
// FillTimeoutNs, whichever comes first — the classic fill-vs-latency
// trade-off. The engine serves one batch at a time; queries arriving
// during a traversal queue for the next batch.
type Policy struct {
	// MaxBatch is the lane budget per batch, at most 64.
	MaxBatch int
	// FillTimeoutNs bounds the time a query may wait for lane-mates
	// before its batch launches anyway. 0 launches as soon as the
	// engine is free (latency-optimal, amortization-free at low load).
	FillTimeoutNs float64
}

// Validate reports a policy error, or nil.
func (po Policy) Validate() error {
	if po.MaxBatch < 1 || po.MaxBatch > 64 {
		return fmt.Errorf("queryserv: max batch %d outside [1, 64]", po.MaxBatch)
	}
	if po.FillTimeoutNs < 0 || math.IsNaN(po.FillTimeoutNs) || math.IsInf(po.FillTimeoutNs, 0) {
		return fmt.Errorf("queryserv: fill timeout %g must be finite and non-negative", po.FillTimeoutNs)
	}
	return nil
}

// Calibration is the engine's measured full-batch capacity: the unit
// in which the query server's offered load and default fill timeout
// are expressed, so one multiple stresses the same operating point at
// every scale. Virtual time is deterministic, so the calibration is too.
type Calibration struct {
	BatchNs     float64 // virtual duration of one full batch
	CapacityQPS float64 // lanes per BatchNs, in queries per virtual second
}

// Calibrate draws lanes roots by the Graph500 rule and runs them as one
// batch on r. It fails when the graph has fewer than lanes vertices with
// an edge (graph500.ErrTooManyRoots).
func Calibrate(r *msbfs.Runner, lanes int) (Calibration, error) {
	roots, err := graph500.DrawRoots(r.Params, lanes, r.HasEdgeGlobal)
	if err != nil {
		return Calibration{}, err
	}
	ns := r.RunBatch(roots).TimeNs
	return Calibration{BatchNs: ns, CapacityQPS: float64(lanes) / (ns / 1e9)}, nil
}

// FillTimeoutNs returns ns, or twice the calibrated batch duration when
// ns is 0 — the default fill timeout.
func (c Calibration) FillTimeoutNs(ns float64) float64 {
	if ns == 0 {
		return 2 * c.BatchNs
	}
	return ns
}

// Completed is one query's outcome.
type Completed struct {
	Query
	// Batch is the index of the batch that served the query; Lane its
	// lane within that batch.
	Batch, Lane int
	// LaunchNs / DoneNs bracket the serving batch on the virtual
	// timeline; LatencyNs = DoneNs - ArriveNs (queueing + fill wait +
	// traversal).
	LaunchNs, DoneNs float64
	LatencyNs        float64
	// TraversedEdges and TEPS are the query's own component against its
	// own latency — the per-query rate a client observes.
	TraversedEdges int64
	TEPS           float64
}

// BatchTrace records one served batch for inspection.
type BatchTrace struct {
	Size            int
	LaunchNs        float64
	DurationNs      float64
	AllgatherRounds int64
}

// Result is the outcome of serving a whole workload.
type Result struct {
	// Completed holds every query in commit order: batches in launch
	// order, lanes in admission (arrival) order within each batch. The
	// order is part of the deterministic contract.
	Completed []Completed
	Batches   []BatchTrace
	// MakespanNs is the virtual time from the first arrival to the last
	// completion; ThroughputQPS the served rate over it.
	MakespanNs    float64
	ThroughputQPS float64
	// MeanBatchFill is the mean batch occupancy in lanes.
	MeanBatchFill float64
	// AllgatherRounds totals the plane+summary rounds across batches.
	AllgatherRounds int64
}

// LatencyPercentile returns the p-th percentile (0..100) of per-query
// latency in ns.
func (res *Result) LatencyPercentile(p float64) float64 {
	xs := make([]float64, len(res.Completed))
	for i, c := range res.Completed {
		xs[i] = c.LatencyNs
	}
	return stats.Percentile(xs, p)
}

// TEPSPercentile returns the p-th percentile (0..100) of per-query
// effective TEPS.
func (res *Result) TEPSPercentile(p float64) float64 {
	xs := make([]float64, len(res.Completed))
	for i, c := range res.Completed {
		xs[i] = c.TEPS
	}
	return stats.Percentile(xs, p)
}

// Serve runs the workload through the runner under the policy. Queries
// must arrive at finite, non-negative times, sorted (ties kept in slice
// order). The runner
// must be Setup; its clocks are reset per batch, with the server
// keeping the virtual service timeline itself.
func Serve(r *msbfs.Runner, po Policy, queries []Query) (*Result, error) {
	if err := po.Validate(); err != nil {
		return nil, err
	}
	for i, q := range queries {
		if !(q.ArriveNs >= 0) || math.IsInf(q.ArriveNs, 0) { // NaN would pass the order check
			return nil, fmt.Errorf("queryserv: query %d arrives at %g ns, want a finite time >= 0", q.ID, q.ArriveNs)
		}
		if i > 0 && q.ArriveNs < queries[i-1].ArriveNs {
			return nil, fmt.Errorf("queryserv: queries not sorted by arrival (%d at %g after %d at %g)",
				queries[i].ID, queries[i].ArriveNs, queries[i-1].ID, queries[i-1].ArriveNs)
		}
	}
	res := &Result{}
	if len(queries) == 0 {
		return res, nil
	}
	engineFree := queries[0].ArriveNs
	for i := 0; i < len(queries); {
		head := queries[i]
		// The batch launches at the latest of: the engine coming free,
		// and the head query's fill deadline — unless the batch fills to
		// MaxBatch earlier, in which case the fill wait is cut short.
		launch := math.Max(engineFree, head.ArriveNs+po.FillTimeoutNs)
		if last := i + po.MaxBatch - 1; last < len(queries) {
			if t := math.Max(engineFree, queries[last].ArriveNs); t < launch {
				launch = t
			}
		}
		// Admit every arrival up to the launch instant, capped at the
		// lane budget.
		j := i
		for j < len(queries) && j-i < po.MaxBatch && queries[j].ArriveNs <= launch {
			j++
		}
		batch := queries[i:j]
		roots := make([]int64, len(batch))
		for k, q := range batch {
			roots[k] = q.Root
		}
		br := r.RunBatch(roots)
		done := launch + br.TimeNs
		bi := len(res.Batches)
		res.Batches = append(res.Batches, BatchTrace{
			Size: len(batch), LaunchNs: launch, DurationNs: br.TimeNs,
			AllgatherRounds: br.AllgatherRounds,
		})
		res.AllgatherRounds += br.AllgatherRounds
		for k, q := range batch {
			lat := done - q.ArriveNs
			c := Completed{
				Query: q, Batch: bi, Lane: k,
				LaunchNs: launch, DoneNs: done, LatencyNs: lat,
				TraversedEdges: br.Lanes[k].TraversedEdges,
			}
			if lat > 0 {
				c.TEPS = float64(c.TraversedEdges) / (lat / 1e9)
			}
			res.Completed = append(res.Completed, c)
		}
		engineFree = done
		i = j
	}
	first := queries[0].ArriveNs
	last := res.Completed[len(res.Completed)-1].DoneNs
	res.MakespanNs = last - first
	if res.MakespanNs > 0 {
		res.ThroughputQPS = float64(len(res.Completed)) / (res.MakespanNs / 1e9)
	}
	res.MeanBatchFill = float64(len(res.Completed)) / float64(len(res.Batches))
	return res, nil
}

// PoissonWorkload draws n queries with exponentially distributed
// interarrivals at the offered rate (queries per virtual second) and
// roots picked uniformly from vertices with edges — the Graph500 root
// rule. Deterministic in the seed.
func PoissonWorkload(n int, qps float64, seed uint64, numVertices int64, hasEdge func(int64) bool) []Query {
	if n < 0 || !(qps > 0) || math.IsInf(qps, 0) {
		panic(fmt.Sprintf("queryserv: workload needs n >= 0 and a finite qps > 0 (n=%d, qps=%g)", n, qps))
	}
	rng := xrand.NewXoshiro256(seed)
	qs := make([]Query, 0, n)
	t := 0.0
	meanGapNs := 1e9 / qps
	for len(qs) < n {
		t += -math.Log(1-rng.Float64()) * meanGapNs
		root := int64(rng.Uint64n(uint64(numVertices)))
		if !hasEdge(root) {
			continue // redraw arrival and root, as Params.Roots redraws roots
		}
		qs = append(qs, Query{ID: len(qs), Root: root, ArriveNs: t})
	}
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].ArriveNs < qs[j].ArriveNs })
	return qs
}
