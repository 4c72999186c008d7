// Package omp models the OpenMP worksharing layer of the paper's hybrid
// MPI/OpenMP BFS: each rank runs a team of threads over its local
// vertices with a dynamic, chunked schedule (the paper uses the OpenMP
// dynamic scheduler "to avoid load-balance problems").
//
// Execution is real but sequential within a rank: chunks run in the
// rank's goroutine and their modelled costs are attributed to virtual
// workers in round-robin order — the steady-state assignment a dynamic
// scheduler converges to under fine chunking. This keeps virtual time
// fully deterministic (independent of host scheduling and host core
// count) while still letting genuine load imbalance — skewed degree
// distributions, chunk counts smaller than the team — show up as a longer
// modelled phase.
package omp

import "numabfs/internal/machine"

// DefaultChunk is the dynamic-schedule chunk size in loop iterations.
const DefaultChunk = 1024

// Team describes the modelled execution resources of one rank: its thread
// count, the sockets it spans, and its share of node-wide bandwidth
// domains (see machine.Placement).
//
// A Team belongs to one rank: For keeps its working state on the team
// between regions, so a copy made after the first For shares it.
type Team struct {
	Cfg         machine.Config
	Threads     int
	SocketsUsed int
	BWShare     float64

	scratch *forScratch
}

// forScratch is what one For region works in, reused by the next: the
// per-worker times, the PhaseLoad every chunk fills (its Random backed
// by buf) and the aggregate's Random.
type forScratch struct {
	workerNs []float64
	load     machine.PhaseLoad
	buf      [4]machine.Access
	agg      []machine.Access
}

// TeamFor builds the team a placement gives each rank.
func TeamFor(cfg machine.Config, pl machine.Placement) Team {
	return Team{
		Cfg:         cfg,
		Threads:     pl.ThreadsPerProc,
		SocketsUsed: pl.SocketsPerProc,
		BWShare:     pl.BWShare,
	}
}

// Result summarizes one parallel-for region.
type Result struct {
	// Ns is the modelled wall time of the region: the aggregate phase
	// cost at full team parallelism, stretched by the observed worker
	// imbalance.
	Ns float64
	// Imbalance is max worker time over mean worker time (>= 1).
	Imbalance float64
	// Load is the aggregate work of the region.
	Load machine.PhaseLoad
}

// For runs body over [0, n) in chunks of `chunk` iterations and returns
// the modelled region cost. body fills in the chunk's PhaseLoad; the
// chunk's cost is attributed to worker (chunkIndex mod Threads). A warm
// team allocates nothing: Result.Load.Random stays valid until the
// team's next For.
func (t *Team) For(n, chunk int64, body func(lo, hi int64, load *machine.PhaseLoad)) Result {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	threads := t.Threads
	if threads < 1 {
		threads = 1
	}
	if t.scratch == nil {
		t.scratch = new(forScratch)
	}
	sc := t.scratch
	if len(sc.workerNs) != threads {
		sc.workerNs = make([]float64, threads)
	}
	workerNs := sc.workerNs
	clear(workerNs)
	agg := machine.PhaseLoad{Random: sc.agg[:0]}
	var ci int64
	for lo := int64(0); lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		sc.load = machine.PhaseLoad{Random: sc.buf[:0]}
		body(lo, hi, &sc.load)
		workerNs[ci%int64(threads)] += t.Cfg.PhaseTime(sc.load, 1, t.SocketsUsed, t.BWShare)
		agg.Add(sc.load)
		ci++
	}
	sc.agg = agg.Random
	ideal := t.Cfg.PhaseTime(agg, threads, t.SocketsUsed, t.BWShare)
	imb := imbalance(workerNs)
	return Result{Ns: ideal * imb, Imbalance: imb, Load: agg}
}

// ForBalanced charges a region of `items` independent work units (e.g.
// the frontier's edges, which the reference code's dynamic scheduler
// splits without regard to vertex boundaries): only min(Threads,
// ceil(items/chunk)) workers can be busy, but among them the work is
// evenly divided. Returns the modelled region time.
func (t *Team) ForBalanced(items, chunk int64, load machine.PhaseLoad) float64 {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	eff := t.Threads
	if eff < 1 {
		eff = 1
	}
	if items <= 0 {
		eff = 1
	} else if chunks := (items + chunk - 1) / chunk; int64(eff) > chunks {
		eff = int(chunks)
	}
	return t.Cfg.PhaseTime(load, eff, t.SocketsUsed, t.BWShare)
}

// Parallel charges a region executed by the whole team with perfect
// balance (e.g. a bulk bitmap conversion).
func (t *Team) Parallel(load machine.PhaseLoad) float64 {
	return t.Cfg.PhaseTime(load, t.Threads, t.SocketsUsed, t.BWShare)
}

// imbalance returns max/mean over workers with non-zero total, or 1.
func imbalance(ws []float64) float64 {
	var sum, max float64
	for _, w := range ws {
		sum += w
		if w > max {
			max = w
		}
	}
	if sum == 0 {
		return 1
	}
	mean := sum / float64(len(ws))
	if mean == 0 {
		return 1
	}
	if max < mean {
		return 1
	}
	return max / mean
}
