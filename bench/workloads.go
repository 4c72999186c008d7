package main

import (
	"fmt"
	"math/rand"
)

// runSeconds is how long the timed passes of one driver run last
// (BENCHMARK.json's run_seconds). A run repeats whole passes over the
// workload's fixed op list until that much time has gone by.
const runSeconds = 6

// workload is one fixed set of inputs. Names are fixed: issues and
// README.md refer to them.
type workload struct {
	Name string
	Why  string // one line, BENCHMARK.json's rationale
	Spec engineSpec
	Ops  int // length of the op list: roots, or query streams on serve
	// Serve only: an open loop of independent streams, Poisson arrivals
	// at a fixed absolute rate, latency counted from arrival.
	StreamQueries int
	QPS           float64
}

var workloads = []workload{
	{
		Name: "scan2",
		Why:  "1-D hybrid, scale 19 on 2 nodes: few ranks, big graph, so host time sits in the engine scans (bfs, bitmap, graph); the control on which an mpi/collective change should not move.",
		Spec: engineSpec{Engine: "bfs", Scale: 19, Nodes: 2, Opt: "par", Granularity: 256},
		Ops:  64,
	},
	{
		Name: "comm16-raw",
		Why:  "1-D hybrid, scale 18 on 16 nodes (128 ranks), unoptimized level: message-count bound, mpi is most of the CPU; blocking SendRecv, ring and leader collectives, barrier at np=128.",
		Spec: engineSpec{Engine: "bfs", Scale: 18, Nodes: 16, Opt: "original", Granularity: 64},
		Ops:  32,
	},
	{
		Name: "comm16-top",
		Why:  "Same graph and machine at the top level: shared regions, per-socket subgroups, wire codec, Isend/Irecv pipeline; same layers used differently, so a gain for one path that costs the other shows.",
		Spec: engineSpec{Engine: "bfs", Scale: 18, Nodes: 16, Opt: "overlap", Granularity: 256},
		Ops:  32,
	},
	{
		Name: "grid2d",
		Why:  "2-D engine, scale 18 on a 128-rank grid, hybrid with compression: the list-shaped use of the collectives (alltoallv, allgatherv, list codecs); the only workload where wire is > 10 % of host time.",
		Spec: engineSpec{Engine: "bfs2d", Scale: 18, Nodes: 16},
		Ops:  32,
	},
	{
		Name: "serve",
		Why:  "Query server over the batched engine, scale 16 on 2 nodes, open loop at a fixed 30000 qps: the serving layer, and the only workload whose end-to-end number is a latency under load.",
		Spec: engineSpec{Engine: "msbfs", Scale: 16, Nodes: 2, Opt: "compressed", Granularity: 256},
		Ops:  24, StreamQueries: 256, QPS: 30000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// smoke shrinks a workload to the size the tier-1 smoke test runs:
// the smallest scale with 64 vertices per rank, two ops, short streams.
func (w workload) smoke() workload {
	w.Spec.Scale = 12
	if w.Spec.Nodes > 2 {
		w.Spec.Scale = 13
	}
	w.Ops = 2
	if w.StreamQueries > 0 {
		w.StreamQueries = 96
	}
	return w
}

// Every input derives from the run's seed: the R-MAT seed here, the
// roots from the R-MAT seed (rmat.Params.Roots), the arrivals below.
// The program under test receives only the generated inputs.

func rmatSeed(seed uint64) uint64 {
	return uint64(rand.New(rand.NewSource(int64(seed))).Int63())
}

// buildOps generates the workload's op list on a set-up engine.
func (w workload) buildOps(e runner, seed uint64) []op {
	ops := make([]op, w.Ops)
	if w.StreamQueries == 0 {
		for i, root := range drawRoots(w.Spec, rmatSeed(seed), w.Ops, e.HasEdge) {
			ops[i].Root = root
		}
		return ops
	}
	for i := range ops {
		ops[i].Queries = w.poissonStream(e.HasEdge, w.StreamQueries, w.QPS, seed, i)
	}
	return ops
}

// poissonStream draws n queries with exponential interarrivals at
// exactly qps queries per virtual second, roots uniform over vertices
// with edges. A rootless draw redraws the root without advancing the
// clock, so the offered rate is the nominal one (queryserv.PoissonWorkload
// advances time on every redraw and so delivers less; see README.md).
func (w workload) poissonStream(hasEdge func(int64) bool, n int, qps float64, seed uint64, stream int) []query {
	rng := rand.New(rand.NewSource(int64(seed)*1000003 + int64(stream) + 1))
	nv := int64(1) << uint(w.Spec.Scale)
	qs := make([]query, n)
	t := 0.0
	for i := range qs {
		t += rng.ExpFloat64() * 1e9 / qps
		root := rng.Int63n(nv)
		for !hasEdge(root) {
			root = rng.Int63n(nv)
		}
		qs[i] = query{Root: root, ArriveNs: t}
	}
	return qs
}
