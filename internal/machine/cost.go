package machine

import "fmt"

// Locality describes where a data structure's backing memory lives
// relative to the cores that access it. It is the variable the paper's
// NUMA experiments turn: binding one rank per socket makes the graph
// Local; one interleaved rank per node makes it Interleaved; an unbound
// run first-touches everything on one socket (SingleSocket).
type Locality int

const (
	// Local: the structure is in the DRAM attached to the accessing
	// socket (ppn=8 bind-to-socket).
	Local Locality = iota
	// Remote: the structure is in another socket's DRAM.
	Remote
	// Interleaved: pages are spread round-robin over all sockets of the
	// node (numactl --interleave=all); 1/S of accesses are local.
	Interleaved
	// SingleSocket: the whole structure was first-touched on one socket
	// (the "noflag" default); all sockets' traffic converges there.
	SingleSocket
	// NodeShared: one copy per node, mmap-shared by all ranks of the node
	// (the paper's Section III.A optimization). Pages are effectively
	// interleaved; the combined L3 of all sockets caches it and hot lines
	// are often found in a peer socket's cache.
	NodeShared
)

// String implements fmt.Stringer.
func (l Locality) String() string {
	switch l {
	case Local:
		return "local"
	case Remote:
		return "remote"
	case Interleaved:
		return "interleaved"
	case SingleSocket:
		return "single-socket"
	case NodeShared:
		return "node-shared"
	default:
		return fmt.Sprintf("Locality(%d)", int(l))
	}
}

// Access describes a batch of random (latency-bound) accesses to one
// structure during a phase: how many accesses, how large the structure is
// (which sets the modelled cache hit rate), and where it lives.
type Access struct {
	Count       int64
	StructBytes int64
	Loc         Locality
}

// PhaseLoad aggregates the work of one computation phase of one rank.
// Random accesses dominate BFS (bitmap checks, adjacency jumps); SeqBytes
// covers streaming reads such as CSR adjacency scans; CPUOps covers the
// branchy bookkeeping.
type PhaseLoad struct {
	Random   []Access
	SeqBytes int64
	SeqLoc   Locality
	CPUOps   int64
}

// Add accumulates o into l.
func (l *PhaseLoad) Add(o PhaseLoad) {
	l.Random = append(l.Random, o.Random...)
	l.SeqBytes += o.SeqBytes
	l.CPUOps += o.CPUOps
	if o.SeqBytes > 0 {
		l.SeqLoc = o.SeqLoc
	}
}

// missLatency returns the DRAM latency for loc.
func (c *Config) missLatency(loc Locality) float64 {
	s := float64(c.SocketsPerNode)
	switch loc {
	case Local:
		return c.LocalMemNs
	case Remote:
		return c.RemoteMemNs
	case Interleaved, NodeShared:
		return (c.LocalMemNs + (s-1)*c.RemoteMemNs) / s
	case SingleSocket:
		// 1/S of sockets see it local; queueing at the one memory
		// controller is captured by the bandwidth floor, not here.
		return (c.LocalMemNs + (s-1)*c.RemoteMemNs) / s
	default:
		return c.RemoteMemNs
	}
}

// spansNode reports whether accesses to loc come from cores across the
// whole node (an interleaved or unbound process, or a node-shared
// structure) rather than from one bound socket.
func (c *Config) spansNode(loc Locality) bool {
	return loc != Local && loc != Remote
}

// hitLatency returns the average cache-hit latency. For a structure
// accessed from all sockets, read-mostly hot lines replicate into every
// socket's L3 (MESI shared state), so the portion of the structure that
// fits one L3 hits locally; the rest is found in a peer socket's cache —
// still faster than local DRAM (Molka et al., the paper's argument (d)
// for sharing in_queue).
func (c *Config) hitLatency(loc Locality, structBytes int64) float64 {
	if !c.spansNode(loc) {
		return c.L3LatencyNs
	}
	res := c.CacheResidency
	if res <= 0 || res > 1 {
		res = 1
	}
	localBytes := float64(c.L3Bytes) * res
	localFrac := 1.0
	if float64(structBytes) > localBytes {
		localFrac = localBytes / float64(structBytes)
	}
	return localFrac*c.L3LatencyNs + (1-localFrac)*c.RemoteCacheNs
}

// cacheCapacity returns the effective cache capacity available to a
// structure: one socket's L3 for a bound rank's private data, the whole
// node's L3s for anything accessed from all sockets (the paper's
// argument (b): sharing one in_queue enlarges its usable cache) — in
// both cases reduced to the CacheResidency share a single hot structure
// can defend against the other streams polluting the cache.
func (c *Config) cacheCapacity(loc Locality) int64 {
	cap := c.L3Bytes
	if c.spansNode(loc) {
		cap *= int64(c.SocketsPerNode)
	}
	res := c.CacheResidency
	if res <= 0 || res > 1 {
		res = 1
	}
	return int64(float64(cap) * res)
}

// HitRate returns the modelled cache hit rate for random accesses to a
// structure of structBytes at loc: min(1, capacity/size).
func (c *Config) HitRate(structBytes int64, loc Locality) float64 {
	if structBytes <= 0 {
		return 1
	}
	cap := c.cacheCapacity(loc)
	if cap >= structBytes {
		return 1
	}
	return float64(cap) / float64(structBytes)
}

// AccessLatency returns the average latency of one random access.
func (c *Config) AccessLatency(a Access) float64 {
	h := c.HitRate(a.StructBytes, a.Loc)
	return h*c.hitLatency(a.Loc, a.StructBytes) + (1-h)*c.missLatency(a.Loc)
}

// SharedAccessLatency generalizes AccessLatency to a structure shared by
// `sockets` of the node's sockets (1 = private and local, SocketsPerNode
// = fully node-shared): capacity aggregates over the sharing group, the
// locally fitting fraction of hits stays in the local L3 while the rest
// lands in peer caches, and misses mix local and remote DRAM in the
// sharing group's proportions. This is the model behind the
// sharing-degree ablation — the paper's closing question of how far
// sharing should go.
func (c *Config) SharedAccessLatency(structBytes int64, sockets int) float64 {
	if sockets < 1 {
		sockets = 1
	}
	if sockets > c.SocketsPerNode {
		sockets = c.SocketsPerNode
	}
	res := c.CacheResidency
	if res <= 0 || res > 1 {
		res = 1
	}
	cap := float64(c.L3Bytes) * float64(sockets) * res
	h := 1.0
	if float64(structBytes) > cap {
		h = cap / float64(structBytes)
	}
	localBytes := float64(c.L3Bytes) * res
	localFrac := 1.0
	if float64(structBytes) > localBytes {
		localFrac = localBytes / float64(structBytes)
	}
	hitLat := localFrac*c.L3LatencyNs + (1-localFrac)*c.RemoteCacheNs
	if sockets == 1 {
		hitLat = c.L3LatencyNs
	}
	s := float64(sockets)
	missLat := (c.LocalMemNs + (s-1)*c.RemoteMemNs) / s
	return h*hitLat + (1-h)*missLat
}

// qpiDerate returns the configured random-transfer efficiency of QPI.
func (c *Config) qpiDerate() float64 {
	if c.RandomQPIDerate <= 0 || c.RandomQPIDerate > 1 {
		return 1
	}
	return c.RandomQPIDerate
}

// randomBandwidth returns the cache-line bandwidth available to random
// misses at loc for a rank spanning socketsUsed sockets. Traffic that
// crosses QPI is derated: random remote lines move far less efficiently
// than streams (directory snoops, page misses).
func (c *Config) randomBandwidth(loc Locality, socketsUsed int) float64 {
	s := float64(c.SocketsPerNode)
	switch loc {
	case Local:
		return float64(socketsUsed) * c.MemBWPerSocket
	case SingleSocket:
		// All traffic converges on one memory controller.
		return c.MemBWPerSocket * c.qpiDerate()
	case Remote:
		return minf(c.QPIBW*c.qpiDerate(), c.MemBWPerSocket)
	case Interleaved, NodeShared:
		// All sockets' DRAM serves, but (s-1)/s of traffic crosses QPI;
		// the cross-section is half the links' aggregate, derated.
		mem := s * c.MemBWPerSocket
		qpi := s * c.QPIBW / 2 * c.qpiDerate()
		return minf(mem, qpi)
	default:
		return c.MemBWPerSocket
	}
}

// seqBandwidth returns the bandwidth for streaming (prefetchable)
// accesses, which cross QPI at full link efficiency.
func (c *Config) seqBandwidth(loc Locality, socketsUsed int) float64 {
	s := float64(c.SocketsPerNode)
	switch loc {
	case Local:
		return float64(socketsUsed) * c.MemBWPerSocket
	case SingleSocket:
		return c.MemBWPerSocket
	case Remote:
		return minf(c.QPIBW, c.MemBWPerSocket)
	case Interleaved, NodeShared:
		return minf(s*c.MemBWPerSocket, s*c.QPIBW/2)
	default:
		return c.MemBWPerSocket
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// shareBandwidth scales a node-wide bandwidth domain by the fraction a
// single rank receives when several co-located ranks compete for it.
// Socket-local bandwidth (Local) is private to the bound rank and is not
// shared.
func (c *Config) shareBandwidth(loc Locality, bw, bwShare float64) float64 {
	if loc == Local || bwShare <= 0 || bwShare >= 1 {
		return bw
	}
	return bw * bwShare
}

// PhaseTime returns the modelled wall time (ns) of a computation phase
// executed by `threads` cores spanning socketsUsed sockets, where the rank
// receives bwShare of any node-wide bandwidth domain it touches (1 for a
// rank that owns the node, 1/8 when eight unbound ranks compete). The
// phase is the max of a latency-limited term (each core sustains MLP
// outstanding misses) and a bandwidth-limited term (lines moved by misses
// plus streamed bytes over the available bandwidth), plus scalar CPU work.
func (c *Config) PhaseTime(load PhaseLoad, threads, socketsUsed int, bwShare float64) float64 {
	if threads < 1 {
		threads = 1
	}
	if socketsUsed < 1 {
		socketsUsed = 1
	}
	var latency float64   // core-ns of memory stall
	var lineBytes float64 // DRAM bytes moved by misses
	bw := 0.0
	for _, a := range load.Random {
		if a.Count == 0 {
			continue
		}
		latency += float64(a.Count) * c.AccessLatency(a)
		miss := 1 - c.HitRate(a.StructBytes, a.Loc)
		lb := float64(a.Count) * miss * float64(c.CacheLineBytes)
		lineBytes += lb
		// The tightest domain in the traffic mix limits the phase.
		b := c.shareBandwidth(a.Loc, c.randomBandwidth(a.Loc, socketsUsed), bwShare)
		if bw == 0 || b < bw {
			bw = b
		}
	}
	seqBW := c.shareBandwidth(load.SeqLoc, c.seqBandwidth(load.SeqLoc, socketsUsed), bwShare)
	// Streaming reads use open-page bandwidth; no latency term.
	var seqTime float64
	if load.SeqBytes > 0 {
		seqTime = float64(load.SeqBytes) / seqBW
	}
	latTime := latency / (float64(threads) * c.MLP)
	var bwTime float64
	if lineBytes > 0 && bw > 0 {
		bwTime = lineBytes / bw
	}
	memTime := latTime
	if bwTime > memTime {
		memTime = bwTime
	}
	cpuTime := float64(load.CPUOps) * c.CPUOpNs / float64(threads)
	return memTime + seqTime + cpuTime
}
