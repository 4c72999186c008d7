// Package machine models the NUMA cluster hardware of the paper's Table I:
// nodes of eight Intel Xeon X7550 sockets joined by QPI, each socket with
// eight cores, a shared 18 MB L3 and four populated DDR3 channels, and two
// 40 Gb/s InfiniBand ports per node.
//
// The repository runs the real hybrid-BFS algorithm on real R-MAT graphs,
// but time is *modelled*: computation phases are charged according to the
// memory accesses they perform and where the touched structures live
// (local socket, remote socket, interleaved, or shared across a node), and
// communication is charged by an alpha-beta model over this topology. The
// paper's results are ratios driven by exactly these parameters, so a
// calibrated model reproduces their shape without the 1,024-core testbed.
package machine

import (
	"fmt"
	"strings"
)

// Config describes one cluster configuration. Bandwidths are in bytes/ns
// (numerically equal to GB/s), latencies in ns, capacities in bytes.
type Config struct {
	// Topology.
	Nodes          int // cluster nodes (16 in the paper's testbed)
	SocketsPerNode int // CPU sockets per node (8)
	CoresPerSocket int // cores per socket, SMT disabled (8)

	// Per-socket memory hierarchy.
	L3Bytes        int64   // shared L3 capacity per socket
	CacheLineBytes int64   // cache line size
	L3LatencyNs    float64 // load-to-use latency of the local L3
	RemoteCacheNs  float64 // latency to a line cached in another socket's L3
	LocalMemNs     float64 // local DRAM latency (through Intel SMB)
	RemoteMemNs    float64 // DRAM on another socket via QPI (multi-hop avg)
	MemBWPerSocket float64 // sustainable DRAM bandwidth per socket
	QPIBW          float64 // one QPI link, per direction
	MLP            float64 // outstanding misses a core sustains
	// RandomQPIDerate is the efficiency of random cache-line transfers
	// crossing QPI relative to the links' streaming bandwidth: directory
	// snoops and open-page misses make random remote traffic far less
	// efficient than bulk copies.
	RandomQPIDerate float64
	// CacheResidency is the fraction of L3 one hot structure can
	// actually hold against pollution from the other streams (graph
	// adjacency, parent array) sharing the cache.
	CacheResidency float64

	// Node interconnect (intra-node MPI path through shared memory).
	ShmCopyBW        float64 // effective large-copy bandwidth between ranks of a node
	IntraNodeAlphaNs float64 // per-message overhead for intra-node MPI

	// Network.
	IBPorts          int     // InfiniBand ports per node
	IBPortBW         float64 // one port, per direction
	PerStreamBW      float64 // max bandwidth a single rank's stream can drive
	InterNodeAlphaNs float64 // per-message overhead for inter-node MPI

	// AllgatherRingThreshold is the library's algorithm switch point for
	// allgather (Thakur-Gropp): recursive doubling below it, ring at or
	// above it. The in_queue allgather is far above it at paper scales.
	AllgatherRingThreshold int64

	// Core.
	ClockGHz float64
	CPUOpNs  float64 // cost of a simple ALU/branch operation

	// WeakNode reproduces the testbed's one ill-performing node ("there
	// is one weak node in the 16 nodes, the communication performance of
	// which is weak ... due to unknown reason"). Transfers touching this
	// node run at WeakNodeBWFactor of normal bandwidth. -1 disables it.
	WeakNode         int
	WeakNodeBWFactor float64
}

// TableI returns the paper's node configuration (Table I) as a 16-node
// cluster model. Latency and bandwidth figures follow the paper's cited
// sources for Nehalem-EX class parts: local DRAM through the SMB is slow
// (~130 ns), a remote socket's cache is faster than local memory
// (Molka et al. [35]), and multi-hop QPI DRAM is roughly 2.6x local.
// The two IB ports give 10 GB/s per node, but a single rank's stream can
// only drive about half of it — the observation behind Fig. 4.
func TableI() Config {
	return Config{
		Nodes:          16,
		SocketsPerNode: 8,
		CoresPerSocket: 8,

		L3Bytes:         18 << 20,
		CacheLineBytes:  64,
		L3LatencyNs:     18,
		RemoteCacheNs:   110,
		LocalMemNs:      130,
		RemoteMemNs:     260,
		MemBWPerSocket:  17.1,
		QPIBW:           12.8,
		MLP:             4,
		RandomQPIDerate: 0.35,
		CacheResidency:  0.3,

		ShmCopyBW:        12.0,
		IntraNodeAlphaNs: 600,

		IBPorts:          2,
		IBPortBW:         5.0, // 40 Gb/s
		PerStreamBW:      2.6, // one rank's stream drives about one port (Fig. 4)
		InterNodeAlphaNs: 2000,

		AllgatherRingThreshold: 512 << 10,

		ClockGHz: 2.0,
		CPUOpNs:  0.5,

		WeakNode:         15,
		WeakNodeBWFactor: 0.8,
	}
}

// Scaled returns TableI adjusted to run a graph of runScale in place of
// the paper's experiment at paperScale (28 on one node up to 32 on
// sixteen, weak scaling). Structure sizes shrink by 2^(paperScale -
// runScale), so the per-socket cache shrinks by the same factor to keep
// the working-set : cache ratios (in_queue : L3 : summary) that drive
// the cache-locality results (Figs. 11 and 16). Per-message overheads,
// negligible against paper-scale phase times, shrink by the same factor
// so they stay negligible against the proportionally smaller phases.
// Communication bytes and edge counts scale linearly with |V|, so their
// ratios are preserved automatically and need no adjustment.
func Scaled(runScale, paperScale int) Config {
	c := TableI()
	if runScale < paperScale {
		shift := uint(paperScale - runScale)
		c.L3Bytes >>= shift
		if c.L3Bytes < 64 {
			c.L3Bytes = 64
		}
		f := 1 / float64(int64(1)<<shift)
		c.IntraNodeAlphaNs *= f
		c.InterNodeAlphaNs *= f
		// The algorithm switch point must shrink with the payloads, or a
		// scaled run would recursive-double a bitmap whose paper-scale
		// counterpart the library would ring.
		c.AllgatherRingThreshold >>= shift
		if c.AllgatherRingThreshold < 8 {
			c.AllgatherRingThreshold = 8
		}
	}
	return c
}

// WithNodes returns a copy of c using n nodes (for weak-scaling sweeps).
func (c Config) WithNodes(n int) Config {
	c.Nodes = n
	return c
}

// CoresPerNode returns the number of cores in one node.
func (c Config) CoresPerNode() int { return c.SocketsPerNode * c.CoresPerSocket }

// TotalCores returns the number of cores in the cluster.
func (c Config) TotalCores() int { return c.Nodes * c.CoresPerNode() }

// NodeIBBandwidth returns the aggregate InfiniBand bandwidth of one node.
func (c *Config) NodeIBBandwidth() float64 { return float64(c.IBPorts) * c.IBPortBW }

// StreamBandwidth returns the per-stream inter-node bandwidth when k
// same-node ranks drive the NIC concurrently: the node total is
// min(k * PerStreamBW, NodeIBBandwidth), shared equally. This is the
// model behind Fig. 4 — one rank per node only reaches about half of the
// two-port peak, while eight concurrent ranks saturate it.
func (c *Config) StreamBandwidth(k int) float64 {
	if k < 1 {
		k = 1
	}
	total := float64(k) * c.PerStreamBW
	if peak := c.NodeIBBandwidth(); total > peak {
		total = peak
	}
	return total / float64(k)
}

// Validate reports a configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("machine: Nodes = %d, need >= 1", c.Nodes)
	case c.SocketsPerNode < 1:
		return fmt.Errorf("machine: SocketsPerNode = %d, need >= 1", c.SocketsPerNode)
	case c.CoresPerSocket < 1:
		return fmt.Errorf("machine: CoresPerSocket = %d, need >= 1", c.CoresPerSocket)
	case c.L3Bytes <= 0:
		return fmt.Errorf("machine: L3Bytes = %d, need > 0", c.L3Bytes)
	case c.MemBWPerSocket <= 0 || c.QPIBW <= 0 || c.ShmCopyBW <= 0 ||
		c.IBPortBW <= 0 || c.PerStreamBW <= 0:
		return fmt.Errorf("machine: bandwidths must be positive")
	case c.L3LatencyNs <= 0 || c.LocalMemNs <= 0 || c.RemoteMemNs <= 0 || c.RemoteCacheNs <= 0:
		return fmt.Errorf("machine: latencies must be positive")
	case c.MLP <= 0:
		return fmt.Errorf("machine: MLP must be positive")
	case c.IBPorts < 1:
		return fmt.Errorf("machine: IBPorts = %d, need >= 1", c.IBPorts)
	case c.WeakNode >= 0 && (c.WeakNodeBWFactor <= 0 || c.WeakNodeBWFactor > 1):
		// Reject rather than clamp: a typo like 80 for 0.8 would
		// otherwise silently disable the weak node.
		return fmt.Errorf("machine: WeakNodeBWFactor = %g, need in (0, 1] when WeakNode is set", c.WeakNodeBWFactor)
	}
	return nil
}

// Table1String renders the node configuration in the style of Table I.
func (c Config) Table1String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPUs:    %d sockets per node, %d cores each @ %.1f GHz (SMT off)\n",
		c.SocketsPerNode, c.CoresPerSocket, c.ClockGHz)
	fmt.Fprintf(&b, "         %.0f MB shared L3 per socket, %d B lines\n",
		float64(c.L3Bytes)/(1<<20), c.CacheLineBytes)
	fmt.Fprintf(&b, "Memory:  %.1f GB/s peak per socket; local %.0f ns, remote %.0f ns, remote cache %.0f ns\n",
		c.MemBWPerSocket, c.LocalMemNs, c.RemoteMemNs, c.RemoteCacheNs)
	fmt.Fprintf(&b, "QPI:     %.1f GB/s per link per direction\n", c.QPIBW)
	fmt.Fprintf(&b, "Network: %dx %.0f Gb/s InfiniBand per node (%.1f GB/s aggregate, %.1f GB/s per stream)\n",
		c.IBPorts, c.IBPortBW*8, c.NodeIBBandwidth(), c.PerStreamBW)
	fmt.Fprintf(&b, "Cluster: %d nodes, %d cores total\n", c.Nodes, c.TotalCores())
	return b.String()
}
