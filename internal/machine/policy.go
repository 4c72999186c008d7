package machine

import "fmt"

// Policy is one of the execution policies of Fig. 10: how many MPI ranks
// are spawned per node and how they (and their memory) are placed.
type Policy int

const (
	// PPN1NoFlag: one rank per node, no numactl/mpirun flags. All 64
	// threads run across the node, but the graph was first-touched on one
	// socket, so that socket's memory controller serves everything.
	PPN1NoFlag Policy = iota
	// PPN1Interleave: one rank per node with numactl --interleave=all;
	// the graph is spread over all sockets, 7/8 of accesses are remote.
	PPN1Interleave
	// PPN8NoFlag: one rank per socket but without binding; threads drift
	// across sockets, so accesses behave as interleaved and the eight
	// ranks compete for node-wide bandwidth.
	PPN8NoFlag
	// PPN8Bind: one rank per socket with --bind-to-socket --bysocket; the
	// paper's recommended mapping. Graph and private structures are local.
	PPN8Bind
)

// String implements fmt.Stringer using the paper's labels.
func (p Policy) String() string {
	switch p {
	case PPN1NoFlag:
		return "ppn=1.noflag"
	case PPN1Interleave:
		return "ppn=1.interleave"
	case PPN8NoFlag:
		return "ppn=8.noflag"
	case PPN8Bind:
		return "ppn=8.bind-to-socket"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PolicyNames maps the CLIs' -policy flag values to policies.
var PolicyNames = map[string]Policy{
	"noflag": PPN1NoFlag, "interleave": PPN1Interleave, "noflag8": PPN8NoFlag, "bind": PPN8Bind,
}

// Placement is the resolved execution geometry of a policy on a machine:
// how many ranks per node, how many modelled threads each runs, where the
// rank's structures live, and how node bandwidth is shared.
type Placement struct {
	Policy         Policy
	ProcsPerNode   int
	ThreadsPerProc int
	// GraphLoc is where a rank's share of the graph (CSR) lives.
	GraphLoc Locality
	// PrivateLoc is where the rank's private bitmaps (its own in_queue
	// copy, out_queue, parent array) live.
	PrivateLoc Locality
	// SocketsPerProc is the number of bandwidth domains a bound rank owns.
	SocketsPerProc int
	// BWShare is the fraction of node-wide bandwidth domains one rank
	// receives (1 when one rank owns the node; 1/ProcsPerNode when
	// unbound ranks compete).
	BWShare float64
	// Bound reports whether ranks are pinned to sockets.
	Bound bool
}

// PlacementFor resolves a policy on machine c.
func PlacementFor(c Config, p Policy) Placement {
	s := c.SocketsPerNode
	switch p {
	case PPN1NoFlag:
		return Placement{
			Policy: p, ProcsPerNode: 1, ThreadsPerProc: c.CoresPerNode(),
			GraphLoc: SingleSocket, PrivateLoc: SingleSocket,
			SocketsPerProc: s, BWShare: 1, Bound: false,
		}
	case PPN1Interleave:
		return Placement{
			Policy: p, ProcsPerNode: 1, ThreadsPerProc: c.CoresPerNode(),
			GraphLoc: Interleaved, PrivateLoc: Interleaved,
			SocketsPerProc: s, BWShare: 1, Bound: false,
		}
	case PPN8NoFlag:
		// Each rank's memory is first-touched on whatever socket its
		// allocating thread happened to run on, while its threads drift
		// across sockets: most accesses are remote over congested QPI,
		// and the drifting threads defeat cache replication.
		return Placement{
			Policy: p, ProcsPerNode: s, ThreadsPerProc: c.CoresPerSocket,
			GraphLoc: Remote, PrivateLoc: Remote,
			SocketsPerProc: s, BWShare: 1, Bound: false,
		}
	case PPN8Bind:
		return Placement{
			Policy: p, ProcsPerNode: s, ThreadsPerProc: c.CoresPerSocket,
			GraphLoc: Local, PrivateLoc: Local,
			SocketsPerProc: 1, BWShare: 1, Bound: true,
		}
	default:
		panic(fmt.Sprintf("machine: unknown policy %d", int(p)))
	}
}

// Procs returns the total number of ranks the placement spawns on c.
func (pl Placement) Procs(c Config) int { return c.Nodes * pl.ProcsPerNode }
