// Package chassis is everything the traversal engines (internal/bfs,
// internal/bfs2d, internal/msbfs) do around their level loops, written
// once: building the simulated world, the fault / observability
// plumbing, the kernel-1 epilogue, the per-rank phase ledger, the
// crash-recovery retry loop (a rerun from the roots by default) and the
// result every traversal reports. An engine embeds a Core in its Runner
// and a Ledger in its per-rank state and supplies what is particular to
// it — the partition and its membership, the frontier representation,
// the scan and exchange kernels, and any cheaper recovery it has.
package chassis

import (
	"numabfs/internal/fault"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
	"numabfs/internal/obs"
	"numabfs/internal/rmat"
)

// Core is the job-level half of an engine: the world of ranks, the graph
// instance, and what was injected into or attached to them.
type Core struct {
	W      *mpi.World
	Params rmat.Params
	// SetupNs is the virtual time of distributed construction (kernel 1).
	SetupNs float64

	// members appends the engine's member ledgers to buf in the order
	// their breakdowns are averaged; ledgers is its scratch.
	members func(buf []*Ledger) []*Ledger
	ledgers []*Ledger
	// faults is the active plan: checkpointing and the retry loop only
	// engage when it schedules a crash. crashes and mttrNs are the last
	// Run's crash report, which Finish copies into the result.
	faults  fault.Plan
	crashes []*mpi.FaultError
	mttrNs  float64
	// totalEdges is the number of stored directed adjacencies across all
	// members, the hybrid switch's "unexplored" baseline.
	totalEdges int64
}

// NewCore validates the machine and the graph parameters and builds the
// world under the placement policy. members enumerates the engine's
// ledgers (see Core.members).
func NewCore(cfg machine.Config, policy machine.Policy, params rmat.Params, members func([]*Ledger) []*Ledger) (Core, error) {
	if err := cfg.Validate(); err != nil {
		return Core{}, err
	}
	if err := params.Validate(); err != nil {
		return Core{}, err
	}
	w := mpi.NewWorld(cfg, machine.PlacementFor(cfg, policy))
	return Core{W: w, Params: params, members: members}, nil
}

// AttachObs routes the world through an observability session: per-rank
// span timelines, collective spans and communication counters
// (internal/obs). Call before Setup so construction is recorded too.
// Tracing never advances virtual time — results are identical with and
// without a session.
func (c *Core) AttachObs(s *obs.Session) { c.W.AttachObs(s) }

// InjectFaults installs a deterministic fault plan (internal/fault) for
// all subsequent traversals: bandwidth degradation, stragglers, jitter
// and lossy links perturb the modelled times; a scheduled rank crash
// additionally arms Run's recovery (the 1-D engine's checkpoints, else a
// rerun from the roots) so the traversal completes instead of panicking.
// Call after Setup — construction (kernel 1) runs unperturbed, as the
// paper's perturbation study targets the traversal. The machine's
// configured weak node persists underneath the plan.
func (c *Core) InjectFaults(plan fault.Plan) error {
	if err := c.W.InjectFaults(plan); err != nil {
		return err
	}
	c.faults = plan
	return nil
}

// CrashPlanned reports whether the active plan schedules a rank crash.
// Checkpoint copies have a modelled cost, so an engine pays them only
// then: without a crash to survive they would perturb every result.
func (c *Core) CrashPlanned() bool { return len(c.faults.Crashes) > 0 }

// EndSetup closes kernel 1: the construction time is recorded, the
// clocks restart at zero for the first traversal, and totalEdges (stored
// directed adjacencies across all members) is kept for the hybrid switch.
func (c *Core) EndSetup(totalEdges int64) {
	c.SetupNs = c.W.MaxClock()
	c.W.ResetClocks()
	c.totalEdges = totalEdges
}

// DefaultAlpha and DefaultBeta are the hybrid switch thresholds of every
// engine: the 1-D engines start from them (bfs.DefaultOptions) and the
// 2-D engine always uses them. Beamer's published alpha is 14; 30 fires
// the switch at laptop scales at the same point of the frontier's growth
// curve as the paper observes at scale 28-32 — one level earlier,
// entering the bottom-up procedure while in_queue is still sparse, the
// regime in which in_queue_summary is worth its keep (Section III.C).
// Beta is Beamer's 24.
const (
	DefaultAlpha = 30.0
	DefaultBeta  = 24.0
)

// GoBottomUp is the top-down -> bottom-up hand-over, Beamer-style: only
// while the frontier (nf, with mf edges) still grows — in the final
// shrinking levels the unexplored-edge count is tiny and the threshold
// would otherwise flap back and forth — and once its edges exceed the
// unexplored ones / alpha.
func (c *Core) GoBottomUp(nf, prevNf, mf, visitedEdges int64, alpha float64) bool {
	return nf > prevNf && float64(mf) > float64(c.totalEdges-visitedEdges)/alpha
}

// GoTopDown is the way back: the frontier fell below vertices / beta.
func (c *Core) GoTopDown(nf int64, beta float64) bool {
	return float64(nf) < float64(c.Params.NumVertices())/beta
}

// ReownCostNs prices pulling `bytes` of a dead rank's node-scratch state
// to dstNode: shared-memory copy bandwidth on the same node, one NIC
// stream plus the inter-node latency across nodes.
func (c *Core) ReownCostNs(bytes int64, srcNode, dstNode int) float64 {
	cfg := c.W.Config()
	if srcNode == dstNode {
		return float64(bytes) / cfg.ShmCopyBW
	}
	return cfg.InterNodeAlphaNs + float64(bytes)/cfg.PerStreamBW
}

// current returns the engine's member ledgers as of now (a shrink or a
// promotion between attempts changes them).
func (c *Core) current() []*Ledger {
	c.ledgers = c.members(c.ledgers[:0])
	return c.ledgers
}

// Run drives one traversal to completion. Clocks restart at zero; first
// runs on every live rank. When a planned rank crash aborts an attempt,
// the crash is disarmed, the detection floor is derived — permanent
// deaths are observed when the dead rank's last heartbeat lease expires,
// transient ones keep the flat timeout — and repair (may be nil)
// performs the engine's surgery (spare promotion, shrink) and returns
// what each rank resumes with, clocks no earlier than the floor. Without
// a resume, every member is marked with the floor and first reruns from
// the roots (see Ledger.Reset). Anything else is re-raised: a
// programming bug, a dead link (replaying past an exhausted link would
// exhaust it again) or more failures than the plan schedules. Finish
// reports the crashes survived and their repair time.
func (c *Core) Run(first func(p *mpi.Proc), repair func(f *mpi.FaultError, floor float64) (resume func(p *mpi.Proc))) {
	c.W.ResetClocks()
	c.crashes, c.mttrNs = nil, 0
	for _, l := range c.current() {
		l.begin()
	}
	err := c.W.TryRun(first)
	for attempt := 0; err != nil; attempt++ {
		f, ok := err.(*mpi.FaultError)
		if !ok || f.Kind != fault.KindCrash || attempt >= len(c.faults.Crashes) {
			panic(err)
		}
		c.crashes = append(c.crashes, f)
		inj := c.W.Injector()
		inj.Disarm(f.Rank, f.AtNs)
		floor := f.AtNs + inj.DetectTimeoutNs()
		if f.Permanent {
			floor = inj.DetectionTimeNs(f.AtNs)
			c.W.Proc(f.Rank).Obs().FaultEvent("detect", floor)
		}
		var resume func(p *mpi.Proc)
		if repair != nil {
			resume = repair(f, floor)
		}
		// MTTR: detection latency plus the longest re-own transfer any
		// member has parked for its resume.
		var maxReown float64
		for _, l := range c.current() {
			maxReown = max(maxReown, l.reownNs)
			if resume == nil {
				l.rerunFloor = floor
			}
		}
		if resume == nil {
			resume = first
		}
		c.mttrNs += (floor - f.AtNs) + maxReown
		c.W.PrepareRecovery()
		err = c.W.TryRun(resume)
	}
}
