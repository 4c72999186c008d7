// Package fault defines deterministic fault-injection plans for the
// simulated NUMA cluster: scheduled bandwidth degradation of nodes or
// individual links (including transient NIC brown-outs), straggler
// ranks whose computation runs slow by a constant factor, per-message
// latency jitter, rank crashes at a chosen virtual time, and lossy
// links (Loss) whose frames drop, duplicate, reorder or corrupt —
// served by the reliable transport under internal/mpi.
//
// A Plan is pure data — JSON-serializable so cmd/bfsbench can load one
// from a file — and everything it injects is a function of the plan, its
// seed, and virtual time only. Two runs of the same workload under the
// same plan produce bit-identical virtual-time results regardless of
// host scheduling or core count, exactly like the unperturbed simulator.
// A plan without events is guaranteed to be a no-op: every hook
// short-circuits before touching a float, so results are bit-identical
// to a build without injection support.
//
// The paper's one "ill-performing node" (Config.WeakNode, excluded from
// Figs. 13-14 in the original evaluation) is the degenerate case: a
// single permanent node-scoped bandwidth event, see WeakNode.
package fault

import (
	"fmt"
	"math"

	"numabfs/internal/xrand"
)

// Failure-detector and reliable-transport constants. Crash recovery
// waits DetectTimeoutNs after a transient death before it begins: the
// time between a rank dying and the survivors observing the loss (MPI
// implementations detect peer death through transport timeouts). A
// permanent death is detected by lease instead: ranks renew a lease
// every HeartbeatPeriodNs, four missed beats per lease, see
// DetectionTimeNs. The retransmission timeout is an order of magnitude
// above the inter-node round trip (2 x 2000 ns alpha plus transfer
// time), so a healthy link never times out spuriously; the backoff
// multiplies the timeout per retry; the retry budget bounds the total
// transmissions of one frame before the sender declares the link dead.
const (
	DetectTimeoutNs     = 1e6
	HeartbeatPeriodNs   = DetectTimeoutNs / 4
	RetransmitTimeoutNs = 20e3
	RetransmitBackoff   = 2.0
	RetryBudget         = 16
)

// BWEvent degrades bandwidth on part of the interconnect during a
// virtual-time window. Node-scoped events (Node >= 0) affect every
// inter-node transfer with an endpoint on that node — the weak-node /
// NIC-brown-out shape; link-scoped events (Node < 0) match transfers
// from Src to Dst, either of which may be -1 for "any". Intra-node
// (shared-memory) traffic is never affected: the faults modelled here
// live on the network path. Overlapping active events multiply.
type BWEvent struct {
	Node    int     `json:"node"`               // >= 0: either endpoint on this node
	Src     int     `json:"src"`                // link scope when Node < 0; -1 = any
	Dst     int     `json:"dst"`                // link scope when Node < 0; -1 = any
	Factor  float64 `json:"factor"`             // bandwidth multiplier in (0, 1]
	FromNs  float64 `json:"from_ns"`            // window start (virtual ns)
	UntilNs float64 `json:"until_ns,omitempty"` // window end; <= 0 means forever
}

// active reports whether the event applies to a transfer from srcNode to
// dstNode beginning at virtual time `at`.
func (e *BWEvent) active(srcNode, dstNode int, at float64) bool {
	return scopeActive(e.Node, e.Src, e.Dst, e.FromNs, e.UntilNs, srcNode, dstNode, at)
}

// scopeActive implements the shared event-scope matcher: node scope
// (node >= 0, either endpoint), link scope (node < 0, -1 wildcards) and
// the [from, until) virtual-time window with until <= 0 meaning forever.
func scopeActive(node, src, dst int, fromNs, untilNs float64, srcNode, dstNode int, at float64) bool {
	if at < fromNs || (untilNs > 0 && at >= untilNs) {
		return false
	}
	if node >= 0 {
		return srcNode == node || dstNode == node
	}
	return (src < 0 || src == srcNode) && (dst < 0 || dst == dstNode)
}

// Loss makes part of the interconnect unreliable during a virtual-time
// window: inter-node messages crossing a matching link are dropped,
// duplicated, delivered out of order, or bit-corrupted in transit with
// the given per-message probabilities, forcing the reliable transport
// under internal/mpi to earn delivery through CRCs, acks and
// retransmission. Scope and window follow BWEvent exactly (Node >= 0:
// either endpoint on that node; Node < 0: Src->Dst link with -1
// wildcards; UntilNs <= 0: forever). Intra-node traffic crosses shared
// memory and is never lossy. Where events overlap, drop / duplicate /
// corrupt / reorder probabilities combine as independent hazards
// (1 - prod(1 - p)) and the largest reorder window wins.
//
// An event whose probabilities are all zero still activates the
// transport on its links — sequence numbers, CRCs and acks are charged
// even though nothing is ever lost — which is how the loss sweep
// isolates pure protocol overhead.
type Loss struct {
	Node int `json:"node"`
	Src  int `json:"src"`
	Dst  int `json:"dst"`

	DropProb    float64 `json:"drop_prob,omitempty"`    // frame vanishes in transit
	DupProb     float64 `json:"dup_prob,omitempty"`     // frame delivered twice
	CorruptProb float64 `json:"corrupt_prob,omitempty"` // payload bit flip; CRC catches it, handled as a drop
	ReorderProb float64 `json:"reorder_prob,omitempty"` // frame overtaken; held for resequencing

	// ReorderWindow bounds how many later frames may overtake a reordered
	// one (the resequencing hold is up to ReorderWindow frame slots).
	// Required >= 1 when ReorderProb > 0.
	ReorderWindow int `json:"reorder_window,omitempty"`

	FromNs  float64 `json:"from_ns"`
	UntilNs float64 `json:"until_ns,omitempty"`
}

// active reports whether the event applies to a frame from srcNode to
// dstNode sent at virtual time `at`.
func (e *Loss) active(srcNode, dstNode int, at float64) bool {
	return scopeActive(e.Node, e.Src, e.Dst, e.FromNs, e.UntilNs, srcNode, dstNode, at)
}

// LinkLoss is the combined unreliability of one link at one virtual
// time, as seen by the transport: the per-frame event probabilities and
// the reorder window. The zero LinkLoss is a clean (but still
// transport-framed) link.
type LinkLoss struct {
	Drop    float64
	Dup     float64
	Corrupt float64
	Reorder float64
	Window  int
}

// Straggler multiplies one rank's computation cost: every Proc.Compute
// charge on that rank is scaled by Factor (> 1 slows the rank down).
// Multiple entries for one rank multiply.
type Straggler struct {
	Rank   int     `json:"rank"`
	Factor float64 `json:"factor"`
}

// Crash kills a rank at a virtual time: the rank dies at the first
// operation boundary where its clock reaches AtNs (a long computation
// crossing AtNs is truncated at it). The job aborts with a structured
// *Error instead of an opaque panic, and the caller can recover by
// rerunning the traversal from its roots.
//
// Permanent marks the rank as never coming back: a transient crash
// (the default) restarts the same rank, while a permanent one is
// detected only when the rank's heartbeat lease expires, and a parked
// hot spare on its node takes its place when one is reserved
// (bfs.Options.SpareRanks); otherwise it reruns in place.
type Crash struct {
	Rank      int     `json:"rank"`
	AtNs      float64 `json:"at_ns"`
	Permanent bool    `json:"permanent,omitempty"`
}

// Plan is one deterministic perturbation schedule. The zero Plan
// injects nothing.
type Plan struct {
	// Seed drives the jitter hash; unrelated to graph-generation seeds.
	Seed uint64 `json:"seed,omitempty"`

	BW         []BWEvent   `json:"bw,omitempty"`
	Stragglers []Straggler `json:"stragglers,omitempty"`

	// JitterMaxNs adds a deterministic pseudo-random latency in
	// [0, JitterMaxNs) to every point-to-point message, drawn by hashing
	// the message identity with Seed.
	JitterMaxNs float64 `json:"jitter_max_ns,omitempty"`

	// Crashes kill ranks, at most one crash per rank.
	Crashes []Crash `json:"crashes,omitempty"`

	// Loss makes links unreliable; any entry (even all-zero
	// probabilities) switches the reliable transport on for inter-node
	// point-to-point traffic.
	Loss []Loss `json:"loss,omitempty"`
}

// Bounds on a plan's multipliers, so that no finite plan drives a
// virtual clock to +Inf or NaN: a bandwidth factor at least MinBWFactor
// (and all of a plan's together, were they to overlap, at least
// MinBWProduct), a rank's straggler factors together within
// [1/MaxComputeScale, MaxComputeScale], and at most MaxJitterNs of
// jitter per message. Every figure and test plan is far inside them.
const (
	MinBWFactor     = 1e-6
	MinBWProduct    = 1e-150
	MaxComputeScale = 1e6
	MaxJitterNs     = 1e12
)

// Validate checks the plan against a world of `ranks` ranks. Bandwidth
// factors outside [MinBWFactor, 1] are rejected here — never silently
// clamped — so a typo like 80 instead of 0.8 fails loudly instead of
// disabling the event, and so do multipliers past the bounds above.
// Node indices beyond the configured cluster are allowed (a 16-node
// plan applied to a 4-node run simply never matches, the historical
// WeakNode semantics); rank-scoped entries must name real ranks because
// they index per-rank state, and a rank crashes at most once.
func (p Plan) Validate(ranks int) error {
	bwProduct := 1.0
	for i, e := range p.BW {
		if !(e.Factor >= MinBWFactor && e.Factor <= 1) {
			return fmt.Errorf("fault: bw event %d: factor %g outside [%g, 1]", i, e.Factor, MinBWFactor)
		}
		if bwProduct *= e.Factor; bwProduct < MinBWProduct {
			return fmt.Errorf("fault: bw events 0-%d: factors multiply to %g, below %g", i, bwProduct, MinBWProduct)
		}
		if e.FromNs < 0 {
			return fmt.Errorf("fault: bw event %d: negative start %g", i, e.FromNs)
		}
		if e.UntilNs > 0 && e.UntilNs <= e.FromNs {
			return fmt.Errorf("fault: bw event %d: window [%g, %g) is empty", i, e.FromNs, e.UntilNs)
		}
	}
	for i, s := range p.Stragglers {
		if s.Rank < 0 || s.Rank >= ranks {
			return fmt.Errorf("fault: straggler %d: rank %d outside [0, %d)", i, s.Rank, ranks)
		}
		scale := s.Factor
		for _, o := range p.Stragglers[:i] {
			if o.Rank == s.Rank {
				scale *= o.Factor
			}
		}
		if !(scale >= 1/MaxComputeScale && scale <= MaxComputeScale) {
			return fmt.Errorf("fault: straggler %d: rank %d's factors multiply to %g, outside [%g, %g]",
				i, s.Rank, scale, 1/MaxComputeScale, MaxComputeScale)
		}
	}
	if !(p.JitterMaxNs >= 0 && p.JitterMaxNs <= MaxJitterNs) {
		return fmt.Errorf("fault: JitterMaxNs %g outside [0, %g]", p.JitterMaxNs, MaxJitterNs)
	}
	for i, c := range p.Crashes {
		if c.Rank < 0 || c.Rank >= ranks {
			return fmt.Errorf("fault: crash %d: rank %d outside [0, %d)", i, c.Rank, ranks)
		}
		if c.AtNs < 0 {
			return fmt.Errorf("fault: crash %d: negative time %g", i, c.AtNs)
		}
		for j, d := range p.Crashes[:i] {
			if d.Rank == c.Rank {
				return fmt.Errorf("fault: crash %d: rank %d already crashes in crash %d (one crash per rank)", i, c.Rank, j)
			}
		}
	}
	for i, e := range p.Loss {
		for _, f := range [...]struct {
			name string
			p    float64
		}{
			{"drop_prob", e.DropProb},
			{"dup_prob", e.DupProb},
			{"corrupt_prob", e.CorruptProb},
			{"reorder_prob", e.ReorderProb},
		} {
			if f.p < 0 || f.p > 1 {
				return fmt.Errorf("fault: loss event %d: %s %g outside [0, 1]", i, f.name, f.p)
			}
		}
		if e.ReorderWindow < 0 {
			return fmt.Errorf("fault: loss event %d: negative reorder window %d", i, e.ReorderWindow)
		}
		if e.ReorderProb > 0 && e.ReorderWindow < 1 {
			return fmt.Errorf("fault: loss event %d: reorder_prob %g needs reorder_window >= 1",
				i, e.ReorderProb)
		}
		if e.FromNs < 0 {
			return fmt.Errorf("fault: loss event %d: negative start %g", i, e.FromNs)
		}
		if e.UntilNs > 0 && e.UntilNs <= e.FromNs {
			return fmt.Errorf("fault: loss event %d: window [%g, %g) is empty", i, e.FromNs, e.UntilNs)
		}
	}
	return nil
}

// WeakNode returns the plan equivalent of machine.Config's WeakNode
// field: every inter-node transfer touching the node runs at factor of
// normal bandwidth, permanently. A negative node returns the empty
// plan, matching the config's -1-disables convention.
func WeakNode(node int, factor float64) Plan {
	if node < 0 {
		return Plan{}
	}
	return Plan{BW: []BWEvent{{Node: node, Src: -1, Dst: -1, Factor: factor}}}
}

// Lossy returns a plan that makes every inter-node link unreliable at
// the given per-frame drop rate, with duplication, corruption and
// bounded reordering scaled from it — the canonical shape the loss
// sweep (experiments.ExtLoss) and the README examples use. rate 0
// still activates the transport (protocol overhead, no loss).
func Lossy(seed uint64, rate float64) Plan {
	return Plan{
		Seed: seed,
		Loss: []Loss{{
			Node: -1, Src: -1, Dst: -1,
			DropProb:      rate,
			DupProb:       rate / 2,
			CorruptProb:   rate / 4,
			ReorderProb:   rate,
			ReorderWindow: 4,
		}},
	}
}

// ErrorKind distinguishes the modelled failures an Error can carry.
type ErrorKind int

const (
	// KindCrash is a scheduled rank death (Plan.Crashes) — recoverable
	// by a rerun from the roots, because the rank (or a spare) restarts.
	KindCrash ErrorKind = iota
	// KindLinkLoss is a reliable-transport retry-budget exhaustion: a
	// link so lossy the sender declared its peer unreachable. Not
	// recoverable by a rerun — the link stays dead.
	KindLinkLoss
)

// Error is the structured failure a fault injection produces — the
// replacement for an opaque abort panic, so callers can tell a modelled
// fault from a programming bug and decide whether to recover.
type Error struct {
	Rank int       // the rank that died or gave up
	AtNs float64   // the failure's virtual time
	Kind ErrorKind // what happened; zero value is KindCrash
	// Permanent marks a crash whose rank never returns (Crash.Permanent):
	// recovery promotes a spare into its place when one is parked.
	Permanent bool
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Kind == KindLinkLoss {
		return fmt.Sprintf("fault: rank %d exhausted its retry budget at %.0f virtual ns (link peer unreachable)", e.Rank, e.AtNs)
	}
	if e.Permanent {
		return fmt.Sprintf("fault: rank %d died permanently at %.0f virtual ns", e.Rank, e.AtNs)
	}
	return fmt.Sprintf("fault: rank %d crashed at %.0f virtual ns", e.Rank, e.AtNs)
}

// crashEvent is one rank's scheduled crash with its armed state: a
// rank without a crash, or whose crash was recovered from, is disarmed.
type crashEvent struct {
	at        float64
	armed     bool
	permanent bool
}

// Injector is a Plan compiled for one world. All query methods are safe
// on a nil receiver (returning the identity), cheap when the relevant
// perturbation is absent, and read-only during a run — the only
// mutation, Disarm, happens between recovery attempts when no rank
// goroutine is live.
type Injector struct {
	plan    Plan
	scale   []float64    // per-rank compute multiplier; nil without stragglers
	crashes []crashEvent // indexed by rank; nil without crashes
}

// NewInjector compiles plan for a world of `ranks` ranks. Plans without
// rank-scoped entries (stragglers, crashes) may pass ranks == 0.
func NewInjector(plan Plan, ranks int) (*Injector, error) {
	if err := plan.Validate(ranks); err != nil {
		return nil, err
	}
	in := &Injector{plan: plan}
	if len(plan.Stragglers) > 0 {
		in.scale = make([]float64, ranks)
		for i := range in.scale {
			in.scale[i] = 1
		}
		for _, s := range plan.Stragglers {
			in.scale[s.Rank] *= s.Factor
		}
	}
	if len(plan.Crashes) > 0 {
		in.crashes = make([]crashEvent, ranks)
		for _, c := range plan.Crashes {
			in.crashes[c.Rank] = crashEvent{at: c.AtNs, armed: true, permanent: c.Permanent}
		}
	}
	return in, nil
}

// LinkFactor returns the bandwidth multiplier for an inter-node
// transfer from srcNode to dstNode beginning at virtual time `at`: the
// product of all matching active events, or exactly 1 when none match.
func (in *Injector) LinkFactor(srcNode, dstNode int, at float64) float64 {
	if in == nil || len(in.plan.BW) == 0 {
		return 1
	}
	f := 1.0
	for i := range in.plan.BW {
		if in.plan.BW[i].active(srcNode, dstNode, at) {
			f *= in.plan.BW[i].Factor
		}
	}
	return f
}

// ComputeScale returns the rank's computation-cost multiplier (exactly
// 1 for non-stragglers).
func (in *Injector) ComputeScale(rank int) float64 {
	if in == nil || in.scale == nil {
		return 1
	}
	return in.scale[rank]
}

// JitterNs returns the deterministic latency jitter of one message,
// uniform in [0, JitterMaxNs), or exactly 0 when jitter is off. The
// draw hashes the message identity (endpoints, sender post time, size)
// with the plan seed rather than consuming a stateful stream, so it
// depends only on virtual time — never on delivery order or on how far
// an aborted attempt got before a crash recovery.
func (in *Injector) JitterNs(src, dst int, sentNs float64, bytes int64) float64 {
	if in == nil || in.plan.JitterMaxNs <= 0 {
		return 0
	}
	h := in.plan.Seed
	h ^= uint64(src)*0x9e3779b97f4a7c15 + uint64(dst)*0xbf58476d1ce4e5b9
	h ^= math.Float64bits(sentNs) + uint64(bytes)
	u := xrand.NewSplitMix64(h).Uint64()
	return in.plan.JitterMaxNs * (float64(u>>11) / (1 << 53))
}

// Reliable reports whether the plan activates the reliable transport:
// any Loss event, even one with all-zero probabilities, turns framing,
// acks and retransmission on for inter-node point-to-point traffic.
func (in *Injector) Reliable() bool {
	return in != nil && len(in.plan.Loss) > 0
}

// Replayable reports whether every message's fate follows from virtual
// time alone, with no rank dying or frame lost on the way: the plan has
// no crash and no lossy link. A collective may then be replayed from
// its members' entry clocks instead of run as messages (mpi.Gate).
func (in *Injector) Replayable() bool {
	return in == nil || (len(in.plan.Crashes) == 0 && len(in.plan.Loss) == 0)
}

// LossAt returns the combined unreliability of the srcNode -> dstNode
// link for a frame sent at virtual time `at`. Overlapping events
// combine as independent hazards; the widest reorder window wins.
func (in *Injector) LossAt(srcNode, dstNode int, at float64) LinkLoss {
	var l LinkLoss
	if in == nil {
		return l
	}
	keepDrop, keepDup, keepCorrupt, keepReorder := 1.0, 1.0, 1.0, 1.0
	for i := range in.plan.Loss {
		e := &in.plan.Loss[i]
		if !e.active(srcNode, dstNode, at) {
			continue
		}
		keepDrop *= 1 - e.DropProb
		keepDup *= 1 - e.DupProb
		keepCorrupt *= 1 - e.CorruptProb
		keepReorder *= 1 - e.ReorderProb
		if e.ReorderWindow > l.Window {
			l.Window = e.ReorderWindow
		}
	}
	l.Drop = 1 - keepDrop
	l.Dup = 1 - keepDup
	l.Corrupt = 1 - keepCorrupt
	l.Reorder = 1 - keepReorder
	return l
}

// Transport-draw purposes: distinct hash lanes so one frame's drop,
// corruption, duplication and reorder fates are independent draws.
const (
	DrawDrop uint64 = iota + 1
	DrawCorrupt
	DrawDup
	DrawReorder
)

// TransportDraw returns a deterministic uniform draw in [0, 1) for one
// transmission attempt of one frame. Like JitterNs, the draw hashes the
// frame identity — endpoints, sender post time, payload size, attempt
// number and purpose — with the plan seed instead of consuming a
// stateful stream, so transport fates depend only on virtual time:
// never on host scheduling, delivery races, or how far an aborted run
// got before crash recovery replayed it.
func (in *Injector) TransportDraw(purpose uint64, src, dst int, sentNs float64, bytes int64, attempt int) float64 {
	h := in.plan.Seed ^ purpose*0xd6e8feb86659fd93
	h ^= uint64(src)*0x9e3779b97f4a7c15 + uint64(dst)*0xbf58476d1ce4e5b9
	h ^= math.Float64bits(sentNs) + uint64(bytes)
	h += uint64(attempt) * 0x94d049bb133111eb
	u := xrand.NewSplitMix64(h).Uint64()
	return float64(u>>11) / (1 << 53)
}

// NextCrash returns the virtual time of the rank's crash while it is
// armed.
func (in *Injector) NextCrash(rank int) (float64, bool) {
	if in == nil || in.crashes == nil {
		return 0, false
	}
	c := &in.crashes[rank]
	return c.at, c.armed
}

// CrashPermanent reports whether the rank's crash is a permanent death
// (Crash.Permanent).
func (in *Injector) CrashPermanent(rank int) bool {
	return in != nil && in.crashes != nil && in.crashes[rank].permanent
}

// Disarm retires the rank's crash so a recovered run does not die to it
// again. Call only between runs (no rank goroutines live).
func (in *Injector) Disarm(rank int) {
	if in != nil && in.crashes != nil {
		in.crashes[rank].armed = false
	}
}

// DetectionTimeNs returns the virtual time at which the survivors
// observe a permanent death that occurred at `at`, under the modelled
// lease/heartbeat detector: the dead rank's last lease renewal was the
// heartbeat boundary at or before `at`, and that lease expires
// DetectTimeoutNs later.
func DetectionTimeNs(at float64) float64 {
	return math.Floor(at/HeartbeatPeriodNs)*HeartbeatPeriodNs + DetectTimeoutNs
}
