// Package obs is the structured observability layer over the
// simulator's virtual time. Where internal/trace keeps a six-bucket
// per-phase accumulator, obs records the raw event stream the paper's
// profiling methodology (Figs. 11-14) is distilled from: one span per
// phase of every BFS level on every rank, one span per collective call,
// and per-rank communication counters (messages and bytes by NUMA hop
// distance, barrier waits).
//
// The live types (Recorder, Session, Rank) only record. Every reader
// works on the portable Run snapshot (internal/obs/export.go) that
// Recorder.Dump takes and the -timeline JSONL stream round-trips: the
// metrics report with critical-path and stall attribution (report.go),
// the Chrome trace_event file (chrome.go), the HTML report (html.go),
// the Prometheus exposition (prom.go) and the run diff (diff.go); all
// but the Chrome file sum through one fold per session (fold.go).
//
// Recording is disabled by default and zero-cost when off: every hook
// in the hot paths is a method on a possibly-nil *Rank that returns
// immediately, so a run without an attached Recorder executes exactly
// the instruction sequence of the untraced simulator and produces
// bit-identical virtual times. A run with the Recorder attached only
// reads clocks — it never advances them — so results are identical
// with tracing on, too.
//
// A Recorder holds one Session per simulated world (one benchmark
// configuration); a Session holds one Rank stream per MPI rank. Because
// every rank is its own goroutine writing only to its own stream, no
// locks are needed and recording order is as deterministic as the
// simulation itself.
package obs

import "numabfs/internal/trace"

// Hop classifies a point-to-point transfer by the NUMA distance it
// crosses, the granularity at which Eq. (2)'s data-volume claims are
// stated: between two ranks of one socket, between sockets of one node
// (QPI / shared memory), or between nodes (InfiniBand).
type Hop int

const (
	HopIntraSocket Hop = iota
	HopIntraNode
	HopInterNode
	NumHops
)

// String implements fmt.Stringer.
func (h Hop) String() string {
	switch h {
	case HopIntraSocket:
		return "intra-socket"
	case HopIntraNode:
		return "intra-node"
	case HopInterNode:
		return "inter-node"
	default:
		return "hop-?"
	}
}

// ClassifyHop returns the hop class of a transfer from (srcNode,
// srcSocket) to (dstNode, dstSocket).
func ClassifyHop(srcNode, srcSocket, dstNode, dstSocket int) Hop {
	if srcNode != dstNode {
		return HopInterNode
	}
	if srcSocket != dstSocket {
		return HopIntraNode
	}
	return HopIntraSocket
}

// Span categories.
const (
	// CatPhase marks spans charged to a trace.Phase bucket; summing them
	// reproduces the trace.Breakdown accumulators.
	CatPhase = "phase"
	// CatCollective marks one collective call (allgather, alltoallv,
	// allreduce, ...). Collective spans nest inside phase spans.
	CatCollective = "collective"
	// CatLevel marks one whole BFS level on one rank; phase spans nest
	// inside it. The critical-path walk is built on these.
	CatLevel = "level"
	// CatFault marks injected-fault events (crashes, detections,
	// promotions, recoveries)
	// as zero-duration instants on the crashing rank's timeline.
	CatFault = "fault"
)

// Span is one recorded interval of a rank's virtual timeline. Start and
// End are session-timeline nanoseconds: consecutive BFS roots (whose
// rank clocks each restart at zero) are laid end to end by the session
// epoch, so a whole benchmark reads as one continuous timeline.
type Span struct {
	Name  string
	Cat   string
	Level int // BFS level for phase/level spans, -1 otherwise
	Start float64
	End   float64
}

// Comm accumulates one rank's communication counters. Its JSON field
// names are the timeline's wire format (the "comm" line of WriteJSONL).
type Comm struct {
	// Msgs and Bytes count sender-side point-to-point transfers by hop
	// class (each message is counted once, at its sender). Bytes is the
	// wire size — what crossed the network; RawBytes is the logical
	// (pre-compression) size, equal to Bytes except for the encoded
	// payloads of the compressed allgather, where the gap between the
	// two is the compression saving.
	Msgs     [NumHops]int64 `json:"msgs"`
	Bytes    [NumHops]int64 `json:"bytes"`
	RawBytes [NumHops]int64 `json:"raw_bytes"`
	// Barriers counts global barrier entries; BarrierWaitNs sums the
	// rank's wait (arrival to last arrival) and BarrierWaits keeps the
	// individual samples for percentile reporting.
	Barriers      int64     `json:"barriers,omitempty"`
	BarrierWaitNs float64   `json:"barrier_wait_ns,omitempty"`
	BarrierWaits  []float64 `json:"barrier_waits,omitempty"`
	// NodeBarriers / NodeBarrierWaitNs are the node-scoped equivalents
	// (shared-memory epochs).
	NodeBarriers      int64   `json:"node_barriers,omitempty"`
	NodeBarrierWaitNs float64 `json:"node_barrier_wait_ns,omitempty"`
	// Collectives counts collective calls by name.
	Collectives map[string]int64 `json:"collectives,omitempty"`
	// Faults counts injected-fault events by kind ("crash", "recover").
	Faults map[string]int64 `json:"faults,omitempty"`
	// Reliable-transport counters, filled only under a loss plan. The
	// receiver of a message records its protocol outcomes, so per-rank
	// values attribute transport work to the rank that waited for it.
	Retransmits      int64   `json:"retransmits,omitempty"`          // data frames received beyond each message's first attempt
	CorruptDetected  int64   `json:"corrupt_detected,omitempty"`     // frames that failed the CRC (handled as drops)
	DupsDelivered    int64   `json:"dups_delivered,omitempty"`       // duplicate frame deliveries discarded
	Reordered        int64   `json:"reordered,omitempty"`            // frames held for resequencing
	Acks             int64   `json:"acks,omitempty"`                 // ack frames sent back to the sender
	XportOverheadNs  float64 `json:"xport_overhead_ns,omitempty"`    // extra delivery latency versus a clean link (retransmit waits, holds, acks)
	XportOverheadBys int64   `json:"xport_overhead_bytes,omitempty"` // protocol bytes (headers, retransmits, dups, acks) this rank received
	// Pipelined-allgather overlap counters (OptOverlapAllgather): transfer
	// time hidden under the rank's own decode/scan versus time the rank
	// stalled in Wait for it. Zero for every non-pipelined collective.
	OverlapHiddenNs  float64 `json:"overlap_hidden_ns,omitempty"`
	OverlapExposedNs float64 `json:"overlap_exposed_ns,omitempty"`
}

// merge adds o's counters into c (BarrierWaits samples included).
func (c *Comm) merge(o *Comm) {
	for h := Hop(0); h < NumHops; h++ {
		c.Msgs[h] += o.Msgs[h]
		c.Bytes[h] += o.Bytes[h]
		c.RawBytes[h] += o.RawBytes[h]
	}
	c.Barriers += o.Barriers
	c.BarrierWaitNs += o.BarrierWaitNs
	c.BarrierWaits = append(c.BarrierWaits, o.BarrierWaits...)
	c.NodeBarriers += o.NodeBarriers
	c.NodeBarrierWaitNs += o.NodeBarrierWaitNs
	for name, n := range o.Collectives {
		count(&c.Collectives, name, n)
	}
	for kind, n := range o.Faults {
		count(&c.Faults, kind, n)
	}
	c.Retransmits += o.Retransmits
	c.CorruptDetected += o.CorruptDetected
	c.DupsDelivered += o.DupsDelivered
	c.Reordered += o.Reordered
	c.Acks += o.Acks
	c.XportOverheadNs += o.XportOverheadNs
	c.XportOverheadBys += o.XportOverheadBys
	c.OverlapHiddenNs += o.OverlapHiddenNs
	c.OverlapExposedNs += o.OverlapExposedNs
}

// count adds n to (*m)[key], making the map on first use.
func count(m *map[string]int64, key string, n int64) {
	if *m == nil {
		*m = make(map[string]int64)
	}
	(*m)[key] += n
}

// Recorder collects observability sessions. The zero Recorder is ready
// to use; a nil *Recorder means observability is off.
type Recorder struct {
	sessions []*Session
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewSession opens a new session (one simulated world / benchmark
// configuration) under the given human-readable label.
func (r *Recorder) NewSession(label string) *Session {
	s := &Session{Label: label}
	r.sessions = append(r.sessions, s)
	return s
}

// Adopt moves sub's sessions onto the end of r, preserving their order.
// The parallel experiment runner gives every cell a private Recorder and
// adopts them in submission order once all cells finish, so the merged
// session sequence — and every export derived from it — is identical to
// a sequential run's. Call only after the worlds recording into sub have
// completed.
func (r *Recorder) Adopt(sub *Recorder) {
	r.sessions = append(r.sessions, sub.sessions...)
	sub.sessions = nil
}

// Session is the event stream of one simulated world. Rank streams are
// appended by the world on attach; Advance stitches the per-root clock
// resets into one continuous timeline.
type Session struct {
	Label string

	ranks []*Rank
	// epoch is the session-timeline offset added to raw rank clocks:
	// the sum of all virtual durations that already elapsed before the
	// current World run (setup, earlier roots).
	epoch float64
	// marks are the segment boundaries Advance recorded (end of setup,
	// end of each root), for grouping spans by BFS iteration.
	marks []float64
	// bucketNs, when positive, turns on the virtual-time gauge grid
	// (internal/obs/sample.go); linkPeak is the attaching world's
	// per-stream inter-node peak bandwidth for utilization reporting.
	bucketNs float64
	linkPeak float64
}

// AddRank appends a rank stream with its placement coordinates and
// returns it.
func (s *Session) AddRank(rank, node, socket int) *Rank {
	r := &Rank{sess: s, ID: rank, Node: node, Socket: socket}
	s.ranks = append(s.ranks, r)
	return r
}

// Ranks returns the session's rank streams in rank order. Readers use
// Recorder.Dump; this accessor stays because the repository benchmark
// (bench/adapter.go) counts live spans through it.
func (s *Session) Ranks() []*Rank { return s.ranks }

// Advance shifts the session timeline by d virtual ns and records a
// segment boundary. The simulated world calls it with its maximum clock
// whenever rank clocks are about to be reset (between BFS roots), so
// span timestamps from consecutive roots do not overlap.
func (s *Session) Advance(d float64) {
	if d <= 0 {
		return
	}
	s.epoch += d
	s.marks = append(s.marks, s.epoch)
}

// Rank records one simulated rank's spans and counters. All methods are
// safe on a nil receiver and no-op, so call sites need no enabled-check:
// a nil *Rank IS the disabled recorder.
type Rank struct {
	sess   *Session
	ID     int
	Node   int
	Socket int

	spans   []Span
	comm    Comm
	samples [NumGauges][]gaugeSample
}

// Spans returns the rank's recorded spans in record order. Like
// Session.Ranks, it stays for the repository benchmark's span count.
func (r *Rank) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// span appends a span on the session timeline.
func (r *Rank) span(name, cat string, level int, start, end float64) {
	e := r.sess.epoch
	r.spans = append(r.spans, Span{
		Name: name, Cat: cat, Level: level,
		Start: e + start, End: e + end,
	})
}

// PhaseSpan records one interval charged to phase p at the given BFS
// level; start and end are raw rank-clock ns.
func (r *Rank) PhaseSpan(p trace.Phase, level int, start, end float64) {
	if r == nil {
		return
	}
	r.span(p.String(), CatPhase, level, start, end)
}

// LevelSpan records one whole BFS level (all phases).
func (r *Rank) LevelSpan(bottomUp bool, level int, start, end float64) {
	if r == nil {
		return
	}
	name := "td level"
	if bottomUp {
		name = "bu level"
	}
	r.span(name, CatLevel, level, start, end)
}

// Collective records one collective call and counts it by name.
func (r *Rank) Collective(name string, start, end float64) {
	if r == nil {
		return
	}
	r.span(name, CatCollective, -1, start, end)
	count(&r.comm.Collectives, name, 1)
}

// CountMsg counts one sender-side point-to-point transfer: wireBytes
// crossed the network, rawBytes is the logical (pre-compression) size.
func (r *Rank) CountMsg(h Hop, wireBytes, rawBytes int64) {
	if r == nil {
		return
	}
	r.comm.Msgs[h]++
	r.comm.Bytes[h] += wireBytes
	r.comm.RawBytes[h] += rawBytes
}

// BarrierWait records one global-barrier wait sample.
func (r *Rank) BarrierWait(ns float64) {
	if r == nil {
		return
	}
	r.comm.Barriers++
	r.comm.BarrierWaitNs += ns
	r.comm.BarrierWaits = append(r.comm.BarrierWaits, ns)
}

// NodeBarrierWait records one node-barrier wait.
func (r *Rank) NodeBarrierWait(ns float64) {
	if r == nil {
		return
	}
	r.comm.NodeBarriers++
	r.comm.NodeBarrierWaitNs += ns
}

// Xport records the reliable-transport outcomes of one received
// message: retransmitted frames (corrupt of them CRC-failed), discarded
// duplicates, resequencing holds, acks sent, the protocol bytes and the
// extra latency versus a clean link. Called by the receiving rank, once
// per message, only when a loss plan is active.
func (r *Rank) Xport(retrans, corrupt, dups, reorders, acks, overheadBytes int64, overheadNs float64) {
	if r == nil {
		return
	}
	r.comm.Retransmits += retrans
	r.comm.CorruptDetected += corrupt
	r.comm.DupsDelivered += dups
	r.comm.Reordered += reorders
	r.comm.Acks += acks
	r.comm.XportOverheadBys += overheadBytes
	r.comm.XportOverheadNs += overheadNs
}

// Overlap records one pipelined collective's hidden-vs-exposed transfer
// split (counters only — hidden time is concurrent with computation
// spans already on the timeline, so it is not a span of its own).
func (r *Rank) Overlap(hiddenNs, exposedNs float64) {
	if r == nil {
		return
	}
	r.comm.OverlapHiddenNs += hiddenNs
	r.comm.OverlapExposedNs += exposedNs
}

// FaultEvent records one injected-fault instant ("crash", "recover") at
// the given raw rank-clock time and counts it by kind.
func (r *Rank) FaultEvent(kind string, at float64) {
	if r == nil {
		return
	}
	r.span(kind, CatFault, -1, at, at)
	count(&r.comm.Faults, kind, 1)
}
