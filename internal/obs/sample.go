package obs

import "sort"

// This file is the virtual-time sampling layer: bucketed per-rank gauges
// recorded on a configurable grid over the session timeline. Where the
// span recorder answers "which phase ran when", the gauges answer "how
// big was the frontier, how loaded was the link, how deep was the
// retransmit backlog" — the
// continuous quantities the paper's Figs. 9-15 argument reads off its
// per-phase time series. The instrumented layers feed it: bfs records
// frontier size and bitmap density at every level boundary, the mpi
// transport records per-link bytes in flight and its retransmit
// backlog, the pipelined collective records its exposed waits, and the
// engines record their live-member count at every spare promotion.
//
// The contract matches the span recorder exactly: every hook is a
// method on a possibly-nil *Rank that returns immediately, and a
// non-nil rank whose session is not sampling returns just as fast — an
// attached-but-unsampled run executes the identical hot path and
// allocates nothing. Recording only reads clocks, never advances them,
// so virtual-time results are bit-identical with sampling on. Samples
// append to per-rank buffers in rank-deterministic order (the fold into
// buckets happens at Dump), so a deterministic simulation yields
// byte-identical exports at any GOMAXPROCS.

// Gauge identifies one sampled quantity.
type Gauge int

const (
	// GaugeFrontier is the global frontier size (vertices) published by
	// the level's allreduce, sampled at each level's end.
	GaugeFrontier Gauge = iota
	// GaugeFrontierDensity is GaugeFrontier over the vertex count — the
	// in_queue bitmap density that drives the wire-format selector.
	GaugeFrontierDensity
	// GaugeIntraBytes is the intra-node wire volume (bytes) the rank
	// received per bucket, spread over each transfer's flight window.
	GaugeIntraBytes
	// GaugeInterBytes is the inter-node equivalent: the rank's share of
	// bytes in flight on the NIC per bucket.
	GaugeInterBytes
	// GaugeRetransBacklog counts reliable-transport retransmissions per
	// bucket, each at the clock of the attempt it replaced — the
	// backlog timeline of a lossy link.
	GaugeRetransBacklog
	// GaugeExposedWait is the pipelined collective's exposed wait (ns
	// stalled for a chunk that was not hidden under computation) per
	// bucket.
	GaugeExposedWait
	// GaugeLiveRanks is the world's live-member count per epoch, sampled
	// at every detection-driven spare promotion (instantaneous, not
	// summed).
	GaugeLiveRanks
	NumGauges
)

// String implements fmt.Stringer; the names are stable wire identifiers
// (JSONL gauge records and Prometheus metric suffixes).
func (g Gauge) String() string {
	switch g {
	case GaugeFrontier:
		return "frontier"
	case GaugeFrontierDensity:
		return "frontier-density"
	case GaugeIntraBytes:
		return "intra-bytes"
	case GaugeInterBytes:
		return "inter-bytes"
	case GaugeRetransBacklog:
		return "retrans-backlog"
	case GaugeExposedWait:
		return "exposed-wait-ns"
	case GaugeLiveRanks:
		return "live-ranks"
	default:
		return "gauge-?"
	}
}

// GaugeByName returns the gauge with the given wire name.
func GaugeByName(name string) (Gauge, bool) {
	for g := Gauge(0); g < NumGauges; g++ {
		if g.String() == name {
			return g, true
		}
	}
	return 0, false
}

// Cumulative reports how a gauge's samples fold into one bucket: true
// sums them (volumes, counts), false keeps the bucket's peak (sizes,
// densities — instantaneous state, downsampled peak-preserving).
func (g Gauge) Cumulative() bool {
	switch g {
	case GaugeFrontier, GaugeFrontierDensity, GaugeLiveRanks:
		return false
	default:
		return true
	}
}

// DefaultSampleNs is the gauge grid pitch the CLIs' -timeline export
// records at (and the timeline demo sweep's default): 100µs of virtual
// time, fine enough to resolve individual BFS levels at the test scales
// while keeping a whole sweep's sample volume small.
const DefaultSampleNs = 100_000

// EnableSampling turns on gauge recording for the session on a grid of
// bucketNs virtual nanoseconds: sample k covers [k*bucketNs,
// (k+1)*bucketNs) of the session timeline. Call it before the world
// runs. A non-positive pitch panics: a zero grid would fold every
// sample into bucket ±Inf.
func (s *Session) EnableSampling(bucketNs float64) {
	if bucketNs <= 0 {
		panic("obs: sampling bucket must be positive")
	}
	s.bucketNs = bucketNs
}

// SetLinkPeak publishes the machine's per-stream inter-node peak
// bandwidth (bytes/ns) for utilization reporting.
func (s *Session) SetLinkPeak(bytesPerNs float64) { s.linkPeak = bytesPerNs }

// gaugeSample is one raw observation: bucket index and value. Folding
// (sum or peak per Gauge.Cumulative) happens at read time, so the
// hot path is a bounds check and an append.
type gaugeSample struct {
	bucket int64
	v      float64
}

// Sample records one observation of g at raw rank-clock time at: an
// instantaneous value or an additive contribution, as g.Cumulative
// says — the fold happens at Dump. No-op on a nil rank or when the
// session is not sampling.
func (r *Rank) Sample(g Gauge, at, v float64) {
	if r == nil || r.sess.bucketNs == 0 {
		return
	}
	b := int64((r.sess.epoch + at) / r.sess.bucketNs)
	r.samples[g] = append(r.samples[g], gaugeSample{bucket: b, v: v})
}

// LinkTransfer spreads one received transfer's wire bytes over the
// buckets its flight window [start, end) covers, proportionally to the
// overlap — the bytes-in-flight timeline of the rank's links. start and
// end are raw rank-clock ns. No-op on a nil rank or without sampling.
func (r *Rank) LinkTransfer(inter bool, bytes int64, start, end float64) {
	if r == nil || r.sess.bucketNs == 0 {
		return
	}
	g := GaugeIntraBytes
	if inter {
		g = GaugeInterBytes
	}
	bn := r.sess.bucketNs
	st := r.sess.epoch + start
	en := r.sess.epoch + end
	b0 := int64(st / bn)
	b1 := int64(en / bn)
	if b0 == b1 || en <= st {
		r.samples[g] = append(r.samples[g], gaugeSample{bucket: b0, v: float64(bytes)})
		return
	}
	total := en - st
	for b := b0; b <= b1; b++ {
		lo := float64(b) * bn
		hi := lo + bn
		if lo < st {
			lo = st
		}
		if hi > en {
			hi = en
		}
		if hi <= lo {
			continue
		}
		r.samples[g] = append(r.samples[g], gaugeSample{
			bucket: b, v: float64(bytes) * (hi - lo) / total,
		})
	}
}

// GaugePoint is one folded bucket of a gauge series.
type GaugePoint struct {
	Bucket int64   // grid index: covers [Bucket*BucketNs, (Bucket+1)*BucketNs)
	V      float64 // folded value (sum or peak per Gauge.Cumulative)
}

// gaugeSeries folds the rank's raw samples of g into per-bucket points,
// sorted by bucket. Cumulative gauges sum within a bucket in record
// order; instantaneous gauges keep the largest sample — the
// peak-preserving downsampling, so a bucket coarser than the event
// spacing (one bucket spanning many BFS levels, say) still shows the
// extreme rather than whichever sample happened to land last. Returns
// nil when sampling was off or nothing was recorded.
func (r *Rank) gaugeSeries(g Gauge) []GaugePoint {
	raw := r.samples[g]
	if len(raw) == 0 {
		return nil
	}
	idx := make(map[int64]int, len(raw))
	pts := make([]GaugePoint, 0, len(raw))
	for _, s := range raw {
		if i, ok := idx[s.bucket]; ok {
			if g.Cumulative() {
				pts[i].V += s.v
			} else if s.v > pts[i].V {
				pts[i].V = s.v
			}
			continue
		}
		idx[s.bucket] = len(pts)
		pts = append(pts, GaugePoint{Bucket: s.bucket, V: s.v})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Bucket < pts[j].Bucket })
	return pts
}
