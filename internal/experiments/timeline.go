package experiments

import (
	"fmt"

	"numabfs/internal/bfs"
	"numabfs/internal/graph500"
	"numabfs/internal/machine"
	"numabfs/internal/obs"
)

// Timeline is the sampling-layer demo sweep (-fig timeline): run the
// compressed allgather (level 5) and the overlapped allgather (level 6)
// on a fixed 4-node cluster with the virtual-time gauge grid enabled,
// then distill each run's gauge streams into headline rows — peak
// frontier and bitmap density, inter-node wire volume and peak link
// utilization per bucket, and the pipeline's exposed wait. The two
// sessions it records are exactly the pair the obsdiff walkthrough in
// EXPERIMENTS.md diffs.
func Timeline(s Spec) (*Table, error) {
	const nodes = 4
	scale := s.scaleFor(nodes)
	sampleNs := s.SampleNs
	if sampleNs <= 0 {
		sampleNs = obs.DefaultSampleNs
	}

	t := &Table{
		Name:  "Ext. timeline",
		Title: fmt.Sprintf("Virtual-time gauge sampling: compressed vs overlapped allgather (%d nodes, scale %d, bucket %.0f ns)", nodes, scale, sampleNs),
		Columns: []string{
			"TEPS", "time ms", "peak frontier", "peak density",
			"inter-node MiB", "peak link util", "exposed wait ms",
		},
	}

	cells := []string{"+ Compressed allgather", "+ Overlap allgather"}
	levels := []bfs.Opt{bfs.OptCompressedAllgather, bfs.OptOverlapAllgather}
	vals, err := gather(s, cells, func(cs Spec, i int) ([]float64, error) {
		rec := cs.Obs
		if rec == nil {
			// The sweep is about the gauges, so it records even when
			// the CLI attached no recorder.
			rec = obs.NewRecorder()
			cs.Obs = rec
		}
		cs.SampleNs = sampleNs
		// No graph cache: a cache hit would skip kernel-1 construction
		// and shift the session's epoch, so the two rows' gauge streams
		// would bucket-align differently. Building both keeps the
		// timelines — and the obsdiff walkthrough over their exports —
		// apples to apples; the modelled results are identical either
		// way.
		cs.Cache = nil
		res, err := graph500.Run(cs.own(cs.config(nodes, machine.PPN8Bind, optsAt(levels[i]))))
		if err != nil {
			return nil, err
		}
		run := rec.Dump()
		sess := run.Sessions[len(run.Sessions)-1]
		return append([]float64{res.HarmonicTEPS, res.MeanTimeNs / 1e6}, gaugeRow(sess, sampleNs)...), nil
	})
	if err != nil {
		return nil, err
	}
	for i, label := range cells {
		t.AddRow(label, vals[i]...)
	}
	t.Notes = append(t.Notes,
		"gauges are recorded on the virtual-time grid by the bfs/mpi/collective layers; recording reads clocks only, so TEPS matches the unsampled run bit for bit",
		"peak link util is the largest per-bucket inter-node wire volume over the per-stream peak bandwidth the machine model publishes",
		"export the same two sessions with -timeline and compare them with obsdiff to attribute the level-6 delta per phase and rank")
	return t, nil
}

// gaugeRow folds one session's gauge streams into the sweep's headline
// columns: peak frontier, peak density, inter-node MiB, peak link
// utilization and exposed wait ms.
func gaugeRow(sess *obs.RunSession, sampleNs float64) []float64 {
	var peakFrontier, peakDensity, interBytes, peakUtil, exposedNs float64
	linkCap := sess.LinkPeak * sampleNs
	// Skip buckets that end inside the setup segment (before the first
	// mark): the rows compare BFS traversal traffic, and kernel-1
	// construction bytes would otherwise swing with graph-cache hits.
	setupEnd := 0.0
	if len(sess.Marks) > 0 {
		setupEnd = sess.Marks[0]
	}
	for _, rk := range sess.Ranks {
		for _, pt := range rk.Gauges[obs.GaugeFrontier] {
			peakFrontier = max(peakFrontier, pt.V)
		}
		for _, pt := range rk.Gauges[obs.GaugeFrontierDensity] {
			peakDensity = max(peakDensity, pt.V)
		}
		for _, pt := range rk.Gauges[obs.GaugeInterBytes] {
			if (float64(pt.Bucket)+1)*sampleNs <= setupEnd {
				continue
			}
			interBytes += pt.V
			if linkCap > 0 {
				peakUtil = max(peakUtil, pt.V/linkCap)
			}
		}
		for _, pt := range rk.Gauges[obs.GaugeExposedWait] {
			exposedNs += pt.V
		}
	}
	return []float64{peakFrontier, peakDensity, interBytes / (1 << 20), peakUtil, exposedNs / 1e6}
}
