package experiments

import (
	"fmt"

	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
)

// AblationShareDegree answers the paper's closing question — "To what
// extent data should be shared on NUMA platform need to be considered
// carefully" — by sweeping the sharing group size k: one in_queue
// mapping per k sockets (k = 1 is the private Original, k = 8 the
// paper's full node sharing).
//
// For each k, the communication side is *measured*: the k-group leaders
// gather their children's segments and allgather among all leaders (8/k
// concurrent streams per node); the computation side is *modelled*: the
// per-check access latency to an in_queue shared by k sockets (capacity
// grows with k, but hits migrate into slower peer caches), scaled by a
// representative bottom-up level's check count (~1.2 checks per vertex).
func AblationShareDegree(s Spec) (*Table, error) {
	const nodes = 16
	scale := s.scaleFor(nodes)
	cfg := s.clusterConfig(nodes)
	words := int64(1) << uint(scale-6) // |V|/64 words of in_queue
	inqBytes := words * 8
	checks := 1.2 * float64(int64(1)<<uint(scale)) / float64(nodes) // per node per level

	t := &Table{
		Name:  "Abl. share-degree",
		Title: fmt.Sprintf("Sharing-group size sweep (%d nodes, scale %d; per-level us)", nodes, scale),
		Columns: []string{
			"allgather us", "inq check ns", "compute us", "total us",
		},
	}

	var ks []int
	for _, k := range []int{1, 2, 4, 8} {
		if k > cfg.SocketsPerNode {
			break
		}
		ks = append(ks, k)
	}
	cells := make([]string, len(ks))
	for i, k := range ks {
		cells[i] = fmt.Sprintf("k=%d", k)
	}
	commNs, err := gather(s, cells, func(_ Spec, i int) (float64, error) {
		return shareDegreeAllgather(cfg, words, ks[i])
	})
	if err != nil {
		return nil, err
	}
	for i, k := range ks {
		checkNs := cfg.SharedAccessLatency(inqBytes, k)
		// All the node's cores drive the checks irrespective of k.
		lanes := float64(cfg.CoresPerNode()) * cfg.MLP
		compNs := checks * checkNs / lanes
		t.AddRow(fmt.Sprintf("k=%d sockets per in_queue", k),
			commNs[i]/1e3, checkNs, compNs/1e3, (commNs[i]+compNs)/1e3)
	}
	t.Notes = append(t.Notes,
		"k=1 is Original (private copies, most communication); k=8 is the paper's full node sharing",
		"communication falls with k (fewer, larger leader segments); check latency rises once the bitmap no longer fits the group's caches locally")
	return t, nil
}

// shareDegreeAllgather measures one in_queue allgather when in_queue is
// shared per k-socket group: each group's leader gathers its k-1
// children's segments (a linear gather, the children sending at once
// over k-1 streams), then all leaders allgather (a ring with 8/k leaders
// per node driving the NIC).
func shareDegreeAllgather(cfg machine.Config, words int64, k int) (float64, error) {
	pl := machine.PlacementFor(cfg, machine.PPN8Bind)
	w := mpi.NewWorld(cfg, pl)
	np := w.NumProcs()
	if np%k != 0 {
		return 0, fmt.Errorf("%d ranks not divisible by group size %d", np, k)
	}
	l := collective.EvenLayout(words, np)

	// Leaders: one per k consecutive ranks (k-groups never straddle a
	// node because k divides the socket count). Each k-group gathers its
	// slice of in_queue, [l.Displs[r], l.Displs[r+k]), under the layout
	// of its k segments within that slice.
	leaders := make([]int, 0, np/k)
	groups := make([]*collective.Group, 0, np/k)
	views := make([]collective.Layout, 0, np/k)
	for r := 0; r < np; r += k {
		leaders = append(leaders, r)
		ranks, offs := make([]int, k), make([]int64, k+1)
		for j := range ranks {
			ranks[j], offs[j+1] = r+j, offs[j]+l.Counts[r+j]
		}
		groups = append(groups, collective.NewGroup(w, ranks))
		views = append(views, collective.SegLayout(offs))
	}
	lg := collective.NewGroup(w, leaders)

	// Leader layout: each leader contributes its group's k segments.
	counts := make([]int64, len(leaders))
	displs := make([]int64, len(leaders))
	for i, r := range leaders {
		displs[i] = l.Displs[r]
		for j := 0; j < k; j++ {
			counts[i] += l.Counts[r+j]
		}
	}
	ll := collective.Layout{Counts: counts, Displs: displs}

	w.Run(func(p *mpi.Proc) {
		me := p.Rank()
		var inq, slice []uint64 // a leader's in_queue; the k-group's slice
		if me%k == 0 {
			inq = make([]uint64, words)
			slice = inq[l.Displs[me]:]
		} else {
			slice = make([]uint64, views[me/k].TotalWords())
		}
		groups[me/k].GatherLinear(p, slice, views[me/k], k-1)
		if inq != nil {
			lg.AllgatherRing(p, inq, ll)
		}
		p.NodeBarrier()
	})
	return w.MaxClock(), nil
}
