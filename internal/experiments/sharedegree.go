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
// shared per k-socket group: each group's leader collects its k-1
// children's segments, then all leaders allgather (a ring with 8/k
// leaders per node driving the NIC).
func shareDegreeAllgather(cfg machine.Config, words int64, k int) (float64, error) {
	pl := machine.PlacementFor(cfg, machine.PPN8Bind)
	w := mpi.NewWorld(cfg, pl)
	np := w.NumProcs()
	if np%k != 0 {
		return 0, fmt.Errorf("%d ranks not divisible by group size %d", np, k)
	}
	l := collective.EvenLayout(words, np)

	// Leaders: one per k consecutive ranks (k-groups never straddle a
	// node because k divides the socket count).
	leaders := make([]int, 0, np/k)
	for r := 0; r < np; r += k {
		leaders = append(leaders, r)
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

	const tag = 0xA000
	w.Run(func(p *mpi.Proc) {
		me := p.Rank()
		seg := make([]uint64, l.Counts[me])
		if me%k == 0 {
			buf := make([]uint64, words)
			copy(buf[l.Displs[me]:], seg)
			for j := 1; j < k; j++ {
				m := p.Recv(me+j, tag)
				child := m.Payload.Words
				copy(buf[l.Displs[me+j]:l.Displs[me+j]+int64(len(child))], child)
			}
			lg.AllgatherRing(p, buf, ll)
		} else {
			leader := me - me%k
			p.SendPayload(leader, tag, int64(len(seg))*8, mpi.Payload{Words: seg}, k-1)
		}
		p.NodeBarrier()
	})
	return w.MaxClock(), nil
}
