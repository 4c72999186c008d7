package experiments

import (
	"fmt"

	"numabfs/internal/collective"
	"numabfs/internal/machine"
	"numabfs/internal/mpi"
)

// AblationAllgather times one in_queue-sized allgather over the full
// 16-node, 128-rank cluster under each algorithm — the Thakur-Gropp
// selection ablated: ring (the library's long-message choice and the
// paper's Eq. 1 regime), recursive doubling, and Bruck, against the
// library default the BFS uses. Run at both the in_queue and the
// summary payload size, the two allgathers of Fig. 1, under the spec's
// fault plan and recorder (Spec.world).
func AblationAllgather(s Spec) (*Table, error) {
	const nodes = 16
	scale := s.scaleFor(nodes)
	cfg := s.clusterConfig(nodes)
	inqWords := int64(1) << uint(scale-6)
	sumWords := inqWords / 64
	if sumWords < 1 {
		sumWords = 1
	}

	t := &Table{
		Name:  "Abl. allgather",
		Title: fmt.Sprintf("Allgather algorithm ablation, %d ranks (us per operation)", nodes*cfg.SocketsPerNode),
		Columns: []string{
			fmt.Sprintf("in_queue %dKB", inqWords*8>>10),
			fmt.Sprintf("summary %dB", sumWords*8),
		},
	}

	algos := []struct {
		label string
		fn    func(g *collective.Group, p *mpi.Proc, buf []uint64, l collective.Layout)
	}{
		{"ring", (*collective.Group).AllgatherRing},
		{"recursive doubling", (*collective.Group).AllgatherRecDouble},
		{"Bruck", (*collective.Group).AllgatherBruck},
		{"library default", (*collective.Group).Allgather},
	}
	sizes := []int64{inqWords, sumWords}
	var cells []string
	for _, a := range algos {
		for _, words := range sizes {
			cells = append(cells, fmt.Sprintf("%s/%dw", a.label, words))
		}
	}
	us, err := gather(s, cells, func(cs Spec, i int) (float64, error) {
		fn, words := algos[i/len(sizes)].fn, sizes[i%len(sizes)]
		w, err := cs.world(cfg, "abl-allgather "+cells[i])
		if err != nil {
			return 0, err
		}
		g := collective.WorldGroup(w)
		l := collective.EvenLayout(words, g.Size())
		if err := w.TryRun(func(p *mpi.Proc) {
			fn(g, p, make([]uint64, words), l)
		}); err != nil {
			return 0, err
		}
		return w.MaxClock() / 1e3, nil
	})
	if err != nil {
		return nil, err
	}
	for ai, row := range rows(us, len(sizes)) {
		t.AddRow(algos[ai].label, row...)
	}
	t.Notes = append(t.Notes,
		"Thakur-Gropp: recursive doubling wins short payloads, ring the long ones; the library default switches at the threshold")
	return t, nil
}

// world is a bare world over cfg, ranks bound one per socket, for a
// cell that drives mpi directly: under the spec's fault plan, and
// recording into a session named label when the spec records.
func (s Spec) world(cfg machine.Config, label string) (*mpi.World, error) {
	w := mpi.NewWorld(cfg, machine.PlacementFor(cfg, machine.PPN8Bind))
	if s.Faults != nil {
		if err := w.InjectFaults(*s.Faults); err != nil {
			return nil, err
		}
	}
	if s.Obs != nil {
		sess := s.Obs.NewSession(label)
		if s.SampleNs > 0 {
			sess.EnableSampling(s.SampleNs)
		}
		w.AttachObs(sess)
	}
	return w, nil
}
