package collective

import "numabfs/internal/mpi"

// AllgatherBruck is Bruck's allgather: ceil(log2 n) steps for *any*
// group size (not just powers of two). At each step a member sends every
// block it holds to the member `held` positions behind it and receives
// as many from the member `held` positions ahead, doubling its holdings;
// the final step tops up the remainder. Bruck is the short-message
// algorithm of choice for non-power-of-two groups in MPICH's tuned
// decisions; the repository's ablation experiment compares it with ring
// and recursive doubling on the in_queue allgather.
func (g *Group) AllgatherBruck(p *mpi.Proc, buf []uint64, l Layout) {
	n := g.Size()
	if n == 1 {
		return
	}
	me := g.Pos(p.Rank())
	sendTo := make([]int, n)
	step := 0
	for held := 1; held < n; held *= 2 {
		cnt := held
		if held+cnt > n {
			cnt = n - held
		}
		dst := (me - held + n) % n
		src := (me + held) % n
		for i := range sendTo {
			sendTo[i] = (i - held + n) % n
		}
		streams := g.stepStreams(sendTo)

		// Send blocks {me .. me+cnt-1}; receive {src .. src+cnt-1}.
		payload := blocks{ids: make([]int, cnt), data: make([][]uint64, cnt)}
		for j := 0; j < cnt; j++ {
			id := (me + j) % n
			payload.ids[j] = id
			payload.data[j] = l.seg(buf, id)
		}
		m := p.SendRecv(g.ranks[dst], tagBruck+step, payload.words()*8, payload,
			g.ranks[src], tagBruck+step, streams[me])
		in := m.Payload.Any.(blocks)
		for j, id := range in.ids {
			if want := (src + j) % n; id != want {
				panic("collective: Bruck allgather received unexpected segment")
			}
			copy(l.seg(buf, id), in.data[j])
		}
		step++
	}
}
