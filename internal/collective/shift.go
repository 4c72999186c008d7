package collective

import "numabfs/internal/mpi"

// The raw ring allgathers, of segments and of lists, and the pairwise
// alltoallv are one schedule, written once: n-1 steps, at step s member
// i sends one item to member (i+d) mod n. Under a plan with crashes or
// lossy links every member walks its own steps as messages; otherwise
// the last member to reach the group's gate replays them (mpi.Gate).

// forceMessages runs every shift schedule as messages; tests set it.
var forceMessages bool

// shiftArgs are one member's arguments: a segment ring's buffer and
// layout, or the vectors it sends (a list ring's are its out) and gets.
type shiftArgs struct {
	buf       []uint64
	l         Layout
	send, out [][]int64
}

// step is the generator: the distance of step s and the item member i
// of n sends at it. A ring forwards item (i-s) mod n to its successor;
// the pairwise exchange sends send_i[dst] to dst = i+s+1.
func step(op, n, s, i int) (d, item int) {
	if op == tagAlltoall {
		return s + 1, (i + s + 1) % n
	}
	return 1, (i - s + n) % n
}

// item returns a's item k, a segment or a vector, and its bytes.
func (a *shiftArgs) item(k int) ([]uint64, []int64, int64) {
	if a.send == nil {
		w := a.l.seg(a.buf, k)
		return w, nil, int64(len(w)) * 8
	}
	return nil, a.send[k], int64(len(a.send[k])) * 8
}

// land stores member src's item k into a: a copy into the segment, or
// the vector at out[src] (alltoallv) or out[k] (list ring).
func (a *shiftArgs) land(op, src, k int, words []uint64, vals []int64) {
	switch {
	case a.send == nil:
		copy(a.l.seg(a.buf, k), words)
	case op == tagAlltoall:
		a.out[src] = vals
	default:
		a.out[k] = vals
	}
}

// shift runs schedule op (tagRing, tagGatherList or tagAlltoall, the
// steps' tag base) as the member at position me, with arguments a.
func (g *Group) shift(p *mpi.Proc, me, op int, a shiftArgs, streams int) {
	n := g.Size()
	if !forceMessages && p.World().Injector().Replayable() {
		g.posted[me] = a
		g.gate.Pass(p, me, op, streams, func() {
			for s := 0; s < n-1; s++ {
				d, _ := step(op, n, s, 0)
				g.gate.Shift(d, func(i, j int) int64 {
					_, k := step(op, n, s, i)
					w, v, bytes := g.posted[i].item(k)
					g.posted[j].land(op, i, k, w, v)
					return bytes
				})
			}
		})
		g.posted[me] = shiftArgs{} // pin no buffer past the call
		return
	}
	for s := 0; s < n-1; s++ {
		d, k := step(op, n, s, me)
		src := (me - d + n) % n
		_, want := step(op, n, s, src)
		w, v, bytes := a.item(k)
		m := p.SendRecvPayload(g.ranks[(me+d)%n], op+s, bytes, mpi.Payload{ID: k, Words: w, Vals: v},
			g.ranks[src], op+s, streams)
		if m.Payload.ID != want {
			panic("collective: shift schedule received an unexpected item")
		}
		a.land(op, src, want, m.Payload.Words, m.Payload.Vals)
	}
}
