package collective

import (
	"math/bits"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// The collectives whose steps pair the members by a fixed permutation
// are one generator (step) and two executors: with crashes or lossy
// links in the plan every member walks its steps as messages, encoding
// for real; otherwise the last member at the group's gate replays them
// (walk), pricing codec items unencoded while idle workers write results.

// forceMessages runs every schedule as messages; tests set it.
var forceMessages bool

// shiftArgs are one member's arguments: a segment buffer and layout,
// the vectors it sends (a list ring's are its out) and gets, or an
// allreduce's accumulator; its codec, and its ring's stream count; a
// pipelined ring's chunk hook and ledger.
type shiftArgs struct {
	buf       []uint64
	l         Layout
	send, out [][]int64
	sum       []int64
	c         *wire.Codec
	streams   int
	hook      func(w0, w1 int64) float64
	ov        *Overlap
}

// step is the generator: at step s of schedule op, each member i sends
// to the member d positions after it — or to i XOR d, under xor
// (mpi.Peers) — its item ((i+off) mod n) &^ mask, over row[i] streams
// (row nil: its own). A ring forwards item (i-s) mod n to its successor;
// the pairwise exchange sends send_i[i+s+1] to i+s+1; recursive doubling
// swaps with i XOR 2^s its 2^s-aligned block (or sum); Bruck sends its
// run to i-2^s.
func (g *Group) step(op, s int) (d int, xor bool, off, mask int, row []int) {
	n := len(g.ranks)
	switch op {
	case tagAlltoall, tagAlltoallC:
		return s + 1, false, s + 1, 0, nil
	case tagBruck:
		return n - 1<<s, false, 0, 0, g.streamTable(tabBruck)[s]
	case tagRecDouble, tagAllreduce, tagAllreduceV:
		return 1 << s, true, 0, 1<<s - 1, g.streamTable(tabXor)[s]
	}
	return 1, false, n - s, 0, nil
}

// runs reports whether op's items are runs of min(2^s, n-2^s) segments.
func runs(op int) bool { return op == tagRecDouble || op == tagBruck }

// item is a's item k, a segment or a vector.
func (a *shiftArgs) item(k int) ([]uint64, []int64) {
	if a.send == nil {
		return a.l.seg(a.buf, k), nil
	}
	return nil, a.send[k]
}

// bytes is the raw size of a's item k at step s of schedule op.
func (g *Group) bytes(a *shiftArgs, op, s, k int) int64 {
	switch {
	case a.sum != nil:
		return int64(len(a.sum)) * 8
	case runs(op):
		return g.runBytes(a.l, k, min(1<<s, len(g.ranks)-1<<s))
	case a.send == nil:
		return a.l.Counts[k] * 8
	}
	return int64(len(a.send[k])) * 8
}

// put stores member src's raw item k into a: a segment copied into
// place, or a vector at out[src] (alltoallv) or out[k] (list ring) — an
// alias of the sender's, or in the table's own storage under a codec.
func (a *shiftArgs) put(op, src, k int, w []uint64, v []int64) {
	if a.send == nil {
		copy(a.l.seg(a.buf, k), w)
		return
	}
	out := &a.out[[2]int{k, src}[b2i(op == tagAlltoall || op == tagAlltoallC)]]
	if a.c != nil {
		v = append((*out)[:0], v...)
	}
	*out = v
}

// payload is a's item k at step s as a message: a run names its first
// segment and its count (ID, Q) over the sender's buffer.
func (g *Group) payload(a *shiftArgs, op, s, k int) mpi.Payload {
	switch {
	case a.sum != nil:
		return sumPayload(a.sum, k)
	case runs(op):
		return mpi.Payload{ID: k, Q: min(1<<s, len(g.ranks)-1<<s), Words: a.buf}
	}
	w, v := a.item(k)
	return mpi.Payload{ID: k, Words: w, Vals: v}
}

// land stores member src's item k of step s, arrived as pl, into a and
// returns its decode time: a sum added in, a run copied into place, a
// raw item put, or an encoded one decoded into the segment, or into the
// table's own storage at out[src] (alltoallv) or out[k] (list ring).
func (g *Group) land(a *shiftArgs, op, s, src, k int, pl *mpi.Payload) (ns float64) {
	switch {
	case a.sum != nil:
		addInto(a.sum, *pl)
	case runs(op):
		g.landRun(a.buf, a.l, pl, k, min(1<<s, len(g.ranks)-1<<s))
	case pl.Wire.Format == wire.FormatAuto:
		a.put(op, src, k, pl.Words, pl.Vals)
	case a.send == nil:
		ns = a.c.Decode(a.l.seg(a.buf, k), pl.Wire)
	default:
		out := &a.out[[2]int{k, src}[b2i(op == tagAlltoallC)]]
		*out, ns = a.c.DecodeList(pl.Wire, (*out)[:0])
	}
	return ns
}

// shift runs schedule op (a tag base) as the member at position me,
// with arguments a. Under a codec the exchange encodes every vector it
// sends, and a ring encodes its own item and forwards what it got.
func (g *Group) shift(p *mpi.Proc, me, op int, a shiftArgs) {
	n, steps, exchange := g.Size(), g.Size()-1, op == tagAlltoallC
	if runs(op) || a.sum != nil {
		steps = bits.Len(uint(n - 1))
	}
	if forceMessages || !p.World().Injector().Replayable() {
		var held wire.Payload // the encoded item to send
		for s := 0; s < steps; s++ {
			d, xor, off, mask, row := g.step(op, s)
			to, from := mpi.Peers(me, n, d, xor)
			k, want, st := (me+off)%n&^mask, (from+off)%n&^mask, a.streams
			if row != nil {
				st = row[me]
			}
			var m mpi.Msg
			if a.c == nil {
				m = p.SendRecvPayload(g.ranks[to], op+s, g.bytes(&a, op, s, k), g.payload(&a, op, s, k), g.ranks[from], op+s, st)
			} else {
				var ns float64 // a ring encodes its own item, and forwards what it got
				if k == me && a.send != nil || exchange {
					held, ns = a.c.EncodeListSlot(a.send[k], s)
				} else if k == me {
					held, ns = a.c.EncodeSlot(a.l.seg(a.buf, k), s)
				}
				p.Compute(ns)
				m = p.SendRecvWire(g.ranks[to], op+s, mpi.Payload{ID: k, Wire: held}, g.ranks[from], op+s, st)
				held = m.Payload.Wire
			}
			if m.Payload.ID != want {
				panic("collective: schedule received an unexpected item")
			}
			p.Compute(g.land(&a, op, s, from, want, &m.Payload))
		}
		return
	}
	if a.c != nil && len(g.priced[me]) < n {
		g.priced[me] = make([]wire.Price, n)
	}
	for k := range n * b2i(a.c != nil) { // price what this member encodes, on its worker
		switch {
		case (k == me) == exchange:
		case a.send != nil:
			g.priced[me][k], _ = a.c.PriceList(a.send[k])
		default:
			g.priced[me][k], _ = a.c.Price(a.l.seg(a.buf, k))
		}
	}
	g.posted[me], g.gate.Streams[me] = a, a.streams
	g.gate.Pass(p, me, op, func() { g.walk(op, steps, a.c != nil) })
	g.posted[me] = shiftArgs{} // pin no buffer past the call
}

// walk replays schedule op as a result — its postcondition, written per
// receiver (receive) by idle workers and this one — and a price, each
// step's messages sized from the posted arguments alone (under a codec
// its price, the owner's encode charged before the step that first
// sends it, the receiver's decode after) and priced by the gate here.
func (g *Group) walk(op, steps int, codec bool) {
	n, gt, ps := len(g.ranks), g.gate, g.posted
	for i := 1; i < n && ps[0].sum != nil; i++ {
		for e, v := range ps[i].sum {
			ps[0].sum[e] += v
		}
	}
	g.op = op
	g.result.Start()
	for s := 0; s < steps; s++ {
		d, xor, off, mask, row := g.step(op, s)
		copy(gt.Streams, row)
		for i := range n {
			to, _ := mpi.Peers(i, n, d, xor)
			k := (i + off) % n &^ mask
			o := [2]int{k, i}[b2i(op == tagAlltoall || op == tagAlltoallC)] // the item's owner
			if !codec {
				gt.Bytes[i] = g.bytes(&ps[o], op, s, k)
				gt.Raw[i] = gt.Bytes[i]
				continue
			}
			pr := g.priced[o][k]
			if o == i {
				gt.Member(i).Compute(ps[i].c.Cost(pr, false))
			}
			gt.Bytes[i], gt.Raw[i], gt.After[i] = pr.WireBytes, pr.RawBytes, ps[to].c.Cost(pr, true)
		}
		gt.Step(d, xor)
	}
	g.result.Finish()
}

// receive writes receiver r's result of schedule g.op: the total walk
// summed into member 0's accumulator, or every other member j's item for
// r (its own item j, or under an alltoallv its vector r), put in place.
func (g *Group) receive(r int) {
	a, ps := &g.posted[r], g.posted
	if a.sum != nil {
		if r > 0 {
			copy(a.sum, ps[0].sum)
		}
		return
	}
	for j := range ps {
		if j != r {
			k := [2]int{j, r}[b2i(g.op == tagAlltoall || g.op == tagAlltoallC)]
			w, v := ps[j].item(k)
			a.put(g.op, j, k, w, v)
		}
	}
}
