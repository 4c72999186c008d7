package collective

import (
	"fmt"
	"math/bits"

	"numabfs/internal/mpi"
	"numabfs/internal/wire"
)

// Each collective is a schedule: one generator (step) and two executors.
// With crashes or lossy links in the plan every member walks its steps as
// messages, encoding for real; otherwise the last member at the group's
// gate replays them (walk), pricing codec items unencoded while idle
// workers write results. Each executor has one ring protocol. The
// pipelined ring (tagSeg) differs from the blocking schedules in two
// places only: its steps are cut into chunks (Q of them, chunkSpan), and
// a member posts step k+1 before it lands chunk k.

// forceMessages runs every schedule as messages; tests set it.
var forceMessages bool

// shiftArgs are one member's arguments: a segment buffer and layout (or
// none: a broadcast's buffer, its one item), the vectors it sends (a list ring's are
// its out) and gets, or an allreduce's accumulator; its codec, and its
// stream count; a pipelined ring's chunk count, chunk hook and ledger.
type shiftArgs struct {
	buf       []uint64
	l         Layout
	send, out [][]int64
	sum       []int64
	c         *wire.Codec
	streams   int
	chunks    int
	hook      func(w0, w1 int64) float64
	ov        *Overlap
}

// step is flattened step k of a schedule of steps rounds: round s,
// chunk q of its items. Each live sender i (mpi.Shift) sends its item
// ((i+off) mod n) &^ mask over row[i] streams (row nil: its own); a
// total replaces the receiver's sum instead of adding to it.
type step struct {
	mpi.Shift
	k, s, q, off, mask, steps int
	ring, total               bool
	row                       []int
}

// step is the generator, and shape its round s: a ring forwards item
// (i-s) mod n to its successor, what the step before brought; the
// pairwise exchange sends send_i[i+s+1] to i+s+1; recursive doubling
// swaps with i XOR 2^s its 2^s-aligned block (or sum); Bruck sends its
// run to i-2^s. In a binomial gather to member 0 each i ≡ 2^s (mod
// 2^(s+1)) sends its subtree's run to i-2^s; in the broadcast, from the
// top bit d down, each i ≡ 0 (mod 2d) with i+d < n sends to i+d; in a
// linear gather member s+1 sends to 0, and off a power of two the
// allreduce's second half sends the total from 0 to member s-n+2.
func (g *Group) step(op, k, Q int) (t step) {
	if table := g.shape(&t, op, k/Q); table != 0 {
		t.row = g.streamTable(table)[t.s]
	}
	t.k, t.q = k, k%Q
	return t
}

// shape writes round s of op into t and returns the op whose stream
// table prices it.
func (g *Group) shape(t *step, op, s int) (table int) {
	n := len(g.ranks)
	logn := bits.Len(uint(n - 1))
	t.s, t.From, t.Every, t.Below, t.steps = s, 0, 1, n, logn
	switch {
	case exchange(op):
		t.D, t.off, t.steps = s+1, s+1, n-1
	case op == tagBruck:
		t.D, table = n-1<<s, tagBruck
	case op == tagRecDouble || allreduce(op) && n&(n-1) == 0:
		t.D, t.Xor, t.mask, table = 1<<s, true, 1<<s-1, tagRecDouble
	case op == tagGather:
		t.D, t.From, t.Every, table = n-1<<s, 1<<s, 2<<s, tagGather
	case op == tagBcast: // every sender forwards item 0, the root's
		d := 1 << (max(logn, 1) - 1 - s)
		t.D, t.Every, t.Below, t.mask, table = d, 2*d, n-d, -1, tagBcast
	case op == tagToLeader:
		t.D, t.From, t.Every, t.steps = n-1-s, s+1, n, n-1
	case allreduce(op) && s < n-1:
		t.D, t.From, t.Every, t.steps = n-1-s, s+1, n, 2*(n-1)
	case allreduce(op):
		t.D, t.Every, t.total, t.steps = s-n+2, n, true, 2*(n-1)
	default:
		t.D, t.off, t.ring, t.steps = 1, n-s, true, n-1
	}
	return table
}

// item is the item member i of n sends at step t.
func (t *step) item(i, n int) int { return (i + t.off) % n &^ t.mask }

// runs reports whether op's items are runs of segments.
func runs(op int) bool { return op == tagRecDouble || op == tagBruck || op == tagGather }

// run is the segment count of the run from k at step s of op: a
// gather subtree's min(2^s, n-k), or min(2^s, n-2^s).
func (g *Group) run(op, s, k int) int {
	n := len(g.ranks)
	if op == tagGather {
		return min(1<<s, n-k)
	}
	return min(1<<s, n-1<<s)
}

// exchange reports whether op is the pairwise exchange (of vectors).
func exchange(op int) bool { return op == tagAlltoall || op == tagAlltoallC }

// allreduce reports whether op is an allreduce (of sums).
func allreduce(op int) bool { return op == tagAllreduce || op == tagAllreduceV }

// chunk is chunk q of a's segment k, or without a layout its buffer.
func (a *shiftArgs) chunk(k, q int) []uint64 {
	if a.l.Counts == nil {
		return a.buf
	}
	w0, w1 := chunkSpan(a.l, k, q, a.chunks)
	return a.buf[w0:w1]
}

// bytes is the raw size of a's item k, chunk q, at step s of schedule
// op: the run from k, or the item itself.
func (g *Group) bytes(a *shiftArgs, op, s, k, q int) int64 {
	if runs(op) {
		return g.runBytes(a.l, k, g.run(op, s, k))
	}
	return a.itemBytes(k, q)
}

// itemBytes is the raw size of a's item k, chunk q: its sum, its vector
// k, a broadcast's buffer or chunk q of segment k.
func (a *shiftArgs) itemBytes(k, q int) int64 {
	switch {
	case a.sum != nil:
		return int64(len(a.sum)) * 8
	case a.send != nil:
		return int64(len(a.send[k])) * 8
	case a.l.Counts == nil:
		return int64(len(a.buf)) * 8
	}
	w0, w1 := chunkSpan(a.l, k, q, a.chunks)
	return (w1 - w0) * 8
}

// put stores member src's raw vector k into a, at out[src] (alltoallv)
// or out[k] (list ring): an alias of the sender's, or in the table's
// own storage under a codec.
func (a *shiftArgs) put(op, src, k int, v []int64) {
	out := &a.out[[2]int{k, src}[b2i(exchange(op))]]
	if a.c != nil {
		v = append((*out)[:0], v...)
	}
	*out = v
}

// land stores member src's item k of step t, arrived as pl, into a and
// returns its decode time: a sum added in (a total in place), a run or a
// chunk copied or decoded into place, a vector put or decoded into the
// table.
func (g *Group) land(a *shiftArgs, op int, t *step, src, k int, pl *mpi.Payload) (ns float64) {
	switch {
	case a.sum != nil:
		if t.total {
			clear(a.sum)
		}
		addInto(a.sum, *pl)
	case runs(op):
		g.landRun(a.buf, a.l, pl, k, g.run(op, t.s, k))
	case a.send == nil && a.c == nil:
		copy(a.chunk(k, t.q), pl.Words)
	case a.send == nil:
		ns = a.c.Decode(a.chunk(k, t.q), pl.Wire)
	case a.c == nil:
		a.put(op, src, k, pl.Vals)
	default:
		out := &a.out[[2]int{k, src}[b2i(exchange(op))]]
		*out, ns = a.c.DecodeList(pl.Wire, (*out)[:0])
	}
	return ns
}

// shift runs schedule op (a tag base) as the member at position me,
// with arguments a; a lone member only scans its own chunks. Under a
// codec the exchange encodes every vector it sends, and a ring encodes
// its own item and forwards what it got.
func (g *Group) shift(p *mpi.Proc, me, op int, a *shiftArgs) {
	n := g.Size()
	if a.chunks = max(a.chunks, 1); n == 1 {
		a.scan(p, me, 0, a.chunks)
		return
	}
	var first step
	g.shape(&first, op, 0)
	steps := first.steps
	if forceMessages || !p.World().Injector().Replayable() {
		g.messages(p, me, op, steps, a)
		return
	}
	m := [2]int{a.chunks, n}[b2i(exchange(op))] * b2i(a.c != nil)
	if len(g.priced[me]) < m {
		g.priced[me] = make([]wire.Price, m)
	}
	for k := range m { // price what this member encodes, on its worker
		switch {
		case !exchange(op) && a.send != nil:
			g.priced[me][k], _ = a.c.PriceList(a.send[me])
		case !exchange(op):
			g.priced[me][k], _ = a.c.Price(a.chunk(me, k))
		case k != me:
			g.priced[me][k], _ = a.c.PriceList(a.send[k])
		}
	}
	for s := 0; exchange(op) && s < n-1; s++ { // its sends' sizes, by step
		g.setSize(op, s*n+me, a, me, (me+s+1)%n, 0)
	}
	g.posted[me], g.streams[me] = *a, a.streams
	g.gate.Pass(p, me, op, func() { g.walk(op, steps) })
	g.posted[me] = shiftArgs{} // pin no buffer past the call
}

// price is owner o's price of its item k, chunk q: an exchange prices
// each vector it sends, a ring the chunks of its own item.
func (g *Group) price(op, o, k, q int) wire.Price {
	return g.priced[o][[2]int{q, k}[b2i(exchange(op))]]
}

// messages is the first executor: member me posts each step's send and
// receive (only a live side's), waits for the receive, then the send (a
// send's ack arrives only once its receiver runs), books a pipelined
// ring's ledger and lands what it got. A ring holds each chunk it got
// until it forwards it as it came: an alias of the origin's buffer, or
// bytes still encoded in the origin's scratch (wire.EncodeSlot). A
// pipelined ring scans its own chunks while step 0 flies, and posts step
// k+1 before landing chunk k.
func (g *Group) messages(p *mpi.Proc, me, op, steps int, a *shiftArgs) {
	n, Q, ahead := g.Size(), a.chunks, op == tagSeg
	if len(g.held[me]) < Q {
		g.held[me] = make([]mpi.Payload, Q)
	}
	var sr, rr *mpi.Request
	for k := range steps * Q {
		t := g.step(op, k, Q)
		if k == 0 || !ahead {
			sr, rr = g.send(p, me, op, &t, a)
		}
		if k == 0 {
			a.scan(p, me, 0, Q)
		}
		ready := p.Clock()
		rr.Wait()
		sr.Wait()
		if rr == nil {
			continue
		}
		if ahead {
			a.ov.wait(p, ready, rr.BeginNs, rr.EndNs)
		}
		// Read the pooled Request's message before the next post reuses it.
		in := rr.Msg().Payload
		_, from := t.Peers(me, n)
		if want := t.item(from, n); in.ID != want {
			panic(fmt.Sprintf("collective: schedule %#x step %d expected item %d, got %d", op, t.k, want, in.ID))
		}
		g.held[me][t.q] = in
		if ahead && k+1 < steps*Q {
			next := g.step(op, k+1, Q)
			sr, rr = g.send(p, me, op, &next, a)
		}
		// A partial step's raw land makes no Compute call (a crash check).
		if ns := g.land(a, op, &t, from, in.ID, &in); t.Full(n) {
			p.Compute(ns)
		}
		a.scan(p, in.ID, t.q, t.q+1)
	}
	clear(g.held[me])
}

// send posts member me's send and receive of step t of schedule op, each
// if live (nil if not). A ring forwards the chunk it got Q steps before;
// otherwise the member sends its own item k: a sum, a run naming its
// first segment and its count (ID, Q) over the sender's buffer, a chunk
// or a vector, raw or encoded into slot t.k.
func (g *Group) send(p *mpi.Proc, me, op int, t *step, a *shiftArgs) (sr, rr *mpi.Request) {
	n := g.Size()
	to, from := t.Peers(me, n)
	k, st, tag := t.item(me, n), a.streams, op+t.k
	if t.row != nil {
		st = t.row[me]
	}
	if t.Sends(me) {
		pl, ns := g.held[me][t.q], 0.0
		switch {
		case t.ring && t.s > 0:
		case a.sum != nil:
			pl = sumPayload(a.sum, k)
		case runs(op):
			pl = mpi.Payload{ID: k, Q: g.run(op, t.s, k), Words: a.buf}
		case a.c == nil && a.send == nil:
			pl = mpi.Payload{ID: k, Q: t.q, Words: a.chunk(k, t.q)}
		case a.c == nil:
			pl = mpi.Payload{ID: k, Vals: a.send[k]}
		case a.send != nil:
			pl = mpi.Payload{ID: k}
			pl.Wire, ns = a.c.EncodeListSlot(a.send[k], t.k)
		default:
			pl = mpi.Payload{ID: k, Q: t.q}
			pl.Wire, ns = a.c.EncodeSlot(a.chunk(k, t.q), t.k)
		}
		p.Compute(ns)
		if a.c == nil {
			sr = p.IsendPayload(g.ranks[to], tag, g.bytes(a, op, t.s, k, t.q), pl, st)
		} else {
			sr = p.IsendWire(g.ranks[to], tag, pl, st)
		}
	}
	if t.Sends(from) {
		rr = p.Irecv(g.ranks[from], tag, nil)
	}
	return sr, rr
}

// walk replays schedule op as a result — its postcondition, written per
// receiver (receive) by idle workers and this one — and a price, each
// step's messages sized from the posted arguments alone (under a codec
// its price, the owner's encode charged at the item's first send, the
// receiver's decode after its wait) and priced by the gate here, in the
// order messages posts and lands them — each member's charges in its
// own order, which is all the order there is: members share no clock,
// so the walk takes each part of a step for all of them at once. A hook
// reads the chunk it is given, so a pipelined ring's result is in place
// before its walk.
func (g *Group) walk(op, steps int) {
	n, gt, ps := len(g.ranks), g.gate, g.posted
	Q, ahead := ps[0].chunks, op == tagSeg
	for i := 1; i < n && ps[0].sum != nil; i++ {
		for e, v := range ps[i].sum {
			ps[0].sum[e] += v
		}
	}
	g.op = op
	g.size(op, Q)
	g.result.Start()
	if ahead {
		g.result.Finish()
	}
	for k := range steps * Q {
		t := g.step(op, k, Q)
		if k == 0 || !ahead {
			g.post(op, &t)
		}
		for i := 0; i < n && k == 0; i++ {
			ps[i].scan(gt.Member(i), i, 0, Q)
		}
		for r := 0; r < n && ahead; r++ {
			g.ready[r] = gt.Member(r).Clock()
		}
		gt.Step(t.Shift)
		for r := 0; r < n && ahead; r++ {
			ps[r].ov.wait(gt.Member(r), g.ready[r], gt.Begin[r], gt.End[r])
		}
		if ahead && k+1 < steps*Q {
			next := g.step(op, k+1, Q)
			g.post(op, &next)
		}
		for r := 0; r < n && (ahead || ps[0].c != nil); r++ { // land: decode, scan
			p, a := gt.Member(r), &ps[r]
			_, from := t.Peers(r, n)
			j := t.item(from, n)
			if a.c != nil {
				p.Compute(a.c.Cost(g.price(op, [2]int{j, from}[b2i(exchange(op))], j, t.q), true))
			}
			a.scan(p, j, t.q, t.q+1)
		}
	}
	if !ahead {
		g.result.Finish()
	}
}

// size writes the walk's item sizes once, from the posted arguments:
// item k's chunk q at [q*n+k]; under a run schedule the cyclic prefix
// sums of the segments instead, whose differences are the runs (each
// segment sized by its own member's layout: every member passes one
// layout, as landing a run already assumes). An alltoallv's senders
// wrote their rows before the gate.
func (g *Group) size(op, Q int) {
	n, ps := len(g.ranks), g.posted
	if len(g.sizes[0]) < n*Q {
		g.sizes = [2][]int64{make([]int64, n*Q), make([]int64, n*Q)}
	}
	switch w := g.sizes[0]; {
	case exchange(op):
	case runs(op):
		w[0] = 0
		for j := range 2*n - 2 {
			w[j+1] = w[j] + ps[j%n].itemBytes(j%n, 0)
		}
	default:
		for q := range Q {
			for k := range n {
				g.setSize(op, q*n+k, &ps[k], k, k, q)
			}
		}
	}
}

// setSize writes the wire and raw sizes of owner o's item k, chunk q, at
// [at]: its raw size, or its owner's price under a codec.
func (g *Group) setSize(op, at int, a *shiftArgs, o, k, q int) {
	g.sizes[0][at] = a.itemBytes(k, q)
	g.sizes[1][at] = g.sizes[0][at]
	if a.c != nil {
		pr := g.price(op, o, k, q)
		g.sizes[0][at], g.sizes[1][at] = pr.WireBytes, pr.RawBytes
	}
}

// post posts every live sender's send of step t in the walk, sized from
// the walk's sizes: an alltoallv's row, or each sender's item (or run)
// gathered into sent. Under a codec the owner's encode is charged when
// it sends its own item.
func (g *Group) post(op int, t *step) {
	n, gt, coded := len(g.ranks), g.gate, g.posted[0].c != nil
	w, r := g.sent[0], g.sent[1]
	if exchange(op) {
		w, r = g.sizes[0][t.s*n:][:n], g.sizes[1][t.s*n:][:n]
	}
	for i := t.From; i < t.Below; i += t.Every {
		k := t.item(i, n)
		switch {
		case exchange(op):
		case runs(op):
			w[i] = g.sizes[0][k+g.run(op, t.s, k)] - g.sizes[0][k]
			r[i] = w[i]
		default:
			w[i], r[i] = g.sizes[0][t.q*n+k], g.sizes[1][t.q*n+k]
		}
		if o := [2]int{k, i}[b2i(exchange(op))]; coded && o == i {
			a := &g.posted[o]
			gt.Member(i).Compute(a.c.Cost(g.price(op, o, k, t.q), false))
		}
	}
	st := t.row
	if st == nil {
		st = g.streams
	}
	gt.Post(t.Shift, w, r, st)
}

// receive writes receiver r's result of schedule g.op: the total walk
// summed into member 0's accumulator, or a broadcast's buffer, copied
// from the root; or every other member j's item for r (its own segment
// or vector j, or under an alltoallv its vector r), put in place —
// under a gather only r's subtree's.
func (g *Group) receive(r int) {
	a, ps := &g.posted[r], g.posted
	if a.sum != nil || g.op == tagBcast {
		if r > 0 {
			copy(a.sum, ps[0].sum)
			copy(a.buf, ps[0].buf)
		}
		return
	}
	lo, hi := 0, len(ps)
	switch {
	case r > 0 && g.op == tagGather:
		lo, hi = r, min(r+r&-r, hi)
	case r > 0 && g.op == tagToLeader:
		return
	}
	for j := lo; j < hi; j++ {
		switch k := [2]int{j, r}[b2i(exchange(g.op))]; {
		case j == r:
		case a.send == nil:
			copy(a.l.seg(a.buf, k), ps[j].l.seg(ps[j].buf, k))
		default:
			a.put(g.op, j, k, ps[j].send[k])
		}
	}
}
