package chassis

import (
	"fmt"

	"numabfs/internal/mpi"
	"numabfs/internal/obs"
)

// Members is the job's member table: which world rank holds each member
// position (a 1-D partition position, a 2-D grid cell, a batched lane
// state), and the hot spares parked beside them. Every engine indexes
// its per-member state by position, so a promotion re-binds a position
// to another rank and no state moves.
//
// At construction the last `spares` ranks of every node are parked; the
// others, in rank order, are the members. Promotion (Core.Run) only
// takes a spare of the dead rank's node, so every node keeps the same
// member population and its members stay contiguous in position order —
// the shape the node communicator (collective.NodeCommRanks) requires.
type Members struct {
	ranks  []int   // position -> rank
	pos    []int   // rank -> position; -1 for parked spares and dead ranks
	spares [][]int // per node: its parked spares, lowest rank first
}

// newMembers parks the last spares ranks of every node of w.
func newMembers(w *mpi.World, spares int) (Members, error) {
	ppn := w.ProcsPerNode()
	if spares < 0 || spares >= ppn {
		return Members{}, fmt.Errorf("chassis: %d spare ranks per node outside [0, %d): every node keeps an active rank", spares, ppn)
	}
	m := Members{pos: make([]int, w.NumProcs()), spares: make([][]int, w.Config().Nodes)}
	var parked []int
	for rank := range m.pos {
		p := w.Proc(rank)
		if p.LocalRank() < ppn-spares {
			m.pos[rank] = len(m.ranks)
			m.ranks = append(m.ranks, rank)
			continue
		}
		m.pos[rank] = -1
		m.spares[p.Node()] = append(m.spares[p.Node()], rank)
		parked = append(parked, rank)
	}
	if len(parked) > 0 {
		w.Park(parked)
	}
	return m, nil
}

// Ranks returns the rank of every position, in position order (aliases
// the table; do not modify).
func (m *Members) Ranks() []int { return m.ranks }

// Rank returns the rank holding position pos.
func (m *Members) Rank(pos int) int { return m.ranks[pos] }

// Pos returns the position rank holds, -1 for a parked spare or a dead
// rank.
func (m *Members) Pos(rank int) int { return m.pos[rank] }

// promote is the one spare rule: the first parked spare of the dead
// rank's node takes the dead rank's position, and the world swaps them
// (a new epoch). With no spare left on that node it does nothing and
// returns ok == false — the dead rank reruns in place.
func (c *Core) promote(dead int, floor float64) (pos int, ok bool) {
	m := &c.Members
	node := c.W.Proc(dead).Node()
	if len(m.spares[node]) == 0 {
		return 0, false
	}
	spare := m.spares[node][0]
	m.spares[node] = m.spares[node][1:]
	pos = m.pos[dead]
	c.W.Promote(spare, dead)
	m.ranks[pos], m.pos[spare], m.pos[dead] = spare, pos, -1
	c.W.Proc(spare).Obs().FaultEvent("promote", floor)
	c.W.Proc(m.ranks[0]).Obs().Sample(obs.GaugeLiveRanks, floor, float64(len(m.ranks)))
	return pos, true
}
