package collective

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"numabfs/internal/mpi"
)

// golden pins, as FNV-1a hashes over exact float bits, what every
// allgather combination that existed before the scheme/exchange API
// computed at the parent commit (3ab9ee4, captured there through the
// then-separate entry points named in the keys): per-member final
// clocks, StepTimes, the Overlap ledger, and the network's wire and raw
// volumes, on the full 4x8 world. "Raw is the nil codec" and "in place
// is the nil source" are exact identities, not approximations — a
// changed hash is a changed clock. The 3x6 keys were captured at
// d4392b1, the same way.
var golden = map[string]uint64{
	"3x6/allreduce":            0x25c5b54e1f49b137,
	"3x6/leader":               0x12bb558a24397df8,
	"3x6/leader-comp":          0x30ccdd1d28980ab8,
	"3x6/shared-inq":           0x2dafc67bb346092e,
	"4x8/allgatherv":           0x14e4c8578c78e47b,
	"4x8/allgatherv-comp":      0x9da750b8afc407d1,
	"4x8/alltoallv":            0x910c7202eb7e68cc,
	"4x8/alltoallv-comp":       0xa19c060325a7c7c3,
	"4x8/leader":               0xf1803cf8d861c5e2,
	"4x8/leader-comp":          0x8dc42ec7043a8ef4,
	"4x8/lib":                  0x81d84fc2a85b7a59,
	"4x8/par":                  0x47ebfa40ee8bbcb5,
	"4x8/par-comp":             0xd97425e7781387ba,
	"4x8/par-inplace":          0xca31b2c5a9175f35,
	"4x8/par-inplace-comp":     0x44dbeb292b1993ba,
	"4x8/par-seg-comp-q1":      0x5e8f1cac4323030f,
	"4x8/par-seg-comp-q1-hook": 0x17320032d445a19a,
	"4x8/par-seg-comp-q2":      0xfb537827fbb75371,
	"4x8/par-seg-comp-q2-hook": 0xff59cc9426fd682f,
	"4x8/par-seg-comp-q7":      0x589bc32339f82598,
	"4x8/par-seg-comp-q7-hook": 0x71fec0f99f9efadb,
	"4x8/par-seg-q1":           0xd9b24823472d8f9a,
	"4x8/par-seg-q1-hook":      0x15442f907a6e82e7,
	"4x8/par-seg-q2":           0xc84f351105c66811,
	"4x8/par-seg-q2-hook":      0x81d798a40510cecf,
	"4x8/par-seg-q7":           0xc1402171950a5baf,
	"4x8/par-seg-q7-hook":      0xbd20bcf9672c1c95,
	"4x8/ring":                 0xe9d6669195fc3133,
	"4x8/ring-comp":            0x9c52d0678e36a13e,
	"4x8/shared-all":           0xfa0f24af791045ec,
	"4x8/shared-inplace":       0x3dd3f67579d83855,
	"4x8/shared-inq":           0x00b127a792233fac,
}

func goldenHook(w0, w1 int64) float64 { return float64(w1-w0) * 0.37 }

// goldenCell names one allgather call in the terms of the API.
type goldenCell struct {
	name   string
	s      Scheme
	staged bool
	codec  bool
	q      int
	hook   bool
}

func goldenCells() []goldenCell {
	cs := []goldenCell{
		{name: "lib", s: SchemeLibrary},
		{name: "leader", s: SchemeLeader},
		{name: "leader-comp", s: SchemeLeader, codec: true},
		{name: "shared-inq", s: SchemeSharedIn, staged: true},
		{name: "shared-all", s: SchemeSharedAll, staged: true},
		{name: "shared-inplace", s: SchemeSharedAll},
		{name: "par", s: SchemeParallel, staged: true},
		{name: "par-inplace", s: SchemeParallel},
		{name: "par-comp", s: SchemeParallel, staged: true, codec: true},
		{name: "par-inplace-comp", s: SchemeParallel, codec: true},
	}
	for _, q := range []int{1, 2, 7} {
		for _, hook := range []bool{false, true} {
			for _, codec := range []bool{false, true} {
				name := "par-seg"
				if codec {
					name += "-comp"
				}
				name += fmt.Sprintf("-q%d", q)
				if hook {
					name += "-hook"
				}
				cs = append(cs, goldenCell{name, SchemeParallel, true, codec, q, hook})
			}
		}
	}
	return cs
}

// goldenLists returns member pos's outgoing vectors for the list
// collectives (the allgatherv contributes the first).
func goldenLists(pos, n int) [][]int64 {
	out := make([][]int64, n)
	for d := range out {
		v := make([]int64, (pos*3+d*5)%11)
		for k := range v {
			v[k] = int64(pos*1000 + d*17 + k*k)
		}
		out[d] = v
	}
	return out
}

type goldenHash struct{ hash.Hash64 }

func (g goldenHash) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	g.Write(b[:])
}

func (g goldenHash) f64(x float64) { g.u64(math.Float64bits(x)) }

func TestGoldenIdentityWithParent(t *testing.T) {
	check := func(key string, e *agEnv, perRank func(h goldenHash, r int)) {
		t.Helper()
		h := goldenHash{fnv.New64a()}
		for _, r := range e.g.Ranks() {
			h.f64(e.w.Proc(r).Clock())
			perRank(h, r)
		}
		vol := e.w.Net().Volume()
		for _, b := range []int64{vol.IntraBytes, vol.InterBytes, vol.RawIntraBytes, vol.RawInterBytes} {
			h.u64(uint64(b))
		}
		want, ok := golden[key]
		if !ok {
			t.Errorf("%s: no golden value (they are captured at the parent commit, not here)", key)
		} else if got := h.Sum64(); got != want {
			t.Errorf("%s: hash %#016x, parent commit computed %#016x", key, got, want)
		}
	}

	cell := func(geo agGeo, c goldenCell) {
		e := newAgEnv(t, geo)
		sts := make([]StepTimes, e.w.NumProcs())
		e.w.Run(func(p *mpi.Proc) {
			dst, src := e.buffers(p, c.s, c.staged)
			var hook func(w0, w1 int64) float64
			if c.hook {
				hook = goldenHook
			}
			sts[p.Rank()] = e.nc.Allgather(p, c.s, dst, src, e.l, e.exchange(p, c.codec, c.q, hook))
			checkVaried(t, geo.name+"/"+c.name, p.Rank(), dst, e.l)
		})
		check(geo.name+"/"+c.name, e, func(h goldenHash, r int) {
			h.f64(sts[r].GatherNs)
			h.f64(sts[r].InterNs)
			h.f64(sts[r].BcastNs)
			if c.q > 0 {
				h.f64(e.ovs[r].HiddenNs)
				h.f64(e.ovs[r].ExposedNs)
				h.u64(uint64(e.ovs[r].Segments))
			}
		})
	}

	// Node groups of 6 and an 18-member world: the binomial trees with
	// idle members in every round, the linear gather to the leader and
	// the linear allreduce, pinned where each was still a message loop
	// (d4392b1).
	odd := agGeo{"3x6", 3, 6, 1301}
	for _, c := range goldenCells()[1:4] { // leader, leader-comp, shared-inq
		cell(odd, c)
	}
	e := newAgEnv(t, odd)
	sums := make([]int64, e.w.NumProcs())
	e.w.Run(func(p *mpi.Proc) {
		p.Compute(float64(p.Rank()%4) * 700)
		lanes := [64]int64{5: int64(p.Rank())}
		e.g.AllreduceSumVec64(p, &lanes)
		sums[p.Rank()] = e.g.AllreduceSumInt64(p, lanes[5]+int64(p.Rank()))
	})
	check("3x6/allreduce", e, func(h goldenHash, r int) { h.u64(uint64(sums[r])) })

	for _, geo := range agGeos[:1] {
		for _, c := range goldenCells() {
			cell(geo, c)
		}

		// The whole-group ring keeps its two names; StepTimes hash as zero.
		for _, codec := range []bool{false, true} {
			e := newAgEnv(t, geo)
			key := geo.name + "/ring"
			if codec {
				key += "-comp"
			}
			e.w.Run(func(p *mpi.Proc) {
				buf := e.private(p)
				if codec {
					e.g.AllgatherRingCompressed(p, buf, e.l, e.codecs[p.Rank()])
				} else {
					e.g.AllgatherRing(p, buf, e.l)
				}
				checkVaried(t, key, p.Rank(), buf, e.l)
			})
			check(key, e, func(h goldenHash, r int) { h.f64(0); h.f64(0); h.f64(0) })
		}

		for _, name := range []string{"allgatherv", "allgatherv-comp", "alltoallv", "alltoallv-comp"} {
			e := newAgEnv(t, geo)
			n := e.g.Size()
			gather := strings.HasPrefix(name, "allgatherv")
			e.w.Run(func(p *mpi.Proc) {
				me := e.g.Pos(p.Rank())
				c := e.codecs[p.Rank()]
				if !strings.HasSuffix(name, "-comp") {
					c = nil
				}
				var out [][]int64
				if gather {
					out = e.g.AllgathervInt64(p, goldenLists(me, n)[0], nil, c)
				} else {
					out = e.g.AlltoallvInt64Into(p, goldenLists(me, n), nil, c)
				}
				for src := 0; src < n; src++ {
					want := goldenLists(src, n)[me]
					if gather {
						want = goldenLists(src, n)[0]
					}
					if fmt.Sprint(out[src]) != fmt.Sprint(want) {
						t.Errorf("%s/%s: rank %d: out[%d] = %v, want %v", geo.name, name, p.Rank(), src, out[src], want)
					}
				}
			})
			check(geo.name+"/"+name, e, func(goldenHash, int) {})
		}
	}
}
