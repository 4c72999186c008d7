package chassis

import (
	"sync"
	"sync/atomic"

	"numabfs/internal/graph"
	"numabfs/internal/machine"
	"numabfs/internal/rmat"
)

// GraphCache caches constructed 1-D graphs across runs: experiment
// sweeps rerun many optimization levels and knob settings over the
// identical R-MAT graph, and kernel 1 (generation + CSR build) is by far
// the slowest host-time step of a run. Entries are keyed by everything
// that determines the per-member CSR content and the modelled
// construction time (GraphKey), so a hit is bit-identical to a fresh
// build, including SetupNs. Both 1-D engines partition identically, so
// a graph built by one serves the other.
//
// Lookups are singleflight so the cache stays deterministic under the
// parallel experiment runner: the first requester of a key becomes the
// build leader (counted as the one miss), later requesters count as hits
// and wait for the leader's commit instead of each building — and
// mis-counting — their own copy. Hit/miss totals therefore match the
// sequential schedule exactly. The cached CSRs are shared read-only.
type GraphCache struct {
	mu      sync.Mutex
	entries map[GraphKey]*graphEntry

	hits, misses atomic.Int64
}

// GraphKey is everything that determines a 1-D graph's per-member CSRs
// and its modelled construction time.
type GraphKey struct {
	Machine machine.Config
	Policy  machine.Policy
	Params  rmat.Params
	Dedup   bool
	// Spares changes the active member count and with it the partition,
	// so per-member CSR content differs per spare setting.
	Spares int
}

// graphEntry is one cache slot. ready is closed when the leader commits
// (csrs non-nil) or abandons (csrs nil — the build failed; followers
// fall back to building their own).
type graphEntry struct {
	ready   chan struct{}
	csrs    []*graph.CSR
	setupNs float64
}

// NewGraphCache returns an empty cache.
func NewGraphCache() *GraphCache {
	return &GraphCache{entries: make(map[GraphKey]*graphEntry)}
}

// Stats returns the lookup counters: hits (construction skipped or
// awaited from a concurrent leader) and misses (built fresh).
func (c *GraphCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Setup runs a runner's Setup through the cache (nil = no cache, plain
// setup): the key's first requester builds and publishes its CSRs and
// construction time, later ones install the published build first, so
// their Setup skips kernel 1.
func (c *GraphCache) Setup(k GraphKey, core *Core, g *Graph1D, setup func()) error {
	if c == nil {
		setup()
		return nil
	}
	e, leader := c.acquire(k)
	if leader {
		// If setup panics before the commit, release the claim so waiting
		// followers don't hang.
		committed := false
		defer func() {
			if !committed {
				c.abandon(k, e)
			}
		}()
		setup()
		c.commit(e, g.CSRs(), core.SetupNs)
		committed = true
		return nil
	}
	if csrs, setupNs, ok := e.wait(); ok {
		if err := g.UsePrebuilt(csrs, setupNs); err != nil {
			return err
		}
	}
	setup()
	return nil
}

// acquire claims the key. The first requester gets leader=true — it must
// build and then either commit or abandon the entry. Followers get the
// existing entry to wait() on.
func (c *GraphCache) acquire(k GraphKey) (e *graphEntry, leader bool) {
	c.mu.Lock()
	e = c.entries[k]
	if e == nil {
		e = &graphEntry{ready: make(chan struct{})}
		c.entries[k] = e
		leader = true
	}
	c.mu.Unlock()
	if leader {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e, leader
}

// commit publishes the leader's build and releases waiting followers.
func (c *GraphCache) commit(e *graphEntry, csrs []*graph.CSR, setupNs float64) {
	e.csrs = csrs
	e.setupNs = setupNs
	close(e.ready)
}

// abandon releases a leader's claim after a failed build: the slot is
// removed (a later requester becomes a fresh leader) and current waiters
// are woken to build on their own.
func (c *GraphCache) abandon(k GraphKey, e *graphEntry) {
	c.mu.Lock()
	if c.entries[k] == e {
		delete(c.entries, k)
	}
	c.mu.Unlock()
	close(e.ready)
}

// wait blocks until the entry's leader commits or abandons. ok reports
// whether a build was published.
func (e *graphEntry) wait() (csrs []*graph.CSR, setupNs float64, ok bool) {
	<-e.ready
	return e.csrs, e.setupNs, e.csrs != nil
}
