package chassis

import "testing"

// TestGraphCacheAbandonReleasesFollowers: when the leader's build dies,
// followers must not hang — they are woken, build independently, and a
// later requester becomes a fresh leader.
func TestGraphCacheAbandonReleasesFollowers(t *testing.T) {
	c := NewGraphCache()
	k := GraphKey{Dedup: true}
	e, leader := c.acquire(k)
	if !leader {
		t.Fatal("first acquire not leader")
	}
	done := make(chan bool)
	go func() {
		_, _, ok := e.wait()
		done <- ok
	}()
	c.abandon(k, e)
	if ok := <-done; ok {
		t.Fatal("follower saw a committed build after abandon")
	}
	if _, leader := c.acquire(k); !leader {
		t.Fatal("post-abandon acquire should be a fresh leader")
	}
	if h, m := c.Stats(); h != 0 || m != 2 {
		t.Fatalf("counters: hits=%d misses=%d, want 0/2", h, m)
	}
}
