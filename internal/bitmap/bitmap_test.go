package bitmap

import (
	"testing"
	"testing/quick"

	"numabfs/internal/xrand"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int64{0, 1, 63, 64, 65, 1000} {
		b := New(n)
		if b.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, b.Len())
		}
		if want := (n + 63) / 64 * 8; b.Bytes() != want {
			t.Errorf("New(%d).Bytes() = %d, want %d", n, b.Bytes(), want)
		}
		if b.Count() != 0 {
			t.Errorf("New(%d) has set bits", n)
		}
	}
}

func TestSetGetClear(t *testing.T) {
	b := New(200)
	for _, i := range []int64{0, 1, 63, 64, 127, 128, 199} {
		if b.Get(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	b.Clear(64)
	if b.Get(64) {
		t.Fatal("bit 64 set after Clear")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("bits remain after Reset")
	}
}

func TestFromWordsShares(t *testing.T) {
	words := make([]uint64, 4)
	a := FromWords(words, 256)
	c := FromWords(words, 256)
	a.Set(130)
	if !c.Get(130) {
		t.Fatal("views over the same words do not share")
	}
}

func TestFromWordsTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromWords(make([]uint64, 1), 65)
}

func TestCopyOrEqual(t *testing.T) {
	a, b := New(130), New(130)
	a.Set(0)
	a.Set(129)
	b.Set(0)
	b.Set(129)
	if !a.Equal(b) {
		t.Fatal("copies not equal")
	}
	c := New(130)
	c.Set(5)
	c.OrFrom(a)
	if !c.Get(0) || !c.Get(5) || !c.Get(129) || c.Count() != 3 {
		t.Fatal("OrFrom wrong")
	}
	if a.Equal(New(131)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestForEachSet(t *testing.T) {
	b := New(300)
	want := []int64{3, 64, 65, 255, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []int64
	b.ForEachSet(func(i int64) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestCountMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, nSmall uint16) bool {
		n := int64(nSmall%2000) + 1
		b := New(n)
		rng := xrand.NewXoshiro256(seed)
		set := make(map[int64]bool)
		for k := 0; k < 100; k++ {
			i := int64(rng.Uint64n(uint64(n)))
			b.Set(i)
			set[i] = true
		}
		if b.Count() != int64(len(set)) {
			return false
		}
		for i := int64(0); i < n; i++ {
			if b.Get(i) != set[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
