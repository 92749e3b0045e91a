package tcam

import (
	"testing"
	"testing/quick"
)

// exact is the entry a binary CAM stores for pattern: no bit masked.
func exact(pattern uint32) TEntry { return TEntry{Value: pattern} }

// freqAt returns slot i's frequency counter, 0 when the slot is invalid.
func freqAt(t *TCAM, i int) uint64 {
	_, f, _ := t.SlotState(i)
	return f
}

func TestCAMLookupMissOnEmpty(t *testing.T) {
	c := NewCAM(4)
	if _, ok := c.Lookup(42); ok {
		t.Fatal("empty CAM reported a hit")
	}
	if c.Stats().Searches != 1 || c.Stats().Hits != 0 {
		t.Fatalf("stats %+v", c.Stats())
	}
}

func TestCAMInsertLookup(t *testing.T) {
	c := NewTCAM(4)
	idx, _, ev := c.Insert(exact(7))
	if ev {
		t.Fatal("eviction from empty CAM")
	}
	got, ok := c.Search(7)
	if !ok || got != idx {
		t.Fatalf("lookup after insert: idx=%d ok=%v want %d", got, ok, idx)
	}
	if _, ok := c.Search(6); ok {
		t.Fatal("an entry that masks no bits matched a different key")
	}
	if c.Entries() != 1 {
		t.Fatalf("entries = %d", c.Entries())
	}
}

func TestCAMDuplicateInsertRefreshes(t *testing.T) {
	c := NewTCAM(2)
	i1, _, _ := c.Insert(exact(5))
	i2, _, ev := c.Insert(exact(5))
	if i1 != i2 || ev {
		t.Fatal("duplicate insert allocated a new slot or evicted")
	}
	if c.Entries() != 1 || freqAt(c, i1) != 2 {
		t.Fatalf("entries = %d, freq = %d, want 1 and 2", c.Entries(), freqAt(c, i1))
	}
}

func TestCAMEvictsLowestFrequency(t *testing.T) {
	c := NewCAM(2)
	c.Insert(1)
	c.Insert(2)
	// Make pattern 1 hot.
	for i := 0; i < 5; i++ {
		c.Lookup(1)
	}
	_, evicted, had := c.Insert(3)
	if !had || evicted != 2 {
		t.Fatalf("evicted %d (had=%v), want cold pattern 2", evicted, had)
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("hot pattern was evicted")
	}
}

func TestCAMInvalidate(t *testing.T) {
	c := NewTCAM(2)
	idx, _, _ := c.Insert(exact(9))
	c.InvalidateIndex(idx)
	if _, ok := c.Search(9); ok {
		t.Fatal("pattern survives invalidation")
	}
	if c.Entries() != 0 {
		t.Fatalf("entries = %d after invalidating the only one", c.Entries())
	}
	c.InvalidateIndex(-1) // out of range must be a no-op
	c.InvalidateIndex(99)
}

func TestCAMZeroSize(t *testing.T) {
	c := NewCAM(0)
	if _, _, ev := c.Insert(1); ev {
		t.Fatal("zero-size CAM evicted")
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("zero-size CAM hit")
	}
}

func TestCAMNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCAM(-1)
}

func TestTEntryMatches(t *testing.T) {
	e := TEntry{Value: 0b1001, Mask: 0b0011} // pattern 10xx
	for v := uint32(0b1000); v <= 0b1011; v++ {
		if !e.Matches(v) {
			t.Errorf("10xx should match %04b", v)
		}
	}
	for _, v := range []uint32{0b0000, 0b0111, 0b1100, 0b1111} {
		if e.Matches(v) {
			t.Errorf("10xx should not match %04b", v)
		}
	}
}

func TestTEntryMatchesProperty(t *testing.T) {
	// Any value differing from Value only in masked bits matches.
	f := func(value, mask, noise uint32) bool {
		e := TEntry{Value: value, Mask: mask}
		return e.Matches(value ^ (noise & mask))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Any value differing in an unmasked bit does not match.
	g := func(value, mask uint32, bit uint8) bool {
		b := uint32(1) << (bit % 32)
		if mask&b != 0 {
			return true // bit is masked; skip
		}
		e := TEntry{Value: value, Mask: mask}
		return !e.Matches(value ^ b)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCAMSearchPriorityOrder(t *testing.T) {
	tc := NewTCAM(4)
	tc.Insert(TEntry{Value: 0b1000, Mask: 0b0111}) // 1xxx at index 0
	tc.Insert(TEntry{Value: 0b1010, Mask: 0b0001}) // 101x at index 1
	idx, ok := tc.Search(0b1010)                   // both match; priority encoder picks 0
	if !ok || idx != 0 {
		t.Fatalf("search returned %d ok=%v, want index 0", idx, ok)
	}
}

func TestTCAMInsertDuplicateEntry(t *testing.T) {
	tc := NewTCAM(2)
	e := TEntry{Value: 4, Mask: 3}
	i1, _, _ := tc.Insert(e)
	i2, _, ev := tc.Insert(e)
	if i1 != i2 || ev {
		t.Fatal("identical entry not coalesced")
	}
	if tc.Entries() != 1 {
		t.Fatalf("entries = %d", tc.Entries())
	}
}

func TestTCAMEvictsColdEntry(t *testing.T) {
	tc := NewTCAM(2)
	tc.Insert(TEntry{Value: 0x10, Mask: 0})
	tc.Insert(TEntry{Value: 0x20, Mask: 0})
	for i := 0; i < 3; i++ {
		tc.Search(0x20)
	}
	_, evicted, had := tc.Insert(TEntry{Value: 0x30, Mask: 0})
	if !had || evicted.Value != 0x10 {
		t.Fatalf("evicted %+v (had=%v), want cold 0x10", evicted, had)
	}
}

func TestTCAMInvalidateAndEntryAt(t *testing.T) {
	tc := NewTCAM(2)
	e := TEntry{Value: 1, Mask: 0}
	idx, _, _ := tc.Insert(e)
	got, _, ok := tc.SlotState(idx)
	if !ok || got != e {
		t.Fatalf("SlotState = %+v ok=%v", got, ok)
	}
	if freqAt(tc, idx) != 1 {
		t.Fatalf("freq = %d", freqAt(tc, idx))
	}
	tc.InvalidateIndex(idx)
	if _, _, ok := tc.SlotState(idx); ok {
		t.Fatal("entry survives invalidation")
	}
	if freqAt(tc, idx) != 0 {
		t.Fatal("freq survives invalidation")
	}
}

func TestTCAMZeroSize(t *testing.T) {
	tc := NewTCAM(0)
	if _, ok := tc.Search(0); ok {
		t.Fatal("zero-size TCAM hit")
	}
	if _, _, ev := tc.Insert(TEntry{}); ev {
		t.Fatal("zero-size TCAM evicted")
	}
}

func TestTCAMStats(t *testing.T) {
	tc := NewTCAM(2)
	tc.Insert(TEntry{Value: 5, Mask: 0})
	tc.Search(5)
	tc.Search(6)
	s := tc.Stats()
	if s.Searches != 2 || s.Hits != 1 || s.Writes != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCAMVictimPrefersInvalidSlot(t *testing.T) {
	c := NewTCAM(3)
	c.Insert(exact(1))
	i2, _, _ := c.Insert(exact(2))
	c.Insert(exact(3))
	c.InvalidateIndex(i2)
	idx, _, had := c.Insert(exact(4))
	if had || idx != i2 {
		t.Fatalf("insert used slot %d (evict=%v), want freed slot %d", idx, had, i2)
	}
}
