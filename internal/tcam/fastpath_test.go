package tcam

import (
	"math/rand"
	"testing"
)

// naiveSearch is the reference TCAM semantics: lowest-index valid entry
// whose pattern family contains key, via the documented TEntry.Matches
// predicate rather than the precomputed match-line constants.
func naiveSearch(t *TCAM, key uint32) (int, bool) {
	for i := 0; i < t.size; i++ {
		if e, _, ok := t.SlotState(i); ok && e.Matches(key) {
			return i, true
		}
	}
	return 0, false
}

// TestTCAMFastPathEquivalence hammers the precomputed-mask fast path
// with a randomized insert/invalidate/search workload and checks every
// search against the naive sweep — including the degenerate entries
// (Mask all ones: matches everything; Mask 0: exact match) and searches
// against a TCAM whose top entries were invalidated (the hi bound).
func TestTCAMFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tc := NewTCAM(16)
	masks := []uint32{0, 0xFF, 0xFFFF0000, 0xFFFFFFFF, 0x0F0F0F0F}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			tc.Insert(TEntry{
				Value: uint32(rng.Intn(1 << 12)),
				Mask:  masks[rng.Intn(len(masks))],
			})
		case r < 5:
			tc.InvalidateIndex(rng.Intn(tc.size + 2)) // +2: out-of-range must be a no-op
		default:
			key := uint32(rng.Intn(1 << 12))
			wantIdx, wantOK := naiveSearch(tc, key)
			// Peek the frequency before: a hit must bump exactly the
			// matched entry.
			var freqBefore uint64
			if wantOK {
				freqBefore = freqAt(tc, wantIdx)
			}
			gotIdx, gotOK := tc.Search(key)
			if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
				t.Fatalf("op %d: Search(%#x) = (%d,%v), naive sweep says (%d,%v)",
					op, key, gotIdx, gotOK, wantIdx, wantOK)
			}
			if wantOK && freqAt(tc, wantIdx) != freqBefore+1 {
				t.Fatalf("op %d: hit did not bump freq of entry %d", op, wantIdx)
			}
		}
	}
}

// TestTCAMFastPathStats pins the hardware-faithful access counts: scan
// eliminations (match-line constants, hi bound) must not change the
// Searches/Hits/Writes counters the power model consumes.
func TestTCAMFastPathStats(t *testing.T) {
	tc := NewTCAM(8)
	tc.Insert(TEntry{Value: 0x100, Mask: 0xFF}) // idx 0
	tc.Insert(TEntry{Value: 0x200, Mask: 0})    // idx 1
	tc.Insert(TEntry{Value: 0x300, Mask: 0xFF}) // idx 2

	// A miss still counts as one search: hardware fires every match line
	// regardless of occupancy.
	tc.Search(0x999)
	// Hits on each populated region.
	tc.Search(0x1AB) // idx 0 family
	tc.Search(0x200) // idx 1 exact
	tc.Search(0x3CD) // idx 2 family
	// Invalidating the top entry lowers the scan bound; a search for its
	// family now misses but still counts.
	tc.InvalidateIndex(2)
	if _, ok := tc.Search(0x3CD); ok {
		t.Fatal("search matched an invalidated entry")
	}
	st := tc.Stats()
	if st.Searches != 5 || st.Hits != 3 || st.Writes != 3 {
		t.Fatalf("stats = %+v, want Searches:5 Hits:3 Writes:3", st)
	}
}

// TestCAMHiBound covers the scan bound across the same
// invalidate-at-the-top sequence with entries that mask no bits.
func TestCAMHiBound(t *testing.T) {
	c := NewTCAM(8)
	for i := 0; i < 5; i++ {
		c.Insert(exact(uint32(100 + i)))
	}
	c.InvalidateIndex(4)
	c.InvalidateIndex(3)
	if _, ok := c.Search(104); ok {
		t.Fatal("search matched an invalidated entry")
	}
	if idx, ok := c.Search(102); !ok || idx != 2 {
		t.Fatalf("Search(102) = (%d,%v), want (2,true)", idx, ok)
	}
	// Reinsert lands in the freed slot and is findable again.
	if idx, _, _ := c.Insert(exact(200)); idx != 3 {
		t.Fatalf("insert after invalidation landed at %d, want 3", idx)
	}
	if idx, ok := c.Search(200); !ok || idx != 3 {
		t.Fatalf("Search(200) = (%d,%v), want (3,true)", idx, ok)
	}
}
