package tcam

import "testing"

// RestoreSlot edge cases, on entries that mask no bits (the binary-CAM
// case) and on masked ones: restoring an invalid slot at the current hi
// boundary must lower the scan bound, restoring a valid slot above hi
// must raise it, and SlotState/RestoreSlot round trips must rebuild the
// bit-sliced planes so searches behave exactly as on the source table.

func TestCAMRestoreSlotHiBoundary(t *testing.T) {
	c := NewTCAM(8)
	for i := 0; i < 5; i++ {
		c.Insert(exact(uint32(100 + i))) // slots 0..4, hi = 5
	}
	// Restore-invalid at the hi boundary: slot 4 is the top valid entry;
	// clearing it must drop hi so the former top pattern misses.
	c.RestoreSlot(4, TEntry{}, 0, false)
	if _, ok := c.Search(104); ok {
		t.Fatal("search matched a restore-invalidated boundary entry")
	}
	if _, ok := c.SearchNaive(104); ok {
		t.Fatal("naive search matched a restore-invalidated boundary entry")
	}
	// Restore-valid above hi: slot 7 sits past every valid entry; the
	// restored pattern must be findable (hi raised) through both paths.
	c.RestoreSlot(7, exact(777), 3, true)
	if idx, ok := c.Search(777); !ok || idx != 7 {
		t.Fatalf("Search(777) = (%d,%v), want (7,true)", idx, ok)
	}
	if idx, ok := c.SearchNaive(777); !ok || idx != 7 {
		t.Fatalf("SearchNaive(777) = (%d,%v), want (7,true)", idx, ok)
	}
	if got := freqAt(c, 7); got != 3+2 { // restored freq plus the two hits
		t.Fatalf("slot 7 freq = %d, want 5", got)
	}
	c.RestoreSlot(7, TEntry{}, 0, false)
	if _, ok := c.Search(777); ok {
		t.Fatal("search matched a slot restored to invalid")
	}
}

func TestTCAMRestoreSlotHiBoundary(t *testing.T) {
	tc := NewTCAM(8)
	for i := 0; i < 5; i++ {
		tc.Insert(TEntry{Value: uint32(i) << 8, Mask: 0xFF}) // slots 0..4
	}
	// Restore-invalid at the hi boundary.
	tc.RestoreSlot(4, TEntry{}, 0, false)
	if _, ok := tc.Search(4 << 8); ok {
		t.Fatal("search matched a restore-invalidated boundary entry")
	}
	if _, ok := tc.SearchNaive(4 << 8); ok {
		t.Fatal("naive search matched a restore-invalidated boundary entry")
	}
	// Restore-valid above hi: the rebuilt planes must match the family.
	tc.RestoreSlot(7, TEntry{Value: 0xAA00, Mask: 0xFF}, 2, true)
	if idx, ok := tc.Search(0xAA3C); !ok || idx != 7 {
		t.Fatalf("Search(0xAA3C) = (%d,%v), want (7,true)", idx, ok)
	}
	if idx, ok := tc.SearchNaive(0xAA3C); !ok || idx != 7 {
		t.Fatalf("SearchNaive(0xAA3C) = (%d,%v), want (7,true)", idx, ok)
	}
	if got := freqAt(tc, 7); got != 2+2 {
		t.Fatalf("slot 7 freq = %d, want 4", got)
	}
	tc.RestoreSlot(7, TEntry{}, 0, false)
	if _, ok := tc.Search(0xAA00); ok {
		t.Fatal("search matched a slot restored to invalid")
	}
}

// TestCAMRestoreDuplicatePattern pins priority under the one path that
// can fabricate duplicate entries: restoring the same entry into two
// slots. Search must answer with the lowest valid slot, as the naive
// sweep does, including after the lower copy is invalidated.
func TestCAMRestoreDuplicatePattern(t *testing.T) {
	c := NewTCAM(8)
	c.RestoreSlot(5, exact(42), 1, true)
	c.RestoreSlot(2, exact(42), 1, true)
	if idx, ok := c.Search(42); !ok || idx != 2 {
		t.Fatalf("Search(42) = (%d,%v), want lowest duplicate (2,true)", idx, ok)
	}
	if idx, ok := c.SearchNaive(42); !ok || idx != 2 {
		t.Fatalf("SearchNaive(42) = (%d,%v), want lowest duplicate (2,true)", idx, ok)
	}
	c.InvalidateIndex(2)
	if idx, ok := c.Search(42); !ok || idx != 5 {
		t.Fatalf("after invalidating slot 2, Search(42) = (%d,%v), want (5,true)", idx, ok)
	}
	c.InvalidateIndex(5)
	if _, ok := c.Search(42); ok {
		t.Fatal("Search found a fully invalidated entry")
	}
}

// TestSnapshotRestoreRoundTrip walks SlotState off a populated source
// table into a fresh one via RestoreSlot and verifies the rebuilt
// planes answer every probe identically to the source, for masked
// entries and for entries that mask no bits.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	masked := NewTCAM(64 + 5) // spans a full group plus a partial one
	for i := 0; i < 40; i++ {
		masked.Insert(TEntry{Value: uint32(i) << 10, Mask: 0x3FF})
	}
	for _, i := range []int{3, 17, 39} {
		masked.InvalidateIndex(i)
	}
	exacts := NewTCAM(16)
	for i := 0; i < 12; i++ {
		exacts.Insert(exact(uint32(i * 3)))
	}
	exacts.InvalidateIndex(11)
	exacts.InvalidateIndex(4)

	for _, tc := range []struct {
		name      string
		src       *TCAM
		step, end uint32
	}{{"masked", masked, 997, 45 << 10}, {"exact", exacts, 1, 40}} {
		src := tc.src
		dst := NewTCAM(src.size)
		for i := 0; i < src.size; i++ {
			e, f, ok := src.SlotState(i)
			dst.RestoreSlot(i, e, f, ok)
		}
		if src.Entries() != dst.Entries() {
			t.Fatalf("%s: entry counts differ after round trip: %d vs %d", tc.name, src.Entries(), dst.Entries())
		}
		for key := uint32(0); key < tc.end; key += tc.step {
			si, sok := src.Search(key)
			di, dok := dst.Search(key)
			if si != di || sok != dok {
				t.Fatalf("%s: Search(%#x): src (%d,%v), restored (%d,%v)", tc.name, key, si, sok, di, dok)
			}
		}
	}
}
