package tcam

import (
	"math/rand"
	"testing"
)

// The bit-sliced TCAM is proven behaviorally identical to the retained
// naive sweep by running two mirrored instances through one operation
// stream: every mutation is applied to both, every search goes through
// Search on one and SearchNaive on the other, and after each step the
// observable state — (idx, ok), Stats, per-slot freq/entry/valid,
// Entries, and hi-bound behavior — must agree exactly.

// tcamStatesEqual compares every observable slot of two TCAMs.
func tcamStatesEqual(t *testing.T, a, b *TCAM, op int) {
	t.Helper()
	if a.Stats() != b.Stats() {
		t.Fatalf("op %d: stats diverged: fast %+v naive %+v", op, a.Stats(), b.Stats())
	}
	if a.Entries() != b.Entries() {
		t.Fatalf("op %d: entry counts diverged: fast %d naive %d", op, a.Entries(), b.Entries())
	}
	for i := 0; i < a.size; i++ {
		ea, fa, va := a.SlotState(i)
		eb, fb, vb := b.SlotState(i)
		if ea != eb || fa != fb || va != vb {
			t.Fatalf("op %d: slot %d diverged: fast (%+v,%d,%v) naive (%+v,%d,%v)",
				op, i, ea, fa, va, eb, fb, vb)
		}
	}
}

// tcamMirrorRun drives one randomized op stream over mirrored TCAMs,
// drawing every installed entry and unbiased probe key from draw.
func tcamMirrorRun(t *testing.T, seed int64, size, ops int, draw func(*rand.Rand) TEntry) {
	rng := rand.New(rand.NewSource(seed))
	fast, naive := NewTCAM(size), NewTCAM(size)
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(12); {
		case r < 4:
			e := draw(rng)
			i1, ev1, had1 := fast.Insert(e)
			i2, ev2, had2 := naive.Insert(e)
			if i1 != i2 || ev1 != ev2 || had1 != had2 {
				t.Fatalf("seed %d op %d: Insert diverged: (%d,%+v,%v) vs (%d,%+v,%v)",
					seed, op, i1, ev1, had1, i2, ev2, had2)
			}
		case r < 5:
			i := rng.Intn(size+4) - 2 // includes out-of-range no-ops
			fast.InvalidateIndex(i)
			naive.InvalidateIndex(i)
		case r < 6:
			i := rng.Intn(size+4) - 2
			e := draw(rng)
			freq := uint64(rng.Intn(16))
			valid := rng.Intn(3) > 0
			fast.RestoreSlot(i, e, freq, valid)
			naive.RestoreSlot(i, e, freq, valid)
		default:
			var key uint32
			if rng.Intn(2) == 0 && naive.Entries() > 0 {
				// Bias half the probes toward stored families so hits
				// (and their freq bumps) are exercised, not just misses.
				for {
					if e, _, ok := naive.SlotState(rng.Intn(size)); ok {
						key = (e.Value &^ e.Mask) | (uint32(rng.Int63()) & e.Mask)
						break
					}
				}
			} else {
				key = draw(rng).Value
			}
			i1, ok1 := fast.Search(key)
			i2, ok2 := naive.SearchNaive(key)
			if i1 != i2 || ok1 != ok2 {
				t.Fatalf("seed %d op %d: Search(%#x) = (%d,%v), SearchNaive = (%d,%v)",
					seed, op, key, i1, ok1, i2, ok2)
			}
		}
		tcamStatesEqual(t, fast, naive, op)
	}
}

// TestTCAMEngineProperty runs the mirrored differential suite across 25
// seeds and a size spread that covers partial groups (< 64), an exact
// group boundary (64), and multi-group tables (100, 256).
func TestTCAMEngineProperty(t *testing.T) {
	masks := []uint32{0, 0xF, 0xFF, 0xFFFF, 0xFFFF0000, 0xFFFFFFFF, 0x0F0F0F0F, 0x80000001}
	draw := func(rng *rand.Rand) TEntry {
		return TEntry{Value: uint32(rng.Int63()), Mask: masks[rng.Intn(len(masks))]}
	}
	sizes := []int{1, 7, 8, 63, 64, 100, 256}
	for seed := int64(0); seed < 25; seed++ {
		tcamMirrorRun(t, seed, sizes[int(seed)%len(sizes)], 3000, draw)
	}
}

// TestCAMEngineProperty is the binary-CAM half of the 25-seed suite:
// entries that mask no bits, drawn from a pattern universe small enough
// that duplicate inserts, duplicate restores and hits are common.
func TestCAMEngineProperty(t *testing.T) {
	sizes := []int{1, 4, 8, 16, 32, 64, 100}
	for seed := int64(0); seed < 25; seed++ {
		size := sizes[int(seed)%len(sizes)]
		tcamMirrorRun(t, seed, size, 3000, func(rng *rand.Rand) TEntry {
			return exact(uint32(rng.Intn(4 * size)))
		})
	}
}

// TestEntriesLiveCount pins the incremental valid-entry counter against
// a recount of the slot states across every mutation kind.
func TestEntriesLiveCount(t *testing.T) {
	tc := NewTCAM(8)
	check := func(step string) {
		t.Helper()
		n := 0
		for i := 0; i < tc.size; i++ {
			if _, _, ok := tc.SlotState(i); ok {
				n++
			}
		}
		if got := tc.Entries(); got != n {
			t.Fatalf("%s: Entries() = %d, recount %d", step, got, n)
		}
	}
	check("empty")
	for i := 0; i < 10; i++ { // 10 > capacity: exercises evictions
		tc.Insert(TEntry{Value: uint32(i) << 8, Mask: 0xFF})
		check("insert")
	}
	tc.Insert(TEntry{Value: 2 << 8, Mask: 0xFF}) // duplicate refresh
	check("dup-insert")
	for _, i := range []int{3, 3, 0, 7, -1, 99} { // double + out-of-range
		tc.InvalidateIndex(i)
		check("invalidate")
	}
	tc.RestoreSlot(5, exact(42), 9, true)
	check("restore-valid")
	tc.RestoreSlot(5, TEntry{}, 0, false)
	check("restore-invalid")
	tc.RestoreSlot(5, TEntry{}, 0, false) // restore-invalid over invalid
	check("restore-invalid-again")
}
