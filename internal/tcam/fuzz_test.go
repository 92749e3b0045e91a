package tcam

import (
	"encoding/binary"
	"testing"
)

// FuzzTCAMEngine differential-fuzzes the bit-sliced fast path against
// the retained naive sweep: the input bytes drive one operation stream
// over a mirrored TCAM pair, and every search result and every piece of
// observable state must stay identical. Entries mix masked families with
// entries that mask no bits (the binary-CAM case DI-COMP's encoder PMT
// runs on). This is the fuzz half of the engine-equivalence proof;
// TestTCAMEngineProperty and TestCAMEngineProperty are the seeded half.
func FuzzTCAMEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	// Insert a wide family, probe it, invalidate the top, probe again.
	f.Add([]byte{
		0x10, 0xAA, 0xBB, 0x00, 0xFF, 0xFF,
		0x40, 0xAA, 0xBB, 0x12, 0x34,
		0x20, 0x00,
		0x40, 0xAA, 0xBB, 0x12, 0x34,
	})
	// Restore traffic, including duplicate entries.
	f.Add([]byte{
		0x30, 0x05, 0x11, 0x22, 0x33, 0x44, 0x07,
		0x30, 0x02, 0x11, 0x22, 0x33, 0x44, 0x07,
		0x40, 0x11, 0x22, 0x33, 0x44,
		0x20, 0x02,
		0x40, 0x11, 0x22, 0x33, 0x44,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 70 // a full 64-entry group plus a partial one
		tFast, tNaive := NewTCAM(size), NewTCAM(size)
		// Masks that exercise full-care, full-don't-care, and mixed digits.
		masks := []uint32{0, 0xF, 0xFF, 0xFFFF, 0xFFFF0000, 0xFFFFFFFF, 0x0F0F0F0F, 0xF000000F}

		u32 := func(pos int) uint32 {
			var b [4]byte
			for i := 0; i < 4 && pos+i < len(data); i++ {
				b[i] = data[pos+i]
			}
			return binary.LittleEndian.Uint32(b[:])
		}
		// entry decodes an op's entry: bit 3 set means one that masks no
		// bits, otherwise bits 0-2 pick the mask.
		entry := func(op byte, v uint32) TEntry {
			if op&0x8 != 0 {
				return TEntry{Value: v}
			}
			return TEntry{Value: v, Mask: masks[int(op)&0x7]}
		}

		for pos := 0; pos < len(data); {
			op := data[pos]
			pos++
			switch op >> 4 {
			case 1: // insert
				e := entry(op, u32(pos))
				pos += 4
				i1, ev1, h1 := tFast.Insert(e)
				i2, ev2, h2 := tNaive.Insert(e)
				if i1 != i2 || ev1 != ev2 || h1 != h2 {
					t.Fatalf("Insert diverged: (%d,%+v,%v) vs (%d,%+v,%v)", i1, ev1, h1, i2, ev2, h2)
				}
			case 2: // invalidate (out-of-range included)
				i := int(u32(pos)%(size+8)) - 4
				pos++
				tFast.InvalidateIndex(i)
				tNaive.InvalidateIndex(i)
			case 3: // restore
				i := int(u32(pos)%(size+8)) - 4
				pos++
				e := entry(op, u32(pos))
				pos += 4
				freq := uint64(op & 0x3)
				valid := op&0x4 != 0
				tFast.RestoreSlot(i, e, freq, valid)
				tNaive.RestoreSlot(i, e, freq, valid)
			default: // search
				key := u32(pos)
				pos += 4
				i1, ok1 := tFast.Search(key)
				i2, ok2 := tNaive.SearchNaive(key)
				if i1 != i2 || ok1 != ok2 {
					t.Fatalf("Search(%#x) = (%d,%v), SearchNaive = (%d,%v)", key, i1, ok1, i2, ok2)
				}
			}
		}

		// Terminal state audit: stats, live counts, every slot.
		if tFast.Stats() != tNaive.Stats() {
			t.Fatalf("stats diverged: %+v vs %+v", tFast.Stats(), tNaive.Stats())
		}
		if tFast.Entries() != tNaive.Entries() {
			t.Fatalf("entry counts diverged: %d vs %d", tFast.Entries(), tNaive.Entries())
		}
		for i := 0; i < size; i++ {
			e1, f1, v1 := tFast.SlotState(i)
			e2, f2, v2 := tNaive.SlotState(i)
			if e1 != e2 || f1 != f2 || v1 != v2 {
				t.Fatalf("slot %d diverged: (%+v,%d,%v) vs (%+v,%d,%v)", i, e1, f1, v1, e2, f2, v2)
			}
		}
	})
}
