package tcam

import (
	"fmt"
	"testing"
)

// The search bench grid compares the bit-sliced fast engine against the
// retained naive sweep (the oracle) across table sizes. Entries carve the
// key space into 10-bit-wide don't-care families so roughly half the
// probes hit, at indices spread across the whole table — the naive
// sweep's average scan depth is size/2, the shape the hardware's parallel
// match lines (and the bit-sliced fold) are immune to.

func fillTCAM(size int) *TCAM {
	t := NewTCAM(size)
	for i := 0; i < size; i++ {
		t.Insert(TEntry{Value: uint32(i) << 10, Mask: 0x3FF})
	}
	return t
}

func benchmarkTCAMSearch(b *testing.B, size int, naive bool) {
	t := fillTCAM(size)
	// Probe keys spanning twice the populated range: ~50% hit rate with
	// hit indices uniform over the table.
	span := uint32(2 * size << 10)
	b.ResetTimer()
	if naive {
		for i := 0; i < b.N; i++ {
			t.SearchNaive(uint32(i*2654435761) % span)
		}
	} else {
		for i := 0; i < b.N; i++ {
			t.Search(uint32(i*2654435761) % span)
		}
	}
}

func BenchmarkTCAMSearch(b *testing.B) {
	for _, size := range []int{8, 64, 256, 1024} {
		for _, engine := range []string{"fast", "naive"} {
			b.Run(fmt.Sprintf("entries=%d/engine=%s", size, engine), func(b *testing.B) {
				benchmarkTCAMSearch(b, size, engine == "naive")
			})
		}
	}
}

func fillCAM(size int) *CAM {
	c := NewCAM(size)
	for i := 0; i < size; i++ {
		c.Insert(uint32(i) * 7919)
	}
	return c
}

func benchmarkCAMLookup(b *testing.B, size int, naive bool) {
	c := fillCAM(size)
	b.ResetTimer()
	if naive {
		for i := 0; i < b.N; i++ {
			c.t.SearchNaive(uint32(i%(2*size)) * 7919) // ~50% hits
		}
	} else {
		for i := 0; i < b.N; i++ {
			c.Lookup(uint32(i%(2*size)) * 7919)
		}
	}
}

func BenchmarkCAMLookup(b *testing.B) {
	for _, size := range []int{8, 64, 256, 1024} {
		for _, engine := range []string{"fast", "naive"} {
			b.Run(fmt.Sprintf("entries=%d/engine=%s", size, engine), func(b *testing.B) {
				benchmarkCAMLookup(b, size, engine == "naive")
			})
		}
	}
}

// BenchmarkTCAMInsert prices the write path, which now maintains the
// bit-sliced planes in addition to the match-line constants — installs
// are orders of magnitude rarer than searches (dictionary promotions vs
// per-word encodes), but the plane rebuild must stay cheap enough not to
// show up in dictionary-churn phases.
func BenchmarkTCAMInsert(b *testing.B) {
	const size = 64
	t := NewTCAM(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(TEntry{Value: uint32(i) << 10, Mask: 0x3FF})
	}
}
