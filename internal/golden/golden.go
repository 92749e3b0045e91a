// Package golden holds what the golden_test.go files share, in the
// spirit of net/http/httptest: an input stream, the file header, and
// Check. `GOLDEN=update go test ./...` rewrites every stale golden file.
package golden

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

const seed uint64 = 0x4150505258014e6f // the checked-in files' seed
const hint = "GOLDEN=update go test ./..."

// Rand is splitmix64: tiny, seedable, stable on any platform and Go.
type Rand struct{ s uint64 }

func (r *Rand) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *Rand) Uint32() uint32 { return uint32(r.Next() >> 32) }
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) } // in [0, n)

// FPCWord draws a word biased toward the Fig. 5 frequent-pattern
// classes so every prefix shows up in the vectors.
func (r *Rand) FPCWord() uint32 {
	switch k := r.Intn(8); k {
	case 0, 1:
		return 0
	case 2, 3, 4: // sign-extended 4, 8 or 16 bits
		n := 1 << (4 << (k - 2))
		return uint32(int32(r.Intn(n) - n/2))
	case 5:
		return r.Uint32() & 0xFFFF // zero upper half
	case 6: // each 16-bit half is a sign-extended byte
		return uint32(uint16(int8(r.Intn(256))))<<16 | uint32(uint16(int8(r.Intn(256))))
	default:
		return r.Uint32()
	}
}

// Suite writes golden suite name's header to w and returns its stream,
// seeded by the name's length (so "fpc" and "bdi" draw the same inputs).
func Suite(w *bytes.Buffer, name string) *Rand {
	fmt.Fprintf(w, "# golden %s vectors, seed %#x\n# regenerate: %s\n", name, seed, hint)
	return &Rand{s: seed ^ uint64(len(name))<<56}
}

// Check fails tb unless the file at path holds exactly got; under
// GOLDEN=update it rewrites the file instead.
func Check(tb testing.TB, path string, got []byte) {
	tb.Helper()
	want, err := os.ReadFile(path)
	switch {
	case err == nil && bytes.Equal(got, want):
	case os.Getenv("GOLDEN") == "update":
		if err := os.WriteFile(path, got, 0o644); err != nil {
			tb.Fatal(err)
		}
	case err != nil:
		tb.Errorf("%v; to create it, run: %s", err, hint)
	default:
		tb.Errorf("%s does not match the current output; if the change is intended, run: %s", path, hint)
	}
}
