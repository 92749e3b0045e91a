// Property tests for the PMT snapshot codec (DESIGN.md §12): a
// marshal/unmarshal round trip is byte-identical, a restored codec is
// behaviorally indistinguishable from the original under continued
// traffic, stale snapshots are rejected by generation, and corrupt
// bytes never commit partial state.
package compress_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

// snapSchemes enumerates the dictionary variants under test: exact
// DI-COMP, per-word DI-VAXX, and the windowed-budget extension.
var snapSchemes = []struct {
	name string
	make func(node int) compress.Codec
}{
	{"DI-COMP", func(node int) compress.Codec {
		return compress.NewCodec(compress.DIComp, compress.DefaultDictConfig(2), 0, node)
	}},
	{"DI-VAXX", func(node int) compress.Codec {
		return compress.NewCodec(compress.DIVaxx, compress.DefaultDictConfig(2), 5, node)
	}},
	{"DI-VAXX-windowed", func(node int) compress.Codec {
		c, err := compress.NewDIVaxxWindowed(node, compress.DefaultDictConfig(2), 5, 16, 2)
		if err != nil {
			panic(err)
		}
		return c
	}},
}

// snapTraffic generates one deterministic block: hot patterns from a
// small alphabet (driving the promotion machinery) with occasional
// near-misses and cold noise.
func snapTraffic(rng *sim.Rand) *value.Block {
	alpha := [6]value.Word{0, 0x000000FF, 0xDEADBEEF, 0x7F000001, 0x00010000, 0xFFFFFFFE}
	blk := &value.Block{
		Words:        make([]value.Word, 8),
		DType:        value.Int32,
		Approximable: rng.Bool(0.5),
	}
	for j := range blk.Words {
		switch {
		case rng.Bool(0.7):
			blk.Words[j] = alpha[rng.Intn(len(alpha))]
		case rng.Bool(0.5):
			blk.Words[j] = alpha[rng.Intn(len(alpha))] + value.Word(rng.Intn(3))
		default:
			blk.Words[j] = rng.Uint32()
		}
	}
	return blk
}

// drive pushes n blocks through a two-node fabric, alternating flow
// direction, settling notifications after every transfer.
func drive(fab *compress.Fabric, rng *sim.Rand, n int) {
	for i := 0; i < n; i++ {
		blk := snapTraffic(rng)
		src, dst := 0, 1
		if i%3 == 0 {
			src, dst = 1, 0
		}
		enc := fab.Codec(src).Compress(dst, blk)
		_, notifs := fab.Codec(dst).Decompress(src, enc)
		fab.Deliver(notifs)
	}
}

func snapshotOf(t *testing.T, c compress.Codec) ([]byte, compress.DictSnapshotter) {
	t.Helper()
	s, ok := compress.As[compress.DictSnapshotter](c)
	if !ok {
		t.Fatalf("%T does not snapshot", c)
	}
	b, err := s.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b, s
}

// TestSnapshotRoundTripByteIdentical pins the determinism contract:
// restore-then-marshal reproduces the snapshot bit for bit, on every
// scheme, across many seeds.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	for _, sc := range snapSchemes {
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 25; seed++ {
				src := compress.NewFabric(2, sc.make)
				drive(src, sim.NewRand(seed), 60)
				for node := 0; node < 2; node++ {
					img, _ := snapshotOf(t, src.Codec(node))
					fresh := sc.make(node)
					restored, ok := compress.As[compress.DictSnapshotter](fresh)
					if !ok {
						t.Fatalf("%T does not snapshot", fresh)
					}
					if err := restored.Unmarshal(img); err != nil {
						t.Fatalf("seed %d node %d: restore: %v", seed, node, err)
					}
					img2, err := restored.Marshal()
					if err != nil {
						t.Fatalf("seed %d node %d: re-marshal: %v", seed, node, err)
					}
					if !bytes.Equal(img, img2) {
						t.Fatalf("seed %d node %d: marshal∘unmarshal∘marshal not byte-identical", seed, node)
					}
				}
			}
		})
	}
}

// TestSnapshotBehavioralIdentity transplants a mid-traffic fabric into
// fresh codecs and replays identical continued traffic through both:
// every payload, every decoded word, and the final statistics must
// agree — the restored codec is the original.
func TestSnapshotBehavioralIdentity(t *testing.T) {
	for _, sc := range snapSchemes {
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				orig := compress.NewFabric(2, sc.make)
				drive(orig, sim.NewRand(seed), 80)

				clone := compress.NewFabric(2, sc.make)
				for node := 0; node < 2; node++ {
					img, _ := snapshotOf(t, orig.Codec(node))
					s, _ := compress.As[compress.DictSnapshotter](clone.Codec(node))
					if err := s.Unmarshal(img); err != nil {
						t.Fatalf("seed %d node %d: restore: %v", seed, node, err)
					}
					if s2, _ := compress.As[compress.DictSnapshotter](orig.Codec(node)); s.Generation() != s2.Generation() {
						t.Fatalf("seed %d node %d: generation %d != %d after restore",
							seed, node, s.Generation(), s2.Generation())
					}
				}

				// Continue with identical traffic on both fabrics.
				phase2 := sim.NewRand(seed ^ 0xBEEF)
				for i := 0; i < 80; i++ {
					blk := snapTraffic(phase2)
					src, dst := i%2, 1-i%2
					encO := orig.Codec(src).Compress(dst, cloneBlock(blk))
					encC := clone.Codec(src).Compress(dst, cloneBlock(blk))
					if encO.Bits != encC.Bits || !bytes.Equal(encO.Payload, encC.Payload) {
						t.Fatalf("seed %d step %d: restored encoder diverged (%d bits vs %d)",
							seed, i, encO.Bits, encC.Bits)
					}
					outO, nO := orig.Codec(dst).Decompress(src, encO)
					outC, nC := clone.Codec(dst).Decompress(src, encC)
					if len(nO) != len(nC) {
						t.Fatalf("seed %d step %d: notification fanout %d vs %d", seed, i, len(nO), len(nC))
					}
					for j := range outO.Words {
						if outO.Words[j] != outC.Words[j] {
							t.Fatalf("seed %d step %d word %d: %#08x vs %#08x",
								seed, i, j, outO.Words[j], outC.Words[j])
						}
					}
					orig.Deliver(nO)
					clone.Deliver(nC)
				}
				for node := 0; node < 2; node++ {
					if a, b := orig.Codec(node).Stats(), clone.Codec(node).Stats(); a != b {
						t.Fatalf("seed %d node %d: stats diverged\n orig  %+v\n clone %+v", seed, node, a, b)
					}
				}
			}
		})
	}
}

func cloneBlock(b *value.Block) *value.Block {
	out := &value.Block{Words: append([]value.Word(nil), b.Words...), DType: b.DType, Approximable: b.Approximable}
	return out
}

// TestSnapshotStaleGenerationRejected pins the reconciliation rule: a
// codec whose dictionary advanced past a snapshot keeps its own state.
func TestSnapshotStaleGenerationRejected(t *testing.T) {
	for _, sc := range snapSchemes {
		t.Run(sc.name, func(t *testing.T) {
			fab := compress.NewFabric(2, sc.make)
			drive(fab, sim.NewRand(7), 40)
			early, s := snapshotOf(t, fab.Codec(0))
			drive(fab, sim.NewRand(8), 40)
			if s.Generation() == 0 {
				t.Fatal("traffic never advanced the generation")
			}
			now, _ := s.Marshal()
			if err := s.Unmarshal(early); !errors.Is(err, compress.ErrStaleSnapshot) {
				t.Fatalf("stale snapshot: got %v, want ErrStaleSnapshot", err)
			}
			after, _ := s.Marshal()
			if !bytes.Equal(now, after) {
				t.Fatal("rejected stale snapshot still mutated the codec")
			}
			// Equal generation reconciles by (re)applying.
			if err := s.Unmarshal(now); err != nil {
				t.Fatalf("self snapshot must reapply: %v", err)
			}
		})
	}
}

// TestSnapshotRejectsMismatch pins the shape checks: snapshots from a
// different scheme, node, or configuration never restore, truncation
// and trailing garbage are caught, and a failed restore leaves the
// codec untouched.
func TestSnapshotRejectsMismatch(t *testing.T) {
	mk := func(node int) compress.Codec {
		return compress.NewCodec(compress.DIComp, compress.DefaultDictConfig(2), 0, node)
	}
	fab := compress.NewFabric(2, mk)
	drive(fab, sim.NewRand(3), 60)
	img, s := snapshotOf(t, fab.Codec(0))
	before, _ := s.Marshal()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), img[4:]...)},
		{"bad version", append(append([]byte{}, img[:4]...), append([]byte{0xFF, 0xFF}, img[6:]...)...)},
		{"truncated header", img[:10]},
		{"truncated body", img[:len(img)-3]},
		{"trailing bytes", append(append([]byte{}, img...), 0)},
		{"wrong node", snapshotFrom(t, fab.Codec(1))},
		{"wrong scheme", divaxxImage(t)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := s.Unmarshal(tc.data)
			if !errors.Is(err, compress.ErrSnapshotMismatch) {
				t.Fatalf("got %v, want ErrSnapshotMismatch", err)
			}
			after, _ := s.Marshal()
			if !bytes.Equal(before, after) {
				t.Fatal("failed restore mutated the codec")
			}
		})
	}
}

func snapshotFrom(t *testing.T, c compress.Codec) []byte {
	t.Helper()
	b, _ := snapshotOf(t, c)
	return b
}

func divaxxImage(t *testing.T) []byte {
	t.Helper()
	c := compress.NewCodec(compress.DIVaxx, compress.DefaultDictConfig(2), 5, 0)
	b, _ := snapshotOf(t, c)
	return b
}

// TestSnapshotThroughAdaptive verifies the capability probes look
// through the adaptive controller wrapper.
func TestSnapshotThroughAdaptive(t *testing.T) {
	inner := compress.NewCodec(compress.DIComp, compress.DefaultDictConfig(2), 0, 0)
	a, err := compress.NewAdaptive(inner, compress.DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := compress.As[compress.DictSnapshotter](a); !ok {
		t.Fatal("As[DictSnapshotter] does not unwrap Adaptive")
	}
	if _, ok := compress.As[compress.DictIntrospector](a); !ok {
		t.Fatal("As[DictIntrospector] does not unwrap Adaptive")
	}
	if _, ok := compress.As[compress.DictSnapshotter](compress.NewBaseline()); ok {
		t.Fatal("baseline codec claims to snapshot")
	}
}

// TestSnapshotVersionPinned guards the wire header: v1 images start
// with the magic and version the golden vectors pin.
func TestSnapshotVersionPinned(t *testing.T) {
	c := compress.NewCodec(compress.DIComp, compress.DefaultDictConfig(2), 0, 0)
	img, _ := snapshotOf(t, c)
	want := []byte{'P', 'M', 'T', 'S', 0, 1}
	if len(img) < len(want) || !bytes.Equal(img[:len(want)], want) {
		t.Fatalf("snapshot header % x, want magic PMTS version 1", img)
	}
}

// Encoder-slot layout in a v1 image: the slots follow the 44-byte header
// (magic, version, scheme, flags, seven u32 shape fields, generation).
// A slot is valid u8 | value u32 | mask u32 (DI-VAXX only) | freq u64.
const snapHeaderLen = 44

func encSlotLen(divaxx bool) int {
	if divaxx {
		return 17
	}
	return 13
}

// maskedBitImage returns a warmed DI-VAXX codec's image with one masked
// bit set in a valid encoder slot's value, and that codec.
func maskedBitImage(t *testing.T) ([]byte, compress.DictSnapshotter) {
	t.Helper()
	fab := compress.NewFabric(2, snapSchemes[1].make)
	drive(fab, sim.NewRand(5), 60)
	img, s := snapshotOf(t, fab.Codec(0))
	for i := 0; i < compress.DefaultDictConfig(2).Entries; i++ {
		off := snapHeaderLen + i*encSlotLen(true)
		mask := binary.BigEndian.Uint32(img[off+5:])
		if img[off] == 1 && mask != 0 {
			v := binary.BigEndian.Uint32(img[off+1:])
			binary.BigEndian.PutUint32(img[off+1:], v|mask&-mask)
			return img, s
		}
	}
	t.Fatal("no valid encoder slot with a mask")
	return nil, nil
}

// duplicateEntryImage returns a warmed DI-COMP codec's image with one
// valid encoder slot copied over another, and that codec.
func duplicateEntryImage(t *testing.T) ([]byte, compress.DictSnapshotter) {
	t.Helper()
	fab := compress.NewFabric(2, snapSchemes[0].make)
	drive(fab, sim.NewRand(5), 60)
	img, s := snapshotOf(t, fab.Codec(0))
	n := encSlotLen(false)
	var valid []int
	for i := 0; i < compress.DefaultDictConfig(2).Entries; i++ {
		if off := snapHeaderLen + i*n; img[off] == 1 {
			valid = append(valid, off)
		}
	}
	if len(valid) < 2 {
		t.Fatalf("%d valid encoder slots, want two to duplicate", len(valid))
	}
	copy(img[valid[0]:valid[0]+n], img[valid[1]:valid[1]+n])
	return img, s
}

// TestSnapshotRejectsUnreachableEncoderEntries pins that Unmarshal only
// installs encoder entries a codec can produce: handleUpdate stores a
// DI-VAXX value with no bits under its mask, and Insert never holds one
// entry in two slots. Either image is corrupt and must leave the codec
// unchanged.
func TestSnapshotRejectsUnreachableEncoderEntries(t *testing.T) {
	for _, tc := range []struct {
		name  string
		image func(*testing.T) ([]byte, compress.DictSnapshotter)
	}{
		{"DI-VAXX masked bit set", maskedBitImage},
		{"DI-COMP duplicated entry", duplicateEntryImage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, s := tc.image(t)
			before, _ := s.Marshal()
			if err := s.Unmarshal(img); !errors.Is(err, compress.ErrSnapshotMismatch) {
				t.Fatalf("got %v, want ErrSnapshotMismatch", err)
			}
			if after, _ := s.Marshal(); !bytes.Equal(before, after) {
				t.Fatal("failed restore mutated the codec")
			}
		})
	}
}
