package compress

import "testing"

// The Codec.Compress ownership rule: the returned *Encoded lives in
// codec-owned buffers until the next Compress, and a copy of the header
// and Payload is how a caller keeps one longer. These tests fail if
// either half is broken.

// staticCodecs returns a constructor for every scheme that needs no peer.
func staticCodecs(t testing.TB) map[string]func() Codec {
	t.Helper()
	must := func(mk func() (Codec, error)) func() Codec {
		return func() Codec {
			c, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	return map[string]func() Codec{
		"baseline": NewBaseline,
		"fpcomp":   func() Codec { return NewCodec(FPComp, DictConfig{}, 0, 0) },
		"fpvaxx":   func() Codec { return NewCodec(FPVaxx, DictConfig{}, 10, 0) },
		"fpvaxx-windowed": must(func() (Codec, error) {
			return NewFPVaxxWindowed(5, 16, 2.0)
		}),
		"bdcomp": func() Codec { return NewCodec(BDComp, DictConfig{}, 0, 0) },
		"bdvaxx": func() Codec { return NewCodec(BDVaxx, DictConfig{}, 10, 0) },
		"adaptive-fpvaxx": must(func() (Codec, error) {
			return NewAdaptive(NewCodec(FPVaxx, DictConfig{}, 10, 0), AdaptiveConfig{WindowBlocks: 8, MinRatio: 1.05, ProbeEvery: 2})
		}),
	}
}

// allCodecs adds the dictionary schemes: mk(node) builds the codec for
// one end of a two-node pair.
func allCodecs(t *testing.T) map[string]func(node int) Codec {
	t.Helper()
	all := map[string]func(node int) Codec{}
	for name, mk := range staticCodecs(t) {
		mk := mk
		all[name] = func(int) Codec { return mk() }
	}
	for _, scheme := range []Scheme{DIComp, DIVaxx} {
		factory, err := FactoryFor(scheme, 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		all[scheme.String()] = factory
	}
	return all
}

func TestCompressResultIsCodecOwned(t *testing.T) {
	blocks := allocBlocks(t)
	first, second := blocks[0], blocks[1]
	for name, mk := range allCodecs(t) {
		t.Run(name, func(t *testing.T) {
			c := mk(0)
			owned := c.Compress(1, first)
			want, _ := mk(1).Decompress(0, owned)
			kept := *owned
			kept.Payload = append([]byte(nil), owned.Payload...)

			next := c.Compress(1, second)
			if next != owned {
				t.Fatal("Compress returned a fresh header; the result is meant to be codec-owned")
			}
			// Scribble over everything the codec owns: a copy that shares
			// a backing array with it changes here.
			payload := next.Payload[:cap(next.Payload)]
			for i := range payload {
				payload[i] ^= 0xFF
			}

			got, _ := mk(1).Decompress(0, &kept)
			if !got.Equal(want) {
				t.Fatalf("header+payload copy decodes to %v after the next Compress, want %v", got.Words, want.Words)
			}
		})
	}
}
