package compress

import (
	"testing"

	"approxnoc/internal/value"
)

func adaptiveOverFPC(t *testing.T, cfg AdaptiveConfig) *Adaptive {
	t.Helper()
	a, err := NewAdaptive(NewCodec(FPComp, DictConfig{}, 0, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewAdaptiveValidation(t *testing.T) {
	if _, err := NewAdaptive(nil, DefaultAdaptiveConfig()); err == nil {
		t.Fatal("nil codec accepted")
	}
	bad := DefaultAdaptiveConfig()
	bad.WindowBlocks = 0
	if _, err := NewAdaptive(NewCodec(FPComp, DictConfig{}, 0, 0), bad); err == nil {
		t.Fatal("zero window accepted")
	}
	bad = DefaultAdaptiveConfig()
	bad.MinRatio = 0
	if _, err := NewAdaptive(NewCodec(FPComp, DictConfig{}, 0, 0), bad); err == nil {
		t.Fatal("zero ratio accepted")
	}
	bad = DefaultAdaptiveConfig()
	bad.ProbeEvery = 0
	if _, err := NewAdaptive(NewCodec(FPComp, DictConfig{}, 0, 0), bad); err == nil {
		t.Fatal("zero probe period accepted")
	}
}

func incompressibleBlock(r int) *value.Block {
	words := make([]uint32, 16)
	x := uint32(r)*2654435761 + 1
	for i := range words {
		x = x*1664525 + 1013904223
		words[i] = x | 0x40000000 // avoid accidental pattern matches
	}
	return &value.Block{Words: words, DType: value.Int32}
}

func compressibleBlock() *value.Block {
	return value.BlockFromI32(make([]int32, 16), false)
}

func TestAdaptiveDisablesOnIncompressibleTraffic(t *testing.T) {
	cfg := AdaptiveConfig{WindowBlocks: 8, MinRatio: 1.05, ProbeEvery: 100}
	a := adaptiveOverFPC(t, cfg)
	if !a.On() {
		t.Fatal("controller starts disabled")
	}
	for i := 0; i < 8; i++ {
		a.Compress(1, incompressibleBlock(i))
	}
	if a.On() {
		t.Fatal("controller stayed on through an incompressible epoch")
	}
	// Bypassed packets are emitted baseline-form and still decode.
	blk := incompressibleBlock(99)
	enc := a.Compress(1, blk)
	if enc.Scheme != Baseline {
		t.Fatalf("bypassed packet scheme %v", enc.Scheme)
	}
	dec, _ := a.Decompress(0, enc)
	if !dec.Equal(blk) {
		t.Fatal("bypassed block corrupted")
	}
}

func TestAdaptiveStaysOnForCompressibleTraffic(t *testing.T) {
	cfg := AdaptiveConfig{WindowBlocks: 8, MinRatio: 1.05, ProbeEvery: 2}
	a := adaptiveOverFPC(t, cfg)
	for i := 0; i < 64; i++ {
		enc := a.Compress(1, compressibleBlock())
		if enc.Scheme != FPComp {
			t.Fatalf("block %d bypassed on compressible traffic", i)
		}
	}
	if !a.On() {
		t.Fatal("controller turned off on compressible traffic")
	}
}

func TestAdaptiveProbesAndRecovers(t *testing.T) {
	cfg := AdaptiveConfig{WindowBlocks: 4, MinRatio: 1.05, ProbeEvery: 2}
	a := adaptiveOverFPC(t, cfg)
	// Phase 1: incompressible -> off.
	for i := 0; i < 4; i++ {
		a.Compress(1, incompressibleBlock(i))
	}
	if a.On() {
		t.Fatal("did not disable")
	}
	// Two off-epochs pass; the controller probes again.
	for i := 0; i < 8; i++ {
		a.Compress(1, incompressibleBlock(100+i))
	}
	if !a.On() {
		t.Fatal("probe never happened")
	}
	// Phase 2 is compressible: the probe epoch succeeds and stays on.
	for i := 0; i < 8; i++ {
		a.Compress(1, compressibleBlock())
	}
	if !a.On() {
		t.Fatal("controller did not recover on a compressible phase")
	}
}

func TestAdaptiveSchemeAndStats(t *testing.T) {
	a := adaptiveOverFPC(t, DefaultAdaptiveConfig())
	if a.Scheme() != FPComp {
		t.Fatalf("scheme %v", a.Scheme())
	}
	a.Compress(1, compressibleBlock())
	if a.Stats().BlocksIn != 1 {
		t.Fatalf("stats %+v", a.Stats())
	}
}

func TestAdaptiveOverDictionary(t *testing.T) {
	cfg := DefaultDictConfig(2)
	inner := NewCodec(DIVaxx, cfg, 10, 0)
	a, err := NewAdaptive(inner, AdaptiveConfig{WindowBlocks: 16, MinRatio: 1.02, ProbeEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	peer := NewCodec(DIVaxx, cfg, 10, 1)
	// Dictionary protocol still flows through the wrapper.
	blk := value.BlockFromI32([]int32{42, 42, 42, 42}, false)
	for i := 0; i < 6; i++ {
		enc := a.Compress(1, blk)
		out, notifs := peer.Decompress(0, enc)
		if !out.Equal(blk) {
			t.Fatal("data corrupted through adaptive dictionary")
		}
		for _, n := range notifs {
			a.HandleNotification(n)
		}
	}
	if a.Stats().WordsExact == 0 {
		t.Fatal("dictionary never learned through the wrapper")
	}
}
