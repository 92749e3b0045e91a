package cachesim

import (
	"math"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
)

// exact delivers every block unchanged.
func exact(_, _ int, blk *value.Block) *value.Block { return blk }

func preciseSystem(t *testing.T) *System {
	t.Helper()
	s, err := New(DefaultConfig(), exact)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fabricSystem fills remote misses through a codec fabric of the scheme.
func fabricSystem(t *testing.T, scheme compress.Scheme, thresholdPct int) (*System, *compress.Fabric) {
	t.Helper()
	cfg := DefaultConfig()
	factory, err := compress.FactoryFor(scheme, cfg.Cores, thresholdPct)
	if err != nil {
		t.Fatal(err)
	}
	fabric := compress.NewFabric(cfg.Cores, factory)
	s, err := New(cfg, fabric.Transfer)
	if err != nil {
		t.Fatal(err)
	}
	return s, fabric
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Cores = 0
	if _, err := New(bad, exact); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad = DefaultConfig()
	bad.LineBytes = 6
	if _, err := New(bad, exact); err == nil {
		t.Fatal("unaligned line accepted")
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil transfer accepted")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	s := preciseSystem(t)
	addr, err := s.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	s.StoreI32(0, addr, -12345)
	s.StoreF32(0, addr+4, 2.75)
	if got := s.LoadI32(0, addr); got != -12345 {
		t.Fatalf("int round trip %d", got)
	}
	if got := s.LoadF32(0, addr+4); got != 2.75 {
		t.Fatalf("float round trip %g", got)
	}
}

func TestCrossCoreVisibility(t *testing.T) {
	s := preciseSystem(t)
	addr, _ := s.Alloc(64)
	s.StoreI32(0, addr, 7)
	if got := s.LoadI32(5, addr); got != 7 {
		t.Fatalf("core 5 sees %d", got)
	}
	// Core 5 cached it; core 0 overwrites; core 5 must see the new value
	// (write-invalidate).
	s.StoreI32(0, addr, 9)
	if got := s.LoadI32(5, addr); got != 9 {
		t.Fatalf("stale read %d after invalidation", got)
	}
	if s.Stats().Invalidates == 0 {
		t.Fatal("no invalidations recorded")
	}
}

func TestHitMissAccounting(t *testing.T) {
	s := preciseSystem(t)
	addr, _ := s.Alloc(64)
	s.LoadI32(0, addr)   // miss
	s.LoadI32(0, addr)   // hit
	s.LoadI32(0, addr+4) // hit (same line)
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Loads != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Bytes = 1 << 10 // 16 lines: force eviction quickly
	s, err := New(cfg, exact)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	addr, _ := s.Alloc(n * 64)
	for i := 0; i < n; i++ {
		s.StoreI32(0, addr+uint32(i*64), int32(i))
	}
	// Re-read everything: values must survive eviction via backing store.
	for i := 0; i < n; i++ {
		if got := s.LoadI32(0, addr+uint32(i*64)); got != int32(i) {
			t.Fatalf("line %d lost value: %d", i, got)
		}
	}
	if s.Stats().Misses < uint64(n) {
		t.Fatalf("expected capacity misses, got %d", s.Stats().Misses)
	}
}

func TestAllocExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 12
	s, _ := New(cfg, exact)
	if _, err := s.Alloc(1 << 13); err == nil {
		t.Fatal("oversized allocation accepted")
	}
	if _, err := s.Alloc(0); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestApproximableDataPerturbedWithinThreshold(t *testing.T) {
	s, _ := fabricSystem(t, compress.DIVaxx, 10)
	arr, err := s.AllocF32(1024, true)
	if err != nil {
		t.Fatal(err)
	}
	// Populate with a hot value plus jitter so the dictionary learns.
	want := make([]float32, arr.Len())
	for i := range want {
		want[i] = 100 * (1 + 0.01*float32(i%8))
		arr.Set(0, i, want[i])
	}
	// Read from many different cores: every fill crosses the channel.
	worst := 0.0
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < arr.Len(); i++ {
			got := arr.Get(1+(i+pass)%15, i)
			if want[i] == 0 {
				continue
			}
			e := math.Abs(float64(got-want[i])) / math.Abs(float64(want[i]))
			if e > worst {
				worst = e
			}
		}
	}
	if worst > 0.10+1e-6 {
		t.Fatalf("worst relative error %g exceeds the 10%% threshold", worst)
	}
	if s.Stats().Transfers == 0 {
		t.Fatal("no channel transfers happened")
	}
}

func TestPreciseDataNeverPerturbed(t *testing.T) {
	s, _ := fabricSystem(t, compress.DIVaxx, 20)
	arr, err := s.AllocI32(512, false) // NOT approximable
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < arr.Len(); i++ {
		arr.Set(0, i, int32(i*7-100))
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < arr.Len(); i++ {
			if got := arr.Get((i+pass)%16, i); got != int32(i*7-100) {
				t.Fatalf("precise element %d corrupted: %d", i, got)
			}
		}
	}
}

func TestChannelStatsFlow(t *testing.T) {
	s, fabric := fabricSystem(t, compress.FPComp, 0)
	arr, _ := s.AllocI32(256, false)
	for i := 0; i < arr.Len(); i++ {
		arr.Set(0, i, 0) // highly compressible
	}
	for i := 0; i < arr.Len(); i++ {
		arr.Get(3, i)
	}
	cs := fabric.Stats()
	if cs.BlocksIn != s.Stats().Transfers || cs.WordsExact == 0 {
		t.Fatalf("channel never compressed: %+v", cs)
	}
}

func TestArrayBounds(t *testing.T) {
	s := preciseSystem(t)
	arr, _ := s.AllocF32(4, false)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	arr.Get(0, 4)
}

func TestUnalignedAccessPanics(t *testing.T) {
	s := preciseSystem(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	s.LoadI32(0, 2)
}

func TestHomeInterleaving(t *testing.T) {
	s := preciseSystem(t)
	homes := map[int]bool{}
	for i := uint32(0); i < 64; i++ {
		homes[s.homeOf(i*64)] = true
	}
	if len(homes) != 16 {
		t.Fatalf("blocks map to %d homes, want 16", len(homes))
	}
}

func TestApproxInfoWholeLineRule(t *testing.T) {
	s := preciseSystem(t)
	addr, _ := s.Alloc(128)
	s.MarkApproximable(addr, 64, value.Float32) // first line only
	if _, ok := s.approxInfo(addr); !ok {
		t.Fatal("annotated line not approximable")
	}
	if _, ok := s.approxInfo(addr + 64); ok {
		t.Fatal("unannotated line approximable")
	}
	// Partial overlap is not enough.
	s.MarkApproximable(addr+64, 32, value.Int32)
	if _, ok := s.approxInfo(addr + 64); ok {
		t.Fatal("half-annotated line treated as approximable")
	}
}
