package compress

import (
	"slices"
	"testing"
	"testing/quick"

	"approxnoc/internal/sim"
	"approxnoc/internal/value"
)

func newDITestFabric(t *testing.T, scheme Scheme, nodes, thresholdPct int) *Fabric {
	t.Helper()
	factory, err := FactoryFor(scheme, nodes, thresholdPct)
	if err != nil {
		t.Fatal(err)
	}
	return NewFabric(nodes, factory)
}

func TestDICompLearnsRepeatedPatterns(t *testing.T) {
	f := newDITestFabric(t, DIComp, 4, 0)
	blk := value.BlockFromI32([]int32{0x11223344, 0x11223344, 0x11223344, 0x11223344}, false)

	// First transfers raw-send the pattern; the decoder promotes it and the
	// update notification teaches the encoder. Later transfers compress.
	for i := 0; i < 3; i++ {
		out := f.Transfer(0, 2, blk)
		if !out.Equal(blk) {
			t.Fatalf("transfer %d altered data", i)
		}
	}
	s := f.Codec(0).Stats()
	if s.WordsExact == 0 {
		t.Fatalf("dictionary never compressed after repeats: %+v", s)
	}
	if s.WordsApprox != 0 {
		t.Fatal("exact DI-COMP produced approximate words")
	}
}

func TestDICompPerDestinationIndices(t *testing.T) {
	f := newDITestFabric(t, DIComp, 4, 0)
	blk := value.BlockFromI32([]int32{0x55555555, 0x55555555}, false)
	// Teach the pattern only toward node 1.
	for i := 0; i < 4; i++ {
		f.Transfer(0, 1, blk)
	}
	before := f.Codec(0).Stats().WordsExact
	if before == 0 {
		t.Fatal("pattern never learned toward node 1")
	}
	// A transfer to a fresh destination cannot use node 1's index.
	f.Transfer(0, 3, blk)
	s3 := f.Codec(3).Stats()
	if s3.WordsDecoded == 0 {
		t.Fatal("no words decoded at node 3")
	}
	// The first block toward node 3 must be all raw.
	firstRaw := f.Codec(0).Stats().WordsRaw
	if firstRaw == 0 {
		t.Fatal("first transfer to unseen destination should be raw")
	}
}

func TestDICompRoundTripIsLossless(t *testing.T) {
	f := newDITestFabric(t, DIComp, 3, 0)
	r := testRand()
	for iter := 0; iter < 300; iter++ {
		words := make([]int32, 8)
		for i := range words {
			words[i] = int32(r.Intn(16)) * 0x01010101 // narrow value pool
		}
		blk := value.BlockFromI32(words, false)
		src, dst := r.Intn(3), r.Intn(3)
		if src == dst {
			dst = (dst + 1) % 3
		}
		out := f.Transfer(src, dst, blk)
		if !out.Equal(blk) {
			t.Fatalf("iter %d: DI-COMP altered data\n got %v\nwant %v", iter, out.Words, blk.Words)
		}
	}
	s := f.Stats()
	if s.WordsExact == 0 {
		t.Fatal("no compression over 300 hot-pool transfers")
	}
}

func TestDIVaxxApproximatesNearbyValues(t *testing.T) {
	f := newDITestFabric(t, DIVaxx, 2, 10)
	base := int32(1 << 20)
	hot := value.BlockFromI32([]int32{base, base, base, base}, true)
	for i := 0; i < 4; i++ {
		f.Transfer(0, 1, hot)
	}
	// Nearby values (within 10%) should now compress approximately.
	near := value.BlockFromI32([]int32{base + 100, base - 3000, base + 55555 - 40000, base}, true)
	out := f.Transfer(0, 1, near)
	s := f.Codec(0).Stats()
	if s.WordsApprox == 0 {
		t.Fatalf("DI-VAXX made no approximate matches: %+v", s)
	}
	for i := range near.Words {
		if e := value.RelError(near.Words[i], out.Words[i], value.Int32); e > 0.10+1e-9 {
			t.Fatalf("word %d error %g exceeds 10%%", i, e)
		}
	}
}

func TestDIVaxxExactTrafficNeverCorrupted(t *testing.T) {
	f := newDITestFabric(t, DIVaxx, 2, 20)
	r := testRand()
	base := uint32(1 << 16)
	for iter := 0; iter < 500; iter++ {
		words := make([]uint32, 8)
		for i := range words {
			words[i] = base + uint32(r.Intn(2000)) // overlapping value families
		}
		approximable := iter%2 == 0
		blk := &value.Block{Words: words, DType: value.Int32, Approximable: approximable}
		out := f.Transfer(0, 1, blk)
		if !approximable && !out.Equal(blk) {
			t.Fatalf("iter %d: precise block corrupted\n got %v\nwant %v", iter, out.Words, blk.Words)
		}
		if approximable {
			for i := range words {
				if e := value.RelError(words[i], out.Words[i], value.Int32); e > 0.20+1e-9 {
					t.Fatalf("iter %d word %d error %g exceeds 20%%", iter, i, e)
				}
			}
		}
	}
}

func TestDIVaxxThresholdProperty(t *testing.T) {
	for _, pct := range []int{5, 10, 20} {
		f := newDITestFabric(t, DIVaxx, 2, pct)
		bound := float64(pct)/100 + 1e-9
		check := func(words []uint32) bool {
			if len(words) == 0 {
				return true
			}
			if len(words) > 16 {
				words = words[:16]
			}
			blk := &value.Block{Words: words, DType: value.Int32, Approximable: true}
			out := f.Transfer(0, 1, blk)
			for i := range blk.Words {
				if value.RelError(blk.Words[i], out.Words[i], value.Int32) > bound {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, nil); err != nil {
			t.Fatalf("threshold %d%%: %v", pct, err)
		}
	}
}

func TestDictEvictionInvalidateHandshake(t *testing.T) {
	cfg := DictConfig{Nodes: 2, Entries: 2, CandidateCap: 16, PromoteThreshold: 2, PendingCap: 2}
	mk := func(node int) Codec {
		return NewCodec(DIComp, cfg, 0, node)
	}
	f := NewFabric(2, mk)
	// Fill the 2-entry decoder PMT with patterns A and B.
	for i := 0; i < 4; i++ {
		f.Transfer(0, 1, value.BlockFromI32([]int32{100, 100, 200, 200}, false))
	}
	// Verify both compress now.
	f.Transfer(0, 1, value.BlockFromI32([]int32{100, 200}, false))
	if f.Codec(0).Stats().WordsExact == 0 {
		t.Fatal("patterns never learned")
	}
	// Flood with new hot patterns to force evictions + handshakes.
	for i := 0; i < 6; i++ {
		f.Transfer(0, 1, value.BlockFromI32([]int32{300, 300, 400, 400}, false))
	}
	// The new patterns must now compress, and data must stay correct.
	out := f.Transfer(0, 1, value.BlockFromI32([]int32{300, 400, 100, 200}, false))
	want := value.BlockFromI32([]int32{300, 400, 100, 200}, false)
	if !out.Equal(want) {
		t.Fatalf("post-eviction data wrong: %v", out.Words)
	}
	d := f.Codec(1).(*dictCodec)
	if d.DecodeMismatches() != 0 {
		t.Fatalf("%d decode mismatches", d.DecodeMismatches())
	}
	if len(d.pending) != 0 {
		t.Fatalf("%d pending evictions never completed", len(d.pending))
	}
}

// notifLog is a codec that records every notification handed to it.
type notifLog struct {
	Codec
	got *[]Notification
}

func (l notifLog) HandleNotification(n Notification) []Notification {
	*l.got = append(*l.got, n)
	return l.Codec.HandleNotification(n)
}

// TestFabricDeliverCopiesBatch evicts two decoder entries, mapped by two
// different encoders, in one Decompress. Both acks return to the decoder
// mid-delivery, and each completes an install that rewrites the
// codec-owned batch storage (the test checks that it does). Every
// notification must still be delivered exactly once, in FIFO order: a
// deliver that works through the codec's slice as a stack loses the
// second invalidate to the first install, and a depth-first one reorders
// the protocol.
func TestFabricDeliverCopiesBatch(t *testing.T) {
	cfg := DictConfig{Nodes: 3, Entries: 2, PromoteThreshold: 2}
	var got []Notification
	f := NewFabric(3, func(node int) Codec {
		c := NewCodec(DIComp, cfg, 0, node)
		return notifLog{c, &got}
	})
	// Encoders 1 and 2 each teach decoder 0 one pattern, filling its PMT.
	f.Transfer(1, 0, value.BlockFromI32([]int32{100, 100}, false))
	f.Transfer(2, 0, value.BlockFromI32([]int32{200, 200}, false))
	got = got[:0]

	enc := f.Codec(1).Compress(0, value.BlockFromI32([]int32{300, 300, 400, 400}, false))
	_, batch := f.Codec(0).Decompress(1, enc)
	sent := append([]Notification(nil), batch...)
	if len(sent) != 2 || sent[0].Kind != NotifInvalidate || sent[1].Kind != NotifInvalidate || sent[0].To == sent[1].To {
		t.Fatalf("batch %+v, want invalidates to both encoders", sent)
	}
	f.Deliver(batch)
	if batch[0] == sent[0] {
		t.Fatal("no install rewrote the decoder's batch; the test exercises nothing")
	}

	ack := func(from int, inv Notification) Notification {
		return Notification{From: from, To: 0, Kind: NotifInvalidateAck, Index: inv.Index, Pattern: inv.Pattern}
	}
	update := func(p int32, slot int) Notification {
		return Notification{From: 0, To: 1, Kind: NotifUpdate, Pattern: value.Word(p), DType: value.Int32, Index: slot}
	}
	want := []Notification{
		sent[0], sent[1],
		ack(sent[0].To, sent[0]), ack(sent[1].To, sent[1]),
		update(300, sent[0].Index), update(400, sent[1].Index),
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d notifications, want %d:\n got %+v\nwant %+v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDictSharedEntryAcrossSenders(t *testing.T) {
	f := newDITestFabric(t, DIComp, 3, 0)
	blk := value.BlockFromI32([]int32{0x0BADF00D, 0x0BADF00D}, false)
	// Sender 0 teaches the decoder at node 2.
	for i := 0; i < 4; i++ {
		f.Transfer(0, 2, blk)
	}
	// Sender 1 transmits the same pattern raw once; the decoder recognizes
	// it and extends the mapping (valid-bit vector) to sender 1.
	f.Transfer(1, 2, blk)
	f.Transfer(1, 2, blk)
	if f.Codec(1).Stats().WordsExact == 0 {
		t.Fatal("second sender never learned the shared entry")
	}
}

func TestDictNotificationTolerance(t *testing.T) {
	cfg := DefaultDictConfig(2)
	c := NewCodec(DIComp, cfg, 0, 0)
	// Invalidate for a mapping we never had must still ack.
	replies := c.HandleNotification(Notification{From: 1, To: 0, Kind: NotifInvalidate, Pattern: 7, Index: 3})
	if len(replies) != 1 || replies[0].Kind != NotifInvalidateAck {
		t.Fatalf("invalidate of unknown mapping: replies %v", replies)
	}
	// Stray ack must be ignored.
	if out := c.HandleNotification(Notification{From: 1, To: 0, Kind: NotifInvalidateAck, Index: 5}); len(out) != 0 {
		t.Fatalf("stray ack produced %v", out)
	}
}

func TestDictConfigValidation(t *testing.T) {
	if _, err := FactoryWithDict(DIComp, DictConfig{Nodes: 0, Entries: 8}, 0); err == nil {
		t.Fatal("accepted zero nodes")
	}
	if _, err := FactoryWithDict(DIComp, DictConfig{Nodes: 4, Entries: 0}, 0); err == nil {
		t.Fatal("accepted zero entries")
	}
	if f, err := FactoryWithDict(DIComp, DefaultDictConfig(4), 0); err != nil || f(9) != nil {
		t.Fatal("made a codec for an out-of-range node id")
	}
	if _, err := FactoryWithDict(DIVaxx, DefaultDictConfig(4), 500); err == nil {
		t.Fatal("accepted bogus threshold")
	}
}

func TestIndexBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 16: 4, 32: 5}
	for entries, want := range cases {
		if got := indexBits(entries); got != want {
			t.Errorf("indexBits(%d) = %d, want %d", entries, got, want)
		}
	}
}

func TestCandidateTableLFU(t *testing.T) {
	var ct candidateTable
	ct.init(make([]uint64, 2*2))
	ct.bump(1, value.Int32)
	ct.bump(1, value.Int32)
	ct.bump(2, value.Int32)
	// Table full; inserting 3 must evict the cold candidate 2, not hot 1.
	ct.bump(3, value.Int32)
	if got := ct.bump(1, value.Int32); got != 3 {
		t.Fatalf("hot candidate count reset: %d", got)
	}
	// Same pattern with different dtype is a distinct candidate.
	var ct2 candidateTable
	ct2.init(make([]uint64, 2*4))
	ct2.bump(5, value.Int32)
	if got := ct2.bump(5, value.Float32); got != 1 {
		t.Fatalf("dtype not distinguished: count %d", got)
	}
	ct2.drop(5, value.Int32)
	if got := ct2.bump(5, value.Int32); got != 1 {
		t.Fatalf("drop did not remove candidate: %d", got)
	}
}

func TestDIVaxxFloatPoolCompression(t *testing.T) {
	f := newDITestFabric(t, DIVaxx, 2, 10)
	// A hot float value teaches the dictionary; jittered variants within
	// 10% should approximate to it.
	hot := float32(3.14159)
	blk := value.BlockFromF32([]float32{hot, hot, hot, hot}, true)
	for i := 0; i < 4; i++ {
		f.Transfer(0, 1, blk)
	}
	near := value.BlockFromF32([]float32{hot * 1.004, hot * 0.997, hot, hot * 1.001}, true)
	out := f.Transfer(0, 1, near)
	for i := range near.Words {
		e := value.RelError(near.Words[i], out.Words[i], value.Float32)
		if e > 0.10+1e-6 {
			t.Fatalf("float word %d error %g", i, e)
		}
	}
	if f.Codec(0).Stats().WordsApprox == 0 {
		t.Fatal("no approximate float matches")
	}
}

func TestFabricStatsAggregation(t *testing.T) {
	f := newDITestFabric(t, DIComp, 2, 0)
	f.Transfer(0, 1, value.BlockFromI32([]int32{1, 2, 3}, false))
	s := f.Stats()
	if s.BlocksIn != 1 || s.BlocksDecoded != 1 || s.WordsIn != 3 {
		t.Fatalf("aggregate stats wrong: %+v", s)
	}
}

// TestDictNotificationsConserved: on a closed fabric that hands over
// every notification exactly once, Σ NotificationsSent must equal
// Σ NotificationsRecv at quiescence — the count Fig. 15's NotifPJ term
// and *_codec_notifications_total are read from. 2-entry PMTs under a
// shifting hot set keep the eviction handshake (invalidate → ack →
// deferred install) busy.
func TestDictNotificationsConserved(t *testing.T) {
	const nodes, transfers = 4, 4000
	for _, tc := range []struct {
		name   string
		scheme Scheme
	}{
		{"DI-COMP", DIComp},
		{"DI-VAXX", DIVaxx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DictConfig{Nodes: nodes, Entries: 2, CandidateCap: 16, PromoteThreshold: 2, PendingCap: 2}
			f := NewFabric(nodes, func(node int) Codec { return NewCodec(tc.scheme, cfg, 10, node) })
			rng := sim.NewRand(5)
			for i := 0; i < transfers; i++ {
				src := rng.Intn(nodes)
				dst := (src + 1 + rng.Intn(nodes-1)) % nodes
				words := make([]int32, 8)
				for w := range words {
					// Six hot values, drifting every 500 transfers.
					words[w] = int32(1000*(i/500) + 100*rng.Intn(6))
				}
				f.Transfer(src, dst, value.BlockFromI32(words, tc.scheme == DIVaxx))
			}
			s := f.Stats()
			if s.NotificationsSent == 0 {
				t.Fatalf("no protocol traffic to conserve: %+v", s)
			}
			var evicted bool
			for n := 0; n < nodes; n++ {
				d := f.Codec(n).(*dictCodec)
				if len(d.pending) != 0 {
					t.Fatalf("node %d: %d pending installs at quiescence", n, len(d.pending))
				}
				evicted = evicted || d.stats.TableWrites > uint64(cfg.Entries)
			}
			if !evicted {
				t.Fatal("workload never put the PMTs under eviction pressure")
			}
			if s.NotificationsSent != s.NotificationsRecv {
				t.Fatalf("sent %d != recv %d on a fabric that delivers every notification once",
					s.NotificationsSent, s.NotificationsRecv)
			}
		})
	}
}

// TestDecoderFrequenciesAgeEveryPeriod pins frequency aging: a decoder
// halves every entry's frequency once per AgingPeriod decoded words, at
// the block that crosses the boundary, and at no other block. Hot
// traffic gives the entries their frequencies; cold unique words then
// carry the decoder across the boundary without touching them.
func TestDecoderFrequenciesAgeEveryPeriod(t *testing.T) {
	cfg := DictConfig{Nodes: 2, Entries: 4, CandidateCap: 16, PromoteThreshold: 2, PendingCap: 2, AgingPeriod: 64}
	factory, err := FactoryWithDict(DIComp, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(cfg.Nodes, factory)
	dec := f.Codec(1).(*dictCodec)
	for i := 0; i < 5; i++ {
		f.Transfer(0, 1, value.BlockFromI32([]int32{7, 7, 7, 9, 9, 7, 9, 9}, false))
	}
	freqs := func() []uint64 {
		var out []uint64
		for _, e := range dec.dec {
			if e.valid {
				out = append(out, e.freq)
			}
		}
		return out
	}
	before := freqs()
	if len(before) != 2 || before[0] < 2 || before[1] < 2 {
		t.Fatalf("hot traffic left frequencies %v, want two entries at 2 or more", before)
	}
	halvings := 0
	for cold := int32(1 << 20); dec.stats.WordsDecoded < 120; cold += 8 {
		words := dec.stats.WordsDecoded
		f.Transfer(0, 1, value.BlockFromI32([]int32{cold, cold + 1, cold + 2, cold + 3, cold + 4, cold + 5, cold + 6, cold + 7}, false))
		crossed := words/64 != dec.stats.WordsDecoded/64
		want := before
		if crossed {
			halvings++
			want = slices.Clone(before)
			for i := range want {
				want[i] /= 2
			}
		}
		after := freqs()
		if !slices.Equal(after, want) {
			t.Fatalf("after word %d: frequencies %v, want %v (from %v)", dec.stats.WordsDecoded, after, want, before)
		}
		before = after
	}
	if halvings != 1 {
		t.Fatalf("%d aging boundaries crossed, want 1", halvings)
	}
}

// TestDictSearchCountsSplitByScheme pins the split the power model
// prices: every encoded word is one encoder-PMT search, counted as a
// binary-CAM search under DI-COMP and as a TCAM search under DI-VAXX,
// although both schemes search the one engine.
func TestDictSearchCountsSplitByScheme(t *testing.T) {
	for _, scheme := range []Scheme{DIComp, DIVaxx} {
		t.Run(scheme.String(), func(t *testing.T) {
			f := newDITestFabric(t, scheme, 2, 10)
			rng := testRand()
			for i := 0; i < 200; i++ {
				blk := &value.Block{Words: make([]value.Word, 8), DType: value.Int32, Approximable: true}
				for j := range blk.Words {
					blk.Words[j] = value.Word(0x4000+rng.Intn(6)) << 8
					if rng.Bool(0.3) {
						blk.Words[j] = rng.Uint32()
					}
				}
				before := f.Codec(0).Stats()
				f.Transfer(0, 1, blk)
				after := f.Codec(0).Stats()
				cam, tc := after.CamSearches-before.CamSearches, after.TcamSearches-before.TcamSearches
				want := uint64(len(blk.Words))
				if scheme == DIComp && (cam != want || tc != 0) || scheme == DIVaxx && (cam != 0 || tc != want) {
					t.Fatalf("block %d: %d words counted %d CAM and %d TCAM searches", i, want, cam, tc)
				}
			}
			if s := f.Codec(0).Stats(); s.WordsExact == 0 {
				t.Fatal("no search ever hit, so the counts were only pinned on misses")
			}
		})
	}
}

// TestDICompEntriesMaskNoBits pins what encodeWord's single path relies
// on: a DI-COMP encoder-PMT entry masks no bit, so every hit is exact.
// It must hold through encoder evictions.
func TestDICompEntriesMaskNoBits(t *testing.T) {
	cfg := DefaultDictConfig(3)
	cfg.Entries = 4
	cfg.AgingPeriod = 64
	factory, err := FactoryWithDict(DIComp, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(cfg.Nodes, factory)
	enc := f.Codec(0).(*dictCodec)
	installed := map[uint32]bool{}
	rng := testRand()
	for i := 0; i < 600; i++ {
		dst := 1 + i%2
		blk := &value.Block{Words: make([]value.Word, 8), DType: value.Int32}
		hot := value.Word(dst<<12 | (i/30)%6)
		for j := range blk.Words {
			blk.Words[j] = hot
			if i%5 == 4 {
				blk.Words[j] = rng.Uint32() // cold phases between the hot ones
			}
		}
		f.Transfer(0, dst, blk)
		for slot := 0; slot < cfg.Entries; slot++ {
			if e, _, ok := enc.pmt.SlotState(slot); ok {
				if e.Mask != 0 {
					t.Fatalf("transfer %d: slot %d holds %+v, which masks bits", i, slot, e)
				}
				installed[e.Value] = true
			}
		}
	}
	if len(installed) <= cfg.Entries {
		t.Fatalf("only %d distinct entries ever installed in %d slots: nothing was evicted", len(installed), cfg.Entries)
	}
}
