// White-box edge cases for the GC reclaim machinery: interactions with
// in-flight promotion evictions (locked slots), the gc-flavored ack
// completion, and reclaims racing encoder-local state.
package compress

import (
	"testing"

	"approxnoc/internal/value"
)

func newGCDict(t *testing.T, cfg DictConfig) *dictCodec {
	t.Helper()
	c := NewCodec(DIComp, cfg, 0, 0)
	return c.(*dictCodec)
}

// seedEntry hand-installs a decoder row mapped by encoder enc.
func seedEntry(d *dictCodec, slot int, pattern value.Word, enc int) {
	e := &d.dec[slot]
	e.valid = true
	e.locked = false
	e.pattern = pattern
	e.dtype = value.Int32
	e.freq = 0
	mapped := d.row(d.validBits, slot)
	clear(mapped)
	if enc >= 0 {
		mapped.add(enc)
	}
}

// TestRunEpochSkipsLockedSlots pins that a slot locked behind an
// in-flight promotion eviction is invisible to both GC policies — its
// idle counter does not advance and no reclaim touches it.
func TestRunEpochSkipsLockedSlots(t *testing.T) {
	cfg := DictConfig{Nodes: 4, Entries: 4, AgingPeriod: 64, GCAgeOutEpochs: 1, GCPressureSweep: 4, GCPressureMin: 1}
	d := newGCDict(t, cfg)
	seedEntry(d, 0, 0xAAAA, 1)
	d.dec[0].locked = true // promotion eviction in flight
	d.pending = append(d.pending, pendingInstall{slot: 0, pattern: 0xBBBB, requester: 1})
	d.row(d.awaiting, 0).add(1)
	d.blockedPromotes = 10 // pressure sweep armed

	for epoch := 0; epoch < 3; epoch++ {
		d.runEpoch(nil)
	}
	if !d.dec[0].valid || !d.dec[0].locked {
		t.Fatal("GC touched a locked slot")
	}
	if d.dec[0].idle != 0 {
		t.Fatalf("locked slot accumulated %d idle epochs", d.dec[0].idle)
	}
	if d.stats.GCAgeEvictions != 0 || d.stats.GCPressureEvictions != 0 {
		t.Fatalf("GC reclaimed around the lock: %+v", d.stats)
	}
	// The in-flight eviction still completes normally afterwards.
	d.handleAck(nil, Notification{From: 1, Kind: NotifInvalidateAck, Index: 0})
	if !d.dec[0].valid || d.dec[0].pattern != 0xBBBB {
		t.Fatal("pending install did not survive the GC epochs")
	}
}

// TestGCAckFreesWithoutInstall pins the gc-flavored handshake: when the
// last ack for a GC reclaim arrives, the slot is freed — not reused for
// an install — and its frequency is cleared.
func TestGCAckFreesWithoutInstall(t *testing.T) {
	cfg := DictConfig{Nodes: 4, Entries: 2, AgingPeriod: 64, GCAgeOutEpochs: 1}
	d := newGCDict(t, cfg)
	seedEntry(d, 0, 0xCCCC, 1)
	d.row(d.validBits, 0).add(2) // two encoders map it

	notifs := d.runEpoch(nil)
	if len(notifs) != 2 {
		t.Fatalf("reclaim fanned out %d invalidates, want 2", len(notifs))
	}
	if !d.dec[0].locked || len(d.pending) != 1 || !d.pending[0].gc {
		t.Fatal("reclaim did not lock the slot behind a gc pending")
	}
	gen := d.gen
	d.handleAck(nil, Notification{From: 1, Kind: NotifInvalidateAck, Index: 0})
	if !d.dec[0].locked {
		t.Fatal("slot unlocked before every encoder acked")
	}
	d.handleAck(nil, Notification{From: 2, Kind: NotifInvalidateAck, Index: 0})
	if d.dec[0].valid || d.dec[0].locked || d.dec[0].freq != 0 {
		t.Fatalf("gc ack completion left slot %+v", d.dec[0])
	}
	if len(d.pending) != 0 {
		t.Fatal("gc pending not retired")
	}
	if d.gen <= gen {
		t.Fatal("gc completion did not advance the generation")
	}
}

// TestGCUnmappedEntryFreesImmediately pins the fast path: an entry no
// encoder ever mapped needs no handshake and frees inside the epoch.
func TestGCUnmappedEntryFreesImmediately(t *testing.T) {
	cfg := DictConfig{Nodes: 4, Entries: 2, AgingPeriod: 64, GCAgeOutEpochs: 1}
	d := newGCDict(t, cfg)
	seedEntry(d, 1, 0xDDDD, -1) // no valid bits
	if notifs := d.runEpoch(nil); len(notifs) != 0 {
		t.Fatalf("unmapped reclaim produced %d notifications", len(notifs))
	}
	if d.dec[1].valid {
		t.Fatal("unmapped cold entry survived its age-out epoch")
	}
	if d.stats.GCAgeEvictions != 1 {
		t.Fatalf("age evictions %d, want 1", d.stats.GCAgeEvictions)
	}
}

// TestGCReclaimRacingEncoderEviction pins the race where the encoder
// already dropped its mapping locally (its own CAM eviction) when the
// GC invalidate arrives: the encoder still acks, the decoder still
// frees, and nothing desyncs.
func TestGCReclaimRacingEncoderEviction(t *testing.T) {
	cfg := DictConfig{Nodes: 2, Entries: 2, AgingPeriod: 64, GCAgeOutEpochs: 1}
	dec := newGCDict(t, cfg)
	encC := NewCodec(DIComp, cfg, 0, 1)
	enc := encC.(*dictCodec)

	seedEntry(dec, 0, 0xEEEE, 1)
	// The encoder never learned the mapping (or already evicted it).
	notifs := dec.runEpoch(nil)
	if len(notifs) != 1 {
		t.Fatalf("want one invalidate, got %d", len(notifs))
	}
	acks := enc.HandleNotification(notifs[0])
	if len(acks) != 1 || acks[0].Kind != NotifInvalidateAck {
		t.Fatalf("encoder did not ack a stale invalidate: %+v", acks)
	}
	dec.HandleNotification(acks[0])
	if dec.dec[0].valid || dec.dec[0].locked {
		t.Fatal("decoder slot not freed after stale-mapping ack")
	}
}

// TestGCBlockedReclaimCounts pins the pending-cap deferral counter at
// the unit level: a full pending table defers the reclaim, counts it,
// and leaves the entry intact for a later epoch.
func TestGCBlockedReclaimCounts(t *testing.T) {
	cfg := DictConfig{Nodes: 4, Entries: 4, AgingPeriod: 64, GCAgeOutEpochs: 1, PendingCap: 1}
	d := newGCDict(t, cfg)
	seedEntry(d, 0, 0xF000, 1)
	seedEntry(d, 1, 0xF001, 1)
	notifs := d.runEpoch(nil)
	if len(notifs) != 1 {
		t.Fatalf("want one reclaim handshake under cap 1, got %d notifications", len(notifs))
	}
	if d.stats.GCBlockedReclaims != 1 {
		t.Fatalf("blocked reclaims %d, want 1", d.stats.GCBlockedReclaims)
	}
	if !d.dec[1].valid || d.dec[1].locked {
		t.Fatal("deferred entry must stay live until its own handshake")
	}
}
