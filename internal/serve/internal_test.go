package serve

import (
	"errors"
	"strings"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
)

func intBlock(vals ...int32) *value.Block { return value.BlockFromI32(vals, true) }

// TestBackpressureDeterministic pins the bounded-queue semantics: with
// the worker parked inside a control function, the queue fills to exactly
// QueueDepth and the next submission is rejected with ErrOverloaded —
// then everything drains once the worker is released.
func TestBackpressureDeterministic(t *testing.T) {
	gw, err := New(Config{
		Nodes: 2, Scheme: compress.Baseline,
		Shards: 1, QueueDepth: 2, MaxBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	sh := gw.shards[0]

	// Park the worker inside a control function so nothing drains.
	release := make(chan struct{})
	sh.ctl <- func(*pool) { <-release }
	blk := intBlock(1, 2, 3, 4)
	replies := make(chan Result, 8)
	accepted := 0
	sawOverload := false
	// QueueDepth submissions fit; every one after that must be rejected.
	for i := 0; i < 6; i++ {
		err := gw.Submit(Request{Src: 0, Dst: 1, Block: blk, Tag: uint64(i), ThresholdPct: DefaultThreshold}, replies)
		if errors.Is(err, ErrOverloaded) {
			sawOverload = true
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	if !sawOverload {
		t.Error("queue of depth 2 absorbed 6 submissions without ErrOverloaded")
	}
	if accepted != 2 {
		t.Errorf("accepted %d submissions, want exactly the 2 queue slots", accepted)
	}
	close(release)

	for i := 0; i < accepted; i++ {
		if res := <-replies; res.Err != nil {
			t.Fatalf("reply: %v", res.Err)
		}
	}
	m := gw.Metrics()
	if m.Accepted != uint64(accepted) || m.Processed != uint64(accepted) {
		t.Errorf("accepted %d processed %d, want %d", m.Accepted, m.Processed, accepted)
	}
	if m.Rejected == 0 {
		t.Error("rejected counter not bumped")
	}
}

// TestShardAffinity verifies the flow-to-shard map is deterministic and
// uses every shard for a spread of flows.
func TestShardAffinity(t *testing.T) {
	gw, err := New(Config{Nodes: 64, Scheme: compress.Baseline, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	used := map[int]bool{}
	for src := 0; src < 64; src++ {
		for dst := 0; dst < 64; dst++ {
			a, b := gw.shardFor(src, dst), gw.shardFor(src, dst)
			if a != b {
				t.Fatalf("shardFor(%d,%d) not deterministic", src, dst)
			}
			used[a.id] = true
		}
	}
	if len(used) != 4 {
		t.Errorf("only %d of 4 shards used by 64x64 flows", len(used))
	}
}

// TestDroppedReplyCounter covers the non-blocking reply contract: a full
// reply channel drops the result and counts it instead of stalling the
// shard.
func TestDroppedReplyCounter(t *testing.T) {
	gw, err := New(Config{Nodes: 2, Scheme: compress.Baseline, Shards: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	full := make(chan Result) // unbuffered and never read: every send drops
	for i := 0; i < 4; i++ {
		if err := gw.Submit(Request{Src: 0, Dst: 1, Block: intBlock(1, 2), ThresholdPct: DefaultThreshold}, full); err != nil {
			t.Fatal(err)
		}
	}
	gw.Close()
	if m := gw.Metrics(); m.DroppedReplies != 4 {
		t.Errorf("dropped %d replies, want 4", m.DroppedReplies)
	}
}

func TestProtocolRequestRoundTrip(t *testing.T) {
	blk := value.BlockFromF32([]float32{1.5, -2.25, 0, 3e7}, true)
	req := Request{Src: 3, Dst: 9, Block: blk, ThresholdPct: 15}
	frame := appendRequest(nil, 42, req)
	id, got, err := parseRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 || got.Tag != 42 {
		t.Errorf("id %d tag %d, want 42", id, got.Tag)
	}
	if got.Src != 3 || got.Dst != 9 || got.ThresholdPct != 15 {
		t.Errorf("header mismatch: %+v", got)
	}
	if !got.Block.Equal(blk) {
		t.Error("block did not round-trip")
	}

	// The default (zero) threshold round-trips as zero; exact-override
	// sentinels stay negative on the wire.
	frame = appendRequest(nil, 7, Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: DefaultThreshold})
	if _, got, err = parseRequest(frame); err != nil || got.ThresholdPct != DefaultThreshold {
		t.Errorf("default threshold round-trip: pct %d err %v", got.ThresholdPct, err)
	}
	frame = appendRequest(nil, 8, Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: ThresholdExact})
	if _, got, err = parseRequest(frame); err != nil || got.ThresholdPct >= 0 {
		t.Errorf("exact threshold round-trip: pct %d err %v", got.ThresholdPct, err)
	}
}

func TestProtocolResponseRoundTrip(t *testing.T) {
	blk := intBlock(5, 6, 7, 8)
	res := Result{Tag: 99, Block: blk, BitsIn: 128, BitsOut: 37}
	got, err := parseResponse(appendResponse(nil, res))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 99 || got.BitsIn != 128 || got.BitsOut != 37 || !got.Block.Equal(blk) {
		t.Errorf("response mismatch: %+v", got)
	}

	got, err = parseResponse(appendResponse(nil, Result{Tag: 1, Err: ErrOverloaded}))
	if err != nil || !errors.Is(got.Err, ErrOverloaded) {
		t.Errorf("overloaded status: res %+v err %v", got, err)
	}

	got, err = parseResponse(appendResponse(nil, Result{Tag: 2, Err: errors.New("boom")}))
	if err != nil || got.Err == nil || !strings.Contains(got.Err.Error(), "boom") {
		t.Errorf("error status: res %+v err %v", got, err)
	}
}

func TestProtocolRejectsMalformed(t *testing.T) {
	// The tenantless kind-1 layout old peers emit: today's frame minus
	// the tenant-length byte.
	kind1 := appendRequest(nil, 1, Request{Src: 0, Dst: 1, Block: intBlock(1)})
	kind1 = append(append([]byte{1}, kind1[1:15]...), kind1[16:]...)
	tenant := appendRequest(nil, 1, Request{Src: 0, Dst: 1, Tenant: "gold", Block: intBlock(1)})
	cases := [][]byte{
		nil,
		{msgResponse},
		{msgRequest, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // header only, no block
		appendRequest(nil, 1, Request{Src: 0, Dst: 1, Block: intBlock(1)})[:18],
		kind1,
		tenant[:18], // cut inside the tenant name
		append(append([]byte(nil), tenant[:15]...), 200), // tenant length beyond the frame
	}
	for i, p := range cases {
		if _, _, err := parseRequest(p); err == nil {
			t.Errorf("case %d: malformed request accepted", i)
		}
	}
	if _, err := parseResponse([]byte{msgResponse, 0, 0, 0, 0, 0, 0, 0, 1, 77}); err == nil {
		t.Error("unknown status accepted")
	}
	// Trailing garbage after a valid request must be rejected.
	frame := appendRequest(nil, 1, Request{Src: 0, Dst: 1, Block: intBlock(1, 2)})
	if _, _, err := parseRequest(append(frame, 0xAA)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestFrameLimit(t *testing.T) {
	var sink strings.Builder
	if err := writeFrame(&sink, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized frame written")
	}
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(strings.NewReader(string(big)), nil); err == nil {
		t.Error("oversized frame length accepted")
	}
}
