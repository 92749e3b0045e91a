package serve

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
)

// TestReadFrameSteadyStateAllocs pins the read-path pooling contract: a
// connection replays 10k frames through readFrame with one reused buffer
// and must do O(1) total allocations — not O(frames). Before pooling,
// every frame cost a fresh make([]byte, n); this gate keeps that from
// coming back.
func TestReadFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	blk := value.NewBlock(16, value.Int32, true)
	for w := range blk.Words {
		blk.Words[w] = uint32(w * 2654435761)
	}
	payload, err := MarshalRequest(42, Request{Src: 1, Dst: 2, Block: blk, ThresholdPct: DefaultThreshold})
	if err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	if err := writeFrame(&one, payload); err != nil {
		t.Fatal(err)
	}
	const frames = 10000
	wire := bytes.Repeat(one.Bytes(), frames)
	rd := bytes.NewReader(wire)
	br := bufio.NewReaderSize(rd, 64<<10)
	buf := make([]byte, 0, len(payload))
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		br.Reset(rd)
		for i := 0; i < frames; i++ {
			frame, err := readFrame(br, buf)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			buf = frame[:0]
		}
	})
	if allocs > 1 {
		t.Fatalf("10k-frame replay allocated %.0f times; the read path must reuse one buffer per connection", allocs)
	}
}

// wireAllocBudget is the end-to-end allocation budget per request on the
// serve path, client Go through server encode and back. The frames are
// zero-copy (reused read buffers, append-in-place write arenas) and the
// server parses and decodes into recycled per-connection slots, so the
// two allocations that remain are client-side and caller-owned: the Call
// that Go returns and the response Block, whose header and words are one
// object. Measured exactly 2.0 on go1.24/amd64; the third is headroom
// for map growth and channel internals, not for a server-side
// allocation per request.
const wireAllocBudget = 3

// TestWireReplaySteadyStateAllocs is the serve-path analogue of
// TestStepZeroAllocs: after warmup, a 10k-request pipelined replay over
// a live loopback connection must stay within wireAllocBudget heap
// allocations per request. It would catch a regression to per-frame
// buffer allocation on either side of the wire (each would add several
// allocs per request).
func TestWireReplaySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	rig, err := NewLoadgenRig(
		Config{Nodes: 8, Scheme: compress.Baseline, ThresholdPct: 0, Shards: 1, QueueDepth: 256},
		Loadgen{Conns: 1, Depth: 8, Words: 16},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	// Warm up pools, arenas, bufio buffers, and the pending map.
	if _, err := rig.Run(2000); err != nil {
		t.Fatal(err)
	}
	const records = 10000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := rig.Run(records); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.Mallocs-before.Mallocs) / records
	t.Logf("wire replay: %.1f allocs/request (budget %d)", perRecord, wireAllocBudget)
	if perRecord > wireAllocBudget {
		t.Fatalf("wire replay allocated %.1f objects per request, budget %d; a per-frame allocation crept back into the serve path", perRecord, wireAllocBudget)
	}
}

// TestClientDoAllocs pins the synchronous wire round trip: Do recycles
// its Call and the call's Done channel, and the server decodes into
// recycled slots, so a warmed loopback Do allocates only the response
// block, header and words in one object.
func TestClientDoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	gw, err := New(Config{Nodes: 4, Scheme: compress.Baseline, ThresholdPct: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := NewServer(gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	req := Request{Src: 1, Dst: 2, Block: value.NewBlock(16, value.Int32, true), ThresholdPct: DefaultThreshold}
	do := func() {
		if _, err := cl.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		do()
	}
	if a := testing.AllocsPerRun(500, do); a != 1 {
		t.Fatalf("a loopback Do round trip allocates %.0f times, want 1 (the response block)", a)
	}
}

// TestGatewayDoAllocs pins the in-process round trip: Gateway.Do
// recycles its reply channel, so a call allocates only the result block.
func TestGatewayDoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under the race detector")
	}
	gw, err := New(Config{Nodes: 4, Scheme: compress.Baseline, ThresholdPct: 0, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	req := Request{Src: 1, Dst: 2, Block: value.NewBlock(16, value.Int32, true), ThresholdPct: DefaultThreshold}
	do := func() {
		if _, err := gw.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		do()
	}
	if a := testing.AllocsPerRun(500, do); a != 1 {
		t.Fatalf("Gateway.Do allocates %.0f times, want 1 (the result block)", a)
	}
}
