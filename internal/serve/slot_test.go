package serve

import (
	"math/rand"
	"net"
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
)

// TestServerSlotReuse pipelines requests of mixed block sizes through a
// connection with only two slots, so every slot is recycled about a
// thousand times while shard workers decode into them. FP-VAXX is
// stateless, so each response must equal a fresh transfer of its own
// request block: a slot handed back to the reader while a shard still
// reads or writes it shows up as a wrong block (or, under -race, as a
// race). It then drives one slot through an oversized block and checks
// that recycling drops the storage past slotMaxRetainedWords while a
// small block's storage is kept for reuse.
func TestServerSlotReuse(t *testing.T) {
	const nodes, pct, records = 4, 10, 2000
	cfg := Config{Nodes: nodes, Scheme: compress.FPVaxx, ThresholdPct: pct, Shards: 2, QueueDepth: records}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := NewServer(gw)
	srv.maxInflight = 2
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

	factory, err := compress.FactoryFor(compress.FPVaxx, nodes, pct)
	if err != nil {
		t.Fatal(err)
	}
	ref := compress.NewFabric(nodes, factory)
	rng := rand.New(rand.NewSource(35))
	block := func(n int) *value.Block {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = rng.Int31n(1<<20) - 1<<19
		}
		return value.BlockFromI32(vals, true)
	}

	done := make(chan *Call, records)
	for i := 0; i < records; i++ {
		src := i % nodes
		cl.Go(Request{Src: src, Dst: (src + 1) % nodes, Block: block([]int{64, 4, 16}[i%3])}, done)
	}
	for i := 0; i < records; i++ {
		call := <-done
		if call.Err != nil {
			t.Fatalf("request %d: %v", call.Req.Tag, call.Err)
		}
		want := ref.Transfer(call.Req.Src, call.Req.Dst, call.Req.Block)
		if !call.Res.Block.Equal(want) {
			t.Fatalf("response for a %d-word block from %d differs from a fresh transfer of it",
				len(call.Req.Block.Words), call.Req.Src)
		}
	}

	// One slot through the shard path the server uses: parse into it,
	// decode into it, recycle it.
	results := make(chan *slot, 1)
	sl := &slot{results: results}
	run := func(words int) {
		t.Helper()
		in := block(words)
		frame, err := MarshalRequest(7, Request{Src: 0, Dst: 1, Block: in})
		if err != nil {
			t.Fatal(err)
		}
		_, req, err := parseRequestInto(&sl.in, frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.submit(pending{req: req, slot: sl}); err != nil {
			t.Fatal(err)
		}
		<-results
		if sl.res.Err != nil || sl.res.Block != &sl.out || !sl.out.Equal(ref.Transfer(0, 1, in)) {
			t.Fatalf("%d-word block through a slot: result %+v", words, sl.res)
		}
		sl.recycle()
	}
	run(64)
	if cap(sl.in.Words) < 64 || cap(sl.out.Words) < 64 {
		t.Fatalf("recycling dropped a 64-word slot's storage (in %d, out %d words)", cap(sl.in.Words), cap(sl.out.Words))
	}
	run(slotMaxRetainedWords + 1)
	if cap(sl.in.Words) > slotMaxRetainedWords || cap(sl.out.Words) > slotMaxRetainedWords {
		t.Fatalf("recycled slot keeps %d/%d words, bound %d", cap(sl.in.Words), cap(sl.out.Words), slotMaxRetainedWords)
	}
	run(16)
}
