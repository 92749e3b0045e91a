package traffic

import (
	"bytes"
	"testing"

	"approxnoc/internal/noc"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

func TestReqReplyValidation(t *testing.T) {
	n := testNet(t)
	if _, err := NewReqReply(n, 0, testSource(), 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewReqReply(n, 0.1, nil, 1); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestReqReplyGeneratesDataReplies(t *testing.T) {
	n := testNet(t)
	rr, err := NewReqReply(n, 0.01, testSource(), 7)
	if err != nil {
		t.Fatal(err)
	}
	res := RunReqReply(n, rr, 3000)
	if rr.Sent() == 0 {
		t.Fatal("no requests issued")
	}
	if res.Stats.DataDelivered != rr.Sent() {
		t.Fatalf("data replies delivered %d, requests %d", res.Stats.DataDelivered, rr.Sent())
	}
	if res.Stats.ControlDelivered != rr.Sent() {
		t.Fatalf("control delivered %d, requests %d", res.Stats.ControlDelivered, rr.Sent())
	}
}

func TestReqReplyRoundTripLatency(t *testing.T) {
	// A reply's creation happens at request delivery, so the average data
	// packet latency reflects only the reply leg, while total traffic
	// volume reflects both legs.
	n := testNet(t)
	rr, _ := NewReqReply(n, 0.005, testSource(), 3)
	res := RunReqReply(n, rr, 2000)
	if res.Stats.AvgPacketLatency() <= 0 {
		t.Fatal("no latency measured")
	}
	// 9-flit replies plus 1-flit requests: flit counts must reflect both.
	wantMin := rr.Sent() * (1 + 9)
	if res.Stats.FlitsInjected < wantMin {
		t.Fatalf("flits %d below request+reply floor %d", res.Stats.FlitsInjected, wantMin)
	}
}

func TestReqReplyPreservesUserHandler(t *testing.T) {
	n := testNet(t)
	seen := 0
	n.SetDeliveryHandler(func(p *noc.Packet, blk *value.Block) { seen++ })
	rr, _ := NewReqReply(n, 0.01, testSource(), 5)
	RunReqReply(n, rr, 500)
	if seen == 0 {
		t.Fatal("user delivery handler lost after chaining the generator")
	}
}

func TestReplayTrace(t *testing.T) {
	// Write a trace, read it back, replay it through the network.
	var buf bytes.Buffer
	tw, err := workload.NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := testSource()
	const records = 200
	for i := 0; i < records; i++ {
		rec := workload.TraceRecord{Src: i % 16, Dst: (i + 5) % 16}
		if i%3 == 0 {
			rec.IsData = true
			rec.Block = src.NextBlock()
		}
		if err := tw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	tw.Flush()

	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != records {
		t.Fatalf("read %d records", len(recs))
	}
	n := testNet(t)
	rp, err := NewReplay(n, recs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res := RunReplay(n, rp, 100000)
	if !rp.Done() {
		t.Fatal("trace not fully injected")
	}
	if res.Sent != uint64(records) {
		t.Fatalf("sent %d of %d", res.Sent, records)
	}
	if res.Stats.PacketsDelivered != res.Sent {
		t.Fatalf("delivered %d of %d", res.Stats.PacketsDelivered, res.Sent)
	}
}

func TestReplayValidation(t *testing.T) {
	n := testNet(t)
	if _, err := NewReplay(n, nil, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	bad := []workload.TraceRecord{{Src: 0, Dst: 99}}
	if _, err := NewReplay(n, bad, 1); err == nil {
		t.Fatal("out-of-range record accepted")
	}
}

func TestReplaySkipsSelfRecords(t *testing.T) {
	n := testNet(t)
	recs := []workload.TraceRecord{{Src: 3, Dst: 3}, {Src: 0, Dst: 1}}
	rp, _ := NewReplay(n, recs, 1)
	RunReplay(n, rp, 1000)
	if rp.Skipped() != 1 || rp.Sent() != 1 {
		t.Fatalf("skipped %d sent %d", rp.Skipped(), rp.Sent())
	}
}

func TestReplayFractionalPacing(t *testing.T) {
	n := testNet(t)
	recs := make([]workload.TraceRecord, 10)
	for i := range recs {
		recs[i] = workload.TraceRecord{Src: 0, Dst: 1}
	}
	rp, _ := NewReplay(n, recs, 0.1) // one packet every 10 cycles
	for i := 0; i < 95; i++ {
		rp.Tick()
		n.Step()
	}
	if rp.Sent() != 9 {
		t.Fatalf("sent %d after 95 cycles at 0.1/cycle, want 9", rp.Sent())
	}
}
