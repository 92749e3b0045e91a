package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// spanName enumerates the layer boundaries the traced repetition records.
// Spans are taken from this package only, around calls into each layer's
// public functions; spans inside the program are a later change.
type spanName uint8

const (
	spClientRTT spanName = iota // Client.Do, or Client.Go until its call completes
	spClientGo                  // time inside Client.Go
	spChain                     // parent of the five in-process stages of one request
	spMarshalReq
	spUnmarshalReq
	spGatewayDo
	spMarshalResp
	spUnmarshalResp
	spEncode   // compress.CompressTransient
	spDecode   // Codec.Decompress
	spTransfer // Fabric.Transfer
	spMaskWord // AVCL.MaskWord over one batch of words
	spMaskInt
	spMaskFloat
	spTCAMSearch
	spCAMLookup
	spTCAMInsert
	spQoSSpend // Ledger.Spend + Refund pairs
	spSimRun   // parent of one simulated run
	spStep     // Network.Step
	spSendData // Network.SendData
	spTick     // Injector.Tick
	spNextBlock
	spFigurePass // one experiments.FigN call
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"serve.client_rtt", "serve.client_go", "serve.chain",
	"serve.marshal_request", "serve.unmarshal_request", "serve.gateway_do",
	"serve.marshal_response", "serve.unmarshal_response",
	"compress.encode", "compress.decode", "compress.transfer",
	"approx.maskword", "approx.maskint", "approx.maskfloat",
	"tcam.search", "tcam.cam_lookup", "tcam.insert",
	"qos.spend", "sim.run", "noc.step", "noc.senddata", "traffic.tick",
	"workload.nextblock", "experiments.figure_pass",
}

type span struct {
	name       spanName
	start, end int64
	id, parent uint64
	req        uint64
}

// spansPerBuf caps what one recording goroutine keeps, so a trace file
// stays a few MB; totals keep counting past the cap.
const spansPerBuf = 4000

// spanBuf is the recorder of one goroutine: no locking on the hot path.
// Every span adds to the per-name totals the layer metrics are computed
// from; the first spansPerBuf are also kept for the trace file.
type spanBuf struct {
	idx     uint64
	spans   []span
	dropped int
	sum     [nSpanNames]int64 // nanoseconds
	calls   [nSpanNames]int64
}

// add records one span covering calls invocations of the layer function
// (1 unless the layer is timed in batches) and returns its id, usable as
// the parent of later spans. Ids start at 1; parent 0 means none.
func (b *spanBuf) add(name spanName, start, end int64, parent, req uint64, calls int) uint64 {
	b.sum[name] += end - start
	b.calls[name] += int64(calls)
	if len(b.spans) >= spansPerBuf {
		b.dropped++
		return 0
	}
	id := b.idx<<32 | uint64(len(b.spans)+1)
	b.spans = append(b.spans, span{name: name, start: start, end: end, id: id, parent: parent, req: req})
	return id
}

// open records a span whose end is not known yet, so that spans inside it
// can name it as parent; close completes it and counts it. A span opened
// past the cap has id 0 and is only counted.
func (b *spanBuf) open(name spanName, start int64, req uint64) uint64 {
	if len(b.spans) >= spansPerBuf {
		b.dropped++
		return 0
	}
	id := b.idx<<32 | uint64(len(b.spans)+1)
	b.spans = append(b.spans, span{name: name, start: start, end: start, id: id, req: req})
	return id
}

func (b *spanBuf) close(id uint64, name spanName, start, end int64) {
	b.sum[name] += end - start
	b.calls[name]++
	if id != 0 {
		b.spans[id&0xffffffff-1].end = end
	}
}

// tracer owns the span buffers of one traced repetition and writes them
// out when the run ends.
type tracer struct {
	clock
	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{clock: newClock()} }

func (t *tracer) buf() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{idx: uint64(len(t.bufs) + 1), spans: make([]span, 0, spansPerBuf)}
	t.bufs = append(t.bufs, b)
	return b
}

// perCall returns the mean nanoseconds per call recorded under name, 0
// when the layer was never entered.
func (t *tracer) perCall(name spanName) float64 {
	sum, calls := t.total(name)
	if calls == 0 {
		return 0
	}
	return float64(sum) / float64(calls)
}

func (t *tracer) total(name spanName) (sumNs, calls int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		sumNs += b.sum[name]
		calls += b.calls[name]
	}
	return sumNs, calls
}

type spanJSON struct {
	ID      uint64 `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  uint64 `json:"parent"`
	Req     uint64 `json:"req"`
}

// write dumps the kept spans as one JSON document.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	dropped := 0
	for _, b := range t.bufs {
		dropped += b.dropped
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped_spans\":%d,\"spans\":[\n", workload, seed, dropped)
	first := true
	for _, b := range t.bufs {
		for _, s := range b.spans {
			line, err := json.Marshal(spanJSON{ID: s.id, Name: spanNames[s.name], StartNs: s.start, EndNs: s.end, Parent: s.parent, Req: s.req})
			if err != nil {
				f.Close()
				return err
			}
			if !first {
				w.WriteString(",\n")
			}
			first = false
			w.Write(line)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
