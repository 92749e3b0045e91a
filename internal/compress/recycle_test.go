package compress

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"approxnoc/internal/sim"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// twin drives two codec sets, one of new codecs and one of recycled ones,
// with the same transfers, and fails at the first step where anything
// they return or count differs.
type twin struct {
	t               testing.TB
	fresh, recycled []Codec
	blkF, blkR      value.Block
	queueF, queueR  []Notification
	steps           int
}

// transfer sends blk from src to dst on both sets, settles the
// dictionary protocol, and compares every encoding, decoded block,
// notification batch, Stats and codec state on the way.
func (w *twin) transfer(src, dst int, blk *value.Block) {
	w.t.Helper()
	w.steps++
	ef, er := w.fresh[src].Compress(dst, blk), w.recycled[src].Compress(dst, blk)
	if ef.Scheme != er.Scheme || ef.NumWords != er.NumWords || ef.DType != er.DType ||
		ef.Approximable != er.Approximable || ef.Bits != er.Bits || !bytes.Equal(ef.Payload, er.Payload) {
		w.t.Fatalf("step %d: encodings differ: new %+v, recycled %+v", w.steps, *ef, *er)
	}
	nf := w.fresh[dst].DecompressInto(&w.blkF, src, ef)
	nr := w.recycled[dst].DecompressInto(&w.blkR, src, er)
	if !slices.Equal(w.blkF.Words, w.blkR.Words) || w.blkF.DType != w.blkR.DType || w.blkF.Approximable != w.blkR.Approximable {
		w.t.Fatalf("step %d: decoded blocks differ: new %v, recycled %v", w.steps, w.blkF, w.blkR)
	}
	w.sameBatch("decode", nf, nr)
	w.queueF, w.queueR = append(w.queueF[:0], nf...), append(w.queueR[:0], nr...)
	for i := 0; i < len(w.queueF); i++ {
		rf := w.fresh[w.queueF[i].To].HandleNotification(w.queueF[i])
		rr := w.recycled[w.queueR[i].To].HandleNotification(w.queueR[i])
		w.sameBatch(fmt.Sprintf("%v reply", w.queueF[i].Kind), rf, rr)
		w.queueF, w.queueR = append(w.queueF, rf...), append(w.queueR, rr...)
	}
	for node := range w.fresh {
		w.same(node)
	}
}

func (w *twin) sameBatch(what string, f, r []Notification) {
	w.t.Helper()
	if !slices.Equal(f, r) {
		w.t.Fatalf("step %d: %s batches differ: new %+v, recycled %+v", w.steps, what, f, r)
	}
}

// same compares node's Stats and its state.
func (w *twin) same(node int) {
	w.t.Helper()
	f, r := w.fresh[node], w.recycled[node]
	if fs, rs := f.Stats(), r.Stats(); fs != rs {
		w.t.Fatalf("step %d: node %d stats differ: new %+v, recycled %+v", w.steps, node, fs, rs)
	}
	if !reflect.DeepEqual(state(f), state(r)) {
		w.t.Fatalf("step %d: node %d states differ: new\n%+v\nrecycled\n%+v", w.steps, node, state(f), state(r))
	}
}

// stream sends n of ssca2's blocks between random pairs of nodes.
func stream(nodes, n int, seed uint64, send func(src, dst int, blk *value.Block)) {
	m, _ := workload.ByName("ssca2")
	src, r := m.NewSource(seed, 0.75), sim.NewRand(seed)
	for i := 0; i < n; i++ {
		s := r.Intn(nodes)
		d := (s + 1 + r.Intn(nodes-1)) % nodes
		send(s, d, src.NextBlock())
	}
}

// dirty leaves a dictionary codec with state a new one never has: a
// pending eviction whose ack never comes, a full candidate table with a
// victim cached, and nonzero counters.
func dirty(t *testing.T, d *dictCodec) {
	t.Helper()
	var out []Notification
	for k := 0; len(d.pending) == 0; k++ {
		if k == 1000 {
			t.Fatal("no eviction went pending")
		}
		p := value.Word(0xA5000000 + k)
		for i := 0; i < 64 && len(d.pending) == 0; i++ {
			out = d.observeRawWord(out[:0], 1, p, value.Int32)
		}
	}
	// Fill the candidate table, and replace in it once more, so its victim
	// cache holds an index too.
	for k := 0; len(d.cands.keys) < cap(d.cands.keys) || d.cands.victim < 0; k++ {
		d.cands.bump(value.Word(0x5A000000+k), value.Int32)
	}
	d.decodeMismatch++
	if d.pmt.Entries() == 0 || d.pmt.Stats().Searches == 0 || cap(d.notifs) == 0 || cap(d.scratch.w.buf) == 0 {
		t.Fatalf("node %d never searched, installed or notified: %d encoder entries", d.node, d.pmt.Entries())
	}
}

// state is what c holds, but for its storage's spare capacity: the
// encode writer's buffer and a dictionary codec's notification batch.
func state(c Codec) any {
	switch c := c.(type) {
	case *baseline:
		v := *c
		v.scratch.w.buf = nil
		return v
	case *fpCodec:
		v := *c
		v.scratch.w.buf = nil
		return v
	case *bdiCodec:
		v := *c
		v.scratch.w.buf = nil
		return v
	case *dictCodec:
		v := *c
		v.scratch.w.buf, v.notifs = nil, nil
		return v
	}
	panic(fmt.Sprintf("no state for %T", c))
}

// TestRecycledCodecMatchesNew holds every scheme's reuse path to its
// fresh path: codecs Maker makes on codecs that carried
// traffic at another threshold (for the dictionary schemes, each left
// with an eviction pending and a full candidate table, and on the tables
// of another shape too) must start in the state new ones start in, and
// replay a stream exactly as they do.
func TestRecycledCodecMatchesNew(t *testing.T) {
	dict := DictConfig{Nodes: 4, Entries: 4, CandidateCap: 8, PromoteThreshold: 2, PendingCap: 2, AgingPeriod: 256}
	wide := dict
	wide.Entries, wide.CandidateCap, wide.PendingCap = 8, 16, 4
	cases := []struct {
		name   string
		scheme Scheme
		used   DictConfig // the shape the recycled codecs were made for
	}{
		{"Baseline", Baseline, dict},
		{"FP-COMP", FPComp, dict},
		{"FP-VAXX", FPVaxx, dict},
		{"BD-COMP", BDComp, dict},
		{"BD-VAXX", BDVaxx, dict},
		{"DI-COMP", DIComp, dict},
		{"DI-VAXX", DIVaxx, dict},
		{"DI-VAXX/reshaped", DIVaxx, wide},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mkUsed, err := Maker(c.scheme, c.used, 25)
			if err != nil {
				t.Fatal(err)
			}
			mk, err := Maker(c.scheme, dict, 10)
			if err != nil {
				t.Fatal(err)
			}
			used := make([]Codec, dict.Nodes)
			for i := range used {
				used[i] = mkUsed(nil, i)
			}
			f := &Fabric{codecs: used}
			stream(dict.Nodes, 600, 3, func(s, d int, blk *value.Block) { f.Transfer(s, d, blk) })
			for _, u := range used {
				if d, ok := u.(*dictCodec); ok {
					dirty(t, d)
				}
			}
			w := &twin{t: t, fresh: make([]Codec, dict.Nodes), recycled: make([]Codec, dict.Nodes)}
			for i := range w.fresh {
				w.fresh[i] = mk(nil, i)
				// Node i takes the codec node n-1-i used, so a
				// dictionary codec changes node too.
				w.recycled[i] = mk(used[dict.Nodes-1-i], i)
				if w.recycled[i] != used[dict.Nodes-1-i] {
					t.Fatalf("node %d: the maker built a new codec instead of reusing the one it was given", i)
				}
				if !reflect.DeepEqual(state(w.fresh[i]), state(w.recycled[i])) {
					t.Fatalf("node %d: a recycled codec starts as\n%+v\na new one as\n%+v", i, state(w.recycled[i]), state(w.fresh[i]))
				}
				w.same(i)
			}
			stream(dict.Nodes, 600, 4, w.transfer)
		})
	}
}

// TestRecycledDictCodecBuildAllocs pins what reuse saves: a 32-node
// DI-VAXX codec that Maker makes on one a fabric used allocates nothing
// (a new one takes 10 allocations, TestDictCodecBuildAllocs).
func TestRecycledDictCodecBuildAllocs(t *testing.T) {
	mk, err := Maker(DIVaxx, DefaultDictConfig(32), 10)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(32, func(node int) Codec { return mk(nil, node) })
	stream(32, 2000, 5, func(s, d int, blk *value.Block) { f.Transfer(s, d, blk) })
	c := f.Codec(5)
	if got := mk(c, 7); got != c {
		t.Fatal("the maker built a new codec instead of reusing the one it was given")
	}
	if allocs := testing.AllocsPerRun(50, func() { mk(c, 5) }); allocs != 0 {
		t.Fatalf("a 32-node DI-VAXX codec made on a used one allocates %.0f times, want 0", allocs)
	}
}

// TestFactoryThresholdRange pins the factories' threshold check: every
// VAXX scheme refuses -1 and 101 and takes 0 and 100, and an exact scheme
// ignores the threshold.
func TestFactoryThresholdRange(t *testing.T) {
	cfg := DefaultDictConfig(4)
	for _, s := range ExtendedSchemes() {
		for _, pct := range []int{-1, 0, 10, 100, 101} {
			factory, err := FactoryWithDict(s, cfg, pct)
			if bad := s.IsVaxx() && (pct < 0 || pct > 100); bad != (err != nil) {
				t.Fatalf("%v at %d%%: error %v", s, pct, err)
			}
			if err != nil {
				continue
			}
			if c := factory(3); c == nil || c.Scheme() != s {
				t.Fatalf("%v at %d%%: the factory made %v", s, pct, c)
			}
		}
	}
}
