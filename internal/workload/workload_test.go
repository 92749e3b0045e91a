package workload

import (
	"bytes"
	"io"
	"testing"

	"approxnoc/internal/value"
)

func TestBenchmarksComplete(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("%d benchmarks, want 8", len(bs))
	}
	seen := map[string]bool{}
	for _, m := range bs {
		if seen[m.Name] {
			t.Fatalf("duplicate benchmark %q", m.Name)
		}
		seen[m.Name] = true
		if m.InjectionRate <= 0 || m.InjectionRate > 1 {
			t.Errorf("%s: bad injection rate %g", m.Name, m.InjectionRate)
		}
		if m.DataRatio < 0 || m.DataRatio > 1 {
			t.Errorf("%s: bad data ratio %g", m.Name, m.DataRatio)
		}
		total := m.ZeroProb + m.PoolProb + m.Narrow4Prob + m.Narrow8Prob + m.Narrow16Prob
		if total > 1.0001 {
			t.Errorf("%s: word class probabilities sum to %g > 1", m.Name, total)
		}
	}
	for _, want := range []string{"blackscholes", "streamcluster", "ssca2", "x264"} {
		if !seen[want] {
			t.Errorf("missing benchmark %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("ssca2")
	if err != nil || m.Name != "ssca2" {
		t.Fatalf("ByName(ssca2) = %v, %v", m.Name, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSourceDeterministic(t *testing.T) {
	m, _ := ByName("blackscholes")
	a := m.NewSource(7, 0.75)
	b := m.NewSource(7, 0.75)
	for i := 0; i < 100; i++ {
		ba, bb := a.NextBlock(), b.NextBlock()
		if !ba.Equal(bb) {
			t.Fatalf("block %d differs between identical seeds", i)
		}
	}
}

// NextBlockInto is NextBlock writing into caller storage: the same stream
// from the same seed whatever the block held before, and no allocation
// once the block has its words.
func TestNextBlockIntoMatchesNextBlock(t *testing.T) {
	for _, m := range Benchmarks() {
		a, b := m.NewSource(11, 0.75), m.NewSource(11, 0.75)
		reused := &value.Block{Words: make([]value.Word, value.WordsPerBlock+4), DType: value.Float32, Approximable: true}
		for i := 0; i < 500; i++ {
			want := a.NextBlock()
			if got := b.NextBlockInto(reused); got != reused || !got.Equal(want) {
				t.Fatalf("%s block %d: NextBlockInto %+v, NextBlock %+v", m.Name, i, *got, *want)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { b.NextBlockInto(reused) }); allocs != 0 {
			t.Errorf("%s: NextBlockInto allocates %.1f times per block", m.Name, allocs)
		}
	}
	var empty value.Block
	if got := Benchmarks()[0].NewSource(1, 0.5).NextBlockInto(&empty); len(got.Words) != value.WordsPerBlock {
		t.Fatalf("NextBlockInto into an empty block gave %d words", len(got.Words))
	}
}

func TestSourceBlockShape(t *testing.T) {
	m, _ := ByName("x264")
	s := m.NewSource(3, 0.75)
	floats, approx := 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		blk := s.NextBlock()
		if len(blk.Words) != value.WordsPerBlock {
			t.Fatalf("block has %d words", len(blk.Words))
		}
		if blk.DType == value.Float32 {
			floats++
		}
		if blk.Approximable {
			approx++
		}
	}
	if f := float64(floats) / n; f > m.FloatFrac+0.05 || f < m.FloatFrac-0.05 {
		t.Fatalf("float fraction %g, model says %g", f, m.FloatFrac)
	}
	// Pointer/index blocks are never approximable, so the expected
	// fraction is 0.75 diluted by SeqProb.
	want := 0.75 * (1 - m.SeqProb)
	if a := float64(approx) / n; a < want-0.05 || a > want+0.05 {
		t.Fatalf("approximable fraction %g, want ~%g", a, want)
	}
}

func TestSourceZeroWords(t *testing.T) {
	m, _ := ByName("x264") // highest zero probability
	s := m.NewSource(11, 0)
	zeros, total := 0, 0
	for i := 0; i < 500; i++ {
		blk := s.NextBlock()
		for _, w := range blk.Words {
			if w == 0 {
				zeros++
			}
			total++
		}
	}
	frac := float64(zeros) / float64(total)
	if frac < m.ZeroProb-0.05 {
		t.Fatalf("zero-word fraction %g, model says %g", frac, m.ZeroProb)
	}
}

func TestSourceValueLocality(t *testing.T) {
	// ssca2 has a high pool probability: the distinct-word count over many
	// blocks must be far below the word count.
	m, _ := ByName("ssca2")
	s := m.NewSource(17, 0.75)
	seen := map[uint32]int{}
	words := 0
	for i := 0; i < 500; i++ {
		for _, w := range s.NextBlock().Words {
			seen[w]++
			words++
		}
	}
	if len(seen) >= words/2 {
		t.Fatalf("%d distinct of %d words: no value locality", len(seen), words)
	}
}

func TestJitterRespectsPercent(t *testing.T) {
	m, _ := ByName("blackscholes")
	s := m.NewSource(5, 0.75)
	for i := 0; i < 200; i++ {
		base := s.intPool[i%len(s.intPool)]
		j := jitterInt(base, 0.05, s.rng)
		if e := value.RelError(value.I32(base), value.I32(j), value.Int32); e > 0.051 {
			t.Fatalf("int jitter error %g beyond 5%%", e)
		}
		fb := s.floatPool[i%len(s.floatPool)]
		fj := jitterFloat(fb, 0.05, s.rng)
		if e := value.RelError(value.F32(fb), value.F32(fj), value.Float32); e > 0.051 {
			t.Fatalf("float jitter error %g beyond 5%%", e)
		}
	}
	if jitterInt(100, 0, s.rng) != 100 || jitterFloat(2.5, 0, s.rng) != 2.5 {
		t.Fatal("zero jitter altered value")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []TraceRecord{
		{Src: 1, Dst: 2, IsData: false},
		{Src: 3, Dst: 4, IsData: true, Block: value.BlockFromI32([]int32{1, -2, 3}, true)},
		{Src: 0, Dst: 15, IsData: true, Block: value.BlockFromF32([]float32{1.5, -2.25}, false)},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Src != want.Src || got.Dst != want.Dst || got.IsData != want.IsData {
			t.Fatalf("record %d header mismatch: %+v", i, got)
		}
		if want.IsData && !got.Block.Equal(want.Block) {
			t.Fatalf("record %d block mismatch", i)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTraceReaderRejectsGarbage(t *testing.T) {
	if _, err := NewTraceReader(bytes.NewReader([]byte("NOPE42"))); err == nil {
		t.Fatal("garbage accepted as trace")
	}
	if _, err := NewTraceReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTraceTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewTraceWriter(&buf)
	w.Write(TraceRecord{Src: 1, Dst: 2, IsData: true, Block: value.BlockFromI32([]int32{1, 2, 3, 4}, true)})
	w.Flush()
	full := buf.Bytes()
	r, err := NewTraceReader(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record read successfully")
	}
}

// traceBody encodes recs behind a trace header and returns the whole
// trace and the offset where each record ends.
func traceBody(t *testing.T, recs ...TraceRecord) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// readAll reads records until an error and returns how many it read and
// the error (io.EOF for a clean end).
func readAll(trace []byte) (int, error) {
	r, err := NewTraceReader(bytes.NewReader(trace))
	if err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		if _, err := r.Read(); err != nil {
			return n, err
		}
	}
}

// Only a cut at a record boundary ends a trace cleanly; a cut anywhere
// inside a record, even one byte in, is an error.
func TestTraceCutAtEveryOffset(t *testing.T) {
	full, ends := traceBody(t,
		TraceRecord{Src: 1, Dst: 2, IsData: true, Block: value.BlockFromI32([]int32{1, 2, 3}, true)},
		TraceRecord{Src: 3, Dst: 4},
	)
	header := len(traceMagic) + 2
	boundary := map[int]int{header: 0}
	for i, end := range ends {
		boundary[end] = i + 1
	}
	for cut := header; cut <= len(full); cut++ {
		n, err := readAll(full[:cut])
		want, clean := boundary[cut]
		switch {
		case clean && (err != io.EOF || n != want):
			t.Fatalf("cut at %d: read %d records then %v, want %d then EOF", cut, n, err, want)
		case !clean && (err == nil || err == io.EOF):
			t.Fatalf("cut at %d inside a record: read %d records then %v, want an error", cut, n, err)
		}
	}
}

func TestTraceReaderRejectsUndefinedBytes(t *testing.T) {
	full, _ := traceBody(t, TraceRecord{Src: 1, Dst: 2, IsData: true, Block: value.BlockFromI32([]int32{7}, true)})
	rec := len(traceMagic) + 2
	for _, tc := range []struct {
		name  string
		at    int // offset into the record: src 0-1, dst 2-3, kind 4, dtype 5, approx 6
		value byte
	}{
		{"kind 2", 4, 2},
		{"kind 255", 4, 255},
		{"dtype 9", 5, 9},
		{"approx 2", 6, 2},
	} {
		bad := append([]byte(nil), full...)
		bad[rec+tc.at] = tc.value
		if n, err := readAll(bad); n != 0 || err == nil || err == io.EOF {
			t.Errorf("%s: read %d records then %v, want an error", tc.name, n, err)
		}
	}
}

func TestTraceWriterValidation(t *testing.T) {
	blk := value.BlockFromI32([]int32{1}, false)
	for _, tc := range []struct {
		name string
		rec  TraceRecord
	}{
		{"data record without block", TraceRecord{Src: 0, Dst: 1, IsData: true}},
		{"undefined dtype", TraceRecord{Src: 0, Dst: 1, IsData: true, Block: value.NewBlock(1, 9, false)}},
		{"src past 16 bits", TraceRecord{Src: 70000, Dst: 1, IsData: true, Block: blk}},
		{"src 65536", TraceRecord{Src: 1 << 16, Dst: 1}},
		{"negative src", TraceRecord{Src: -1, Dst: 1}},
		{"negative dst", TraceRecord{Src: 0, Dst: -1}},
		{"dst past 16 bits", TraceRecord{Src: 0, Dst: 70000}},
	} {
		var buf bytes.Buffer
		w, _ := NewTraceWriter(&buf)
		if err := w.Write(tc.rec); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The largest 16-bit IDs round-trip.
	full, _ := traceBody(t, TraceRecord{Src: 65535, Dst: 65534})
	r, _ := NewTraceReader(bytes.NewReader(full))
	if got, err := r.Read(); err != nil || got.Src != 65535 || got.Dst != 65534 {
		t.Fatalf("read back %+v, %v", got, err)
	}
}

func TestNextIsDataRatio(t *testing.T) {
	m, _ := ByName("ssca2")
	s := m.NewSource(23, 0.75)
	data := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if s.NextIsData() {
			data++
		}
	}
	got := float64(data) / n
	if got < m.DataRatio-0.03 || got > m.DataRatio+0.03 {
		t.Fatalf("data ratio %g, want ~%g", got, m.DataRatio)
	}
}

func TestSeqBlocksAreStrided(t *testing.T) {
	m, _ := ByName("canneal")
	s := m.NewSource(31, 0.75)
	found := 0
	for i := 0; i < 300 && found < 10; i++ {
		blk := s.NextBlock()
		if blk.Approximable || blk.DType != value.Int32 {
			continue
		}
		stride := int32(blk.Words[1]) - int32(blk.Words[0])
		if stride <= 0 || stride > 64 {
			continue
		}
		ok := true
		for j := 2; j < len(blk.Words); j++ {
			if int32(blk.Words[j])-int32(blk.Words[j-1]) != stride {
				ok = false
				break
			}
		}
		if ok {
			found++
		}
	}
	if found < 10 {
		t.Fatalf("found only %d strided pointer blocks in 300", found)
	}
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.after -= len(p)
	return len(p), nil
}

func TestTraceWriterStickyError(t *testing.T) {
	fw := &failingWriter{after: 4} // room for magic only
	w, err := NewTraceWriter(fw)
	if err != nil {
		t.Skip("header failed immediately; sticky-error path not reachable")
	}
	rec := TraceRecord{Src: 1, Dst: 2, IsData: true, Block: value.BlockFromI32(make([]int32, 16), true)}
	// Large record must eventually hit the failing writer via Flush.
	for i := 0; i < 2000; i++ {
		w.Write(rec)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("flush succeeded on failing writer")
	}
	// After a failure the writer keeps returning the sticky error.
	if err := w.Write(rec); err == nil {
		t.Fatal("write succeeded after sticky error")
	}
}

func TestSourceModelAccessor(t *testing.T) {
	m, _ := ByName("canneal")
	s := m.NewSource(1, 0.5)
	if s.Model().Name != "canneal" {
		t.Fatal("Model accessor wrong")
	}
}

func TestTraceOversizedBlockRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewTraceWriter(&buf)
	big := value.NewBlock(300, value.Int32, false)
	if err := w.Write(TraceRecord{Src: 0, Dst: 1, IsData: true, Block: big}); err == nil {
		t.Fatal("300-word block accepted")
	}
}
