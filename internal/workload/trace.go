package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"approxnoc/internal/value"
)

// Trace record format (little endian), the stand-in for gem5 communication
// traces:
//
//	magic   [4]byte "ANTR"
//	version uint16
//	records:
//	  src     uint16
//	  dst     uint16
//	  kind    uint8   (0 control, 1 data)
//	  dtype   uint8   (data only)
//	  approx  uint8   (data only)
//	  words   uint8   (data only)
//	  payload [words]uint32 (data only)
var traceMagic = [4]byte{'A', 'N', 'T', 'R'}

const traceVersion = 1

// TraceRecord is one packet injection in a recorded trace.
type TraceRecord struct {
	Src, Dst int
	IsData   bool
	Block    *value.Block // nil for control packets
}

// TraceWriter streams trace records to w.
type TraceWriter struct {
	w   *bufio.Writer
	err error
}

// NewTraceWriter writes the header and returns a writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(traceVersion)); err != nil {
		return nil, err
	}
	return &TraceWriter{w: bw}, nil
}

// Write appends one record. A record the format cannot hold (a tile ID
// outside 16 bits, a data record without a block, more than 255 words,
// an undefined dtype) is an error, and errors are sticky.
func (t *TraceWriter) Write(rec TraceRecord) error {
	switch {
	case t.err != nil:
	case rec.Src < 0 || rec.Src > math.MaxUint16 || rec.Dst < 0 || rec.Dst > math.MaxUint16:
		t.err = fmt.Errorf("workload: tile IDs %d->%d outside the 16-bit trace field", rec.Src, rec.Dst)
	case rec.IsData && rec.Block == nil:
		t.err = errors.New("workload: data record without block")
	case rec.IsData && len(rec.Block.Words) > 255:
		t.err = fmt.Errorf("workload: block too large (%d words)", len(rec.Block.Words))
	case rec.IsData && rec.Block.DType > value.Float32:
		t.err = fmt.Errorf("workload: block dtype %v has no trace encoding", rec.Block.DType)
	default:
		b := []byte{byte(rec.Src), byte(rec.Src >> 8), byte(rec.Dst), byte(rec.Dst >> 8), 0}
		if rec.IsData {
			approx := byte(0)
			if rec.Block.Approximable {
				approx = 1
			}
			b[4] = 1
			b = append(b, byte(rec.Block.DType), approx, byte(len(rec.Block.Words)))
			for _, w := range rec.Block.Words {
				b = binary.LittleEndian.AppendUint32(b, w)
			}
		}
		_, t.err = t.w.Write(b)
	}
	return t.err
}

// Flush commits buffered records.
func (t *TraceWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// TraceReader streams records back from a trace.
type TraceReader struct {
	r *bufio.Reader
}

// NewTraceReader validates the header and returns a reader.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if magic != traceMagic {
		return nil, errors.New("workload: not a trace file")
	}
	var ver uint16
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != traceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d", ver)
	}
	return &TraceReader{r: br}, nil
}

// Read returns the next record, or io.EOF when the trace ends at a record
// boundary. A record cut short or holding a kind, dtype or approx byte
// the format does not define is an error.
func (t *TraceReader) Read() (TraceRecord, error) {
	// src, dst, kind; io.ReadFull says io.EOF only when no byte was read.
	var hdr [5]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err == io.EOF {
		return TraceRecord{}, io.EOF
	} else if err != nil {
		return TraceRecord{}, corrupt(err)
	}
	rec := TraceRecord{Src: int(binary.LittleEndian.Uint16(hdr[0:])), Dst: int(binary.LittleEndian.Uint16(hdr[2:]))}
	if hdr[4] > 1 {
		return TraceRecord{}, fmt.Errorf("workload: trace record kind %d", hdr[4])
	}
	if hdr[4] == 0 {
		return rec, nil
	}
	var meta [3]byte // dtype, approx, words
	if _, err := io.ReadFull(t.r, meta[:]); err != nil {
		return TraceRecord{}, corrupt(err)
	}
	dt := value.DataType(meta[0])
	if dt > value.Float32 || meta[1] > 1 {
		return TraceRecord{}, fmt.Errorf("workload: trace record dtype %v, approx byte %d", dt, meta[1])
	}
	rec.IsData = true
	rec.Block = value.NewBlock(int(meta[2]), dt, meta[1] == 1)
	if err := binary.Read(t.r, binary.LittleEndian, rec.Block.Words); err != nil {
		return TraceRecord{}, corrupt(err)
	}
	return rec, nil
}

func corrupt(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errors.New("workload: truncated trace record")
	}
	return err
}
