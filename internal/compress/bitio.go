package compress

import "encoding/binary"

// bitWriter packs variable-width fields MSB-first into a byte slice; the
// compression schemes use it to build the network representation (NR) of a
// cache block so encode/decode round trips operate on real bitstreams, not
// just size accounting. Whole bytes flush into buf four at a time; up to
// 31 trailing bits stage in the accumulator until later writes complete a
// word (Bytes drains whatever is staged, padding the final partial byte).
// internal/oracle keeps a bit-at-a-time reference formulation that
// differential tests hold this layout to.
type bitWriter struct {
	buf  []byte
	acc  uint64 // staged bits, MSB-aligned at bit nacc-1
	nacc uint   // staged bit count, always < 32 between calls
	nbit int
}

// WriteBits appends the low width bits of v, most significant first.
func (w *bitWriter) WriteBits(v uint32, width int) {
	if width < 0 || width > 32 {
		panic("compress: bit width out of range")
	}
	if width < 32 {
		v &= 1<<uint(width) - 1
	}
	w.nbit += width
	// At most 31 staged bits plus 32 new ones: fits the accumulator.
	w.acc = w.acc<<uint(width) | uint64(v)
	w.nacc += uint(width)
	if w.nacc >= 32 {
		w.nacc -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>w.nacc))
	}
}

// Len returns the number of bits written.
func (w *bitWriter) Len() int { return w.nbit }

// Bytes returns the packed buffer, zero-padding the trailing partial
// byte. The staged bytes are materialized in the buffer's spare capacity
// without advancing the write position, so Bytes is safe to call
// repeatedly (though writers normally finish before reading).
func (w *bitWriter) Bytes() []byte {
	b := w.buf
	n := w.nacc
	for n >= 8 {
		n -= 8
		b = append(b, byte(w.acc>>n))
	}
	if n > 0 {
		b = append(b, byte(w.acc<<(8-n)))
	}
	return b
}

// Reset rewinds the writer for reuse, keeping the grown capacity.
func (w *bitWriter) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc = 0, 0
	w.nbit = 0
}

// grow pre-sizes the buffer for an expected number of additional bits so
// encoders pay at most one allocation per block.
func (w *bitWriter) grow(bits int) {
	need := (w.nbit + bits + 7) / 8
	if need <= cap(w.buf) {
		return
	}
	nb := make([]byte, len(w.buf), need)
	copy(nb, w.buf)
	w.buf = nb
}

// bitReader consumes fields written by bitWriter in order. Bytes refill
// a 64-bit accumulator whose top nacc bits are the unconsumed lookahead
// (next*8 - nacc bits consumed, always); below them sit only bits of the
// byte at next, which a later refill stages again in the same place, or
// zeros. A refill stages at least 57 bits or the whole rest of the
// buffer, so one refill serves any field — or a prefix and the field it
// announces — and nacc is the only bound to check.
type bitReader struct {
	buf  []byte
	next int // index of the next byte to stage into acc
	acc  uint64
	nacc uint
	fail bool
}

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

// refill tops the accumulator up with whole bytes, eight in one load
// while the buffer allows. It is written to fit the inliner's budget
// (go build -gcflags=-m), which puts the load inside both readers;
// shift counts are masked to tell the compiler they are in range.
func (r *bitReader) refill() {
	b := r.buf[r.next:]
	if len(b) >= 8 {
		r.acc |= binary.BigEndian.Uint64(b) >> (r.nacc & 63)
		n := (64 - r.nacc) >> 3
		r.next += int(n)
		r.nacc += n << 3
	} else {
		for _, x := range b {
			if r.nacc > 56 {
				break
			}
			r.acc |= uint64(x) << ((56 - r.nacc) & 63)
			r.nacc += 8
			r.next++
		}
	}
}

// overrun enters the terminal state of a read past the end: the failed
// flag set, the remaining bits consumed, zero returned — the state the
// bit-at-a-time formulation left behind.
func (r *bitReader) overrun() uint32 {
	r.next, r.acc, r.nacc, r.fail = len(r.buf), 0, 0, true
	return 0
}

// ReadBits extracts the next width bits MSB-first.
func (r *bitReader) ReadBits(width int) uint32 {
	if width < 0 || width > 32 {
		panic("compress: bit width out of range")
	}
	w := uint(width)
	if r.nacc < w {
		if r.refill(); r.nacc < w {
			return r.overrun()
		}
	}
	v := uint32(r.acc>>((64-w)&63)) & uint32(1<<w-1)
	r.acc <<= w & 63
	r.nacc -= w
	return v
}

// ReadPrefixed reads a frequent-pattern prefix and the field whose width
// it announces (fpDataBits) as one access: the same bits, values and
// overrun state as ReadBits(fpPrefixBits) then ReadBits(width).
func (r *bitReader) ReadPrefixed() (prefix, data uint32) {
	if r.nacc < fpPrefixBits+32 {
		r.refill()
	}
	prefix = uint32(r.acc >> (64 - fpPrefixBits))
	width := uint(fpDataBits[prefix])
	if r.nacc < fpPrefixBits+width {
		if r.nacc < fpPrefixBits {
			prefix = 0 // the prefix read itself ran over
		}
		return prefix, r.overrun()
	}
	data = uint32(r.acc<<fpPrefixBits>>((64-width)&63)) & uint32(1<<width-1)
	r.acc <<= (fpPrefixBits + width) & 63
	r.nacc -= fpPrefixBits + width
	return prefix, data
}

// Failed reports whether any read ran past the buffer.
func (r *bitReader) Failed() bool { return r.fail }

// Pos returns the number of bits consumed.
func (r *bitReader) Pos() int { return r.next*8 - int(r.nacc) }
