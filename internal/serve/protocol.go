package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"approxnoc/internal/value"
)

// Wire protocol: every message is a frame of a big-endian uint32 payload
// length followed by that many payload bytes.
//
//	request:   kind(1)=3 id(8) src(2) dst(2) threshold(int16)
//	           tlen(1) tenant(tlen) dtype(1) approx(1) nwords(2)
//	           words(4*nwords)
//	response:  kind(1)=2 id(8) status(1) then
//	           status ok:         dtype(1) approx(1) nwords(2)
//	                              words(4*nwords) bitsIn(4) bitsOut(4)
//	           status overloaded: nothing
//	           status error:      msglen(2) msg(msglen)
//	           status budget:     nothing
//
// The threshold follows Request.ThresholdPct semantics: 0 means the
// gateway's configured default, negative means ThresholdExact. The
// tenant names the QoS budget the request spends; tlen 0 is the
// unbudgeted request. Responses may arrive out of order; clients match
// them to requests by id. The request kind is 3 because old peers speak
// a tenantless kind 1; such a frame is rejected as malformed.
const (
	msgResponse = 2
	msgRequest  = 3

	statusOK         = 0
	statusOverloaded = 1
	statusError      = 2
	statusBudget     = 3

	// maxFrame bounds a frame payload; blocks are cache lines, so even
	// generous metadata stays far below this.
	maxFrame = 1 << 20
)

// Exported wire-format limits, for clients that build frames themselves.
const (
	// MaxFrameBytes is the largest frame payload either side accepts; a
	// peer announcing more is cut off without reading the body.
	MaxFrameBytes = maxFrame
	// MaxBlockWords is the largest block the wire format can carry: the
	// word count travels as a uint16. Marshaling a larger block fails
	// loudly — it used to truncate the count silently, producing frames
	// the receiver rejected as trailing garbage (found by
	// FuzzProtocolFrame; seed committed under
	// internal/serve/testdata/fuzz).
	MaxBlockWords = 1<<16 - 1
	// MaxTenantBytes is the longest tenant name the request frame can
	// carry: its length travels as one byte.
	MaxTenantBytes = 255
)

// validateWireBlock rejects blocks the frame format cannot represent.
func validateWireBlock(blk *value.Block) error {
	if blk == nil || len(blk.Words) == 0 {
		return errors.New("serve: block must carry at least one word")
	}
	if len(blk.Words) > MaxBlockWords {
		return fmt.Errorf("serve: block of %d words exceeds wire limit %d", len(blk.Words), MaxBlockWords)
	}
	return nil
}

// validateWireRequest rejects requests the frame format cannot
// represent.
func validateWireRequest(req Request) error {
	if len(req.Tenant) > MaxTenantBytes {
		return fmt.Errorf("serve: tenant of %d bytes exceeds wire limit %d", len(req.Tenant), MaxTenantBytes)
	}
	return validateWireBlock(req.Block)
}

// MarshalRequest serializes a request frame payload under the given wire
// id. It fails if the block is missing, empty, or too large for the
// uint16 word count, or if the tenant name exceeds MaxTenantBytes.
func MarshalRequest(id uint64, req Request) ([]byte, error) {
	if err := validateWireRequest(req); err != nil {
		return nil, err
	}
	return appendRequest(nil, id, req), nil
}

// UnmarshalRequest decodes a request frame payload.
func UnmarshalRequest(p []byte) (id uint64, req Request, err error) {
	return parseRequest(p)
}

// MarshalResponse serializes a response frame payload; the wire id is
// res.Tag. Successful results must carry a representable block.
func MarshalResponse(res Result) ([]byte, error) {
	if res.Err == nil {
		if err := validateWireBlock(res.Block); err != nil {
			return nil, err
		}
	}
	return appendResponse(nil, res), nil
}

// UnmarshalResponse decodes a response frame payload; wire statuses map
// back to errors (overloaded becomes ErrOverloaded).
func UnmarshalResponse(p []byte) (Result, error) {
	return parseResponse(p)
}

// appendRequestFrame appends a complete length-prefixed request frame to
// b — header and payload in one pass, no intermediate slice. It is the
// zero-copy encode path: callers accumulate many frames in a reused
// arena and hand the whole batch to one Write. On error b is returned
// unchanged.
func appendRequestFrame(b []byte, id uint64, req Request) ([]byte, error) {
	if err := validateWireRequest(req); err != nil {
		return b, err
	}
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = appendRequest(b, id, req)
	n := len(b) - start - 4
	if n > maxFrame {
		return b[:start], fmt.Errorf("serve: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// appendResponseFrame is appendRequestFrame for the response direction.
// Responses the wire cannot represent (block too large for the frame
// cap) are replaced by an error response under the same id, so the peer
// learns about the failure instead of losing the request.
func appendResponseFrame(b []byte, res Result) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = appendResponse(b, res)
	n := len(b) - start - 4
	if n > maxFrame {
		b = appendResponse(b[:start+4], Result{
			Tag: res.Tag,
			Err: fmt.Errorf("serve: response of %d bytes exceeds frame limit %d", n, maxFrame),
		})
		n = len(b) - start - 4
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b
}

// writeFrame sends one length-prefixed payload.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("serve: frame of %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame receives one payload, reusing buf when it is large enough.
// The header is read into buf too (a stack array passed to an io.Reader
// escapes, which would put one allocation per frame back on the hot
// path); the payload then overwrites it.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// appendBlock serializes a block's metadata and words.
func appendBlock(b []byte, blk *value.Block) []byte {
	b = append(b, byte(blk.DType), boolByte(blk.Approximable))
	b = binary.BigEndian.AppendUint16(b, uint16(len(blk.Words)))
	for _, w := range blk.Words {
		b = binary.BigEndian.AppendUint32(b, w)
	}
	return b
}

// parseBlock is the inverse of appendBlock: it decodes into dst, reusing
// dst.Words when it is large enough, and returns the block and the rest
// of p. A nil dst gets a new block sized from the header once the words
// are known to be there, so a block of 4 to 64 words is one allocation.
func parseBlock(dst *value.Block, p []byte) (*value.Block, []byte, error) {
	if len(p) < 4 {
		return nil, nil, errors.New("serve: truncated block header")
	}
	dt, approx := value.DataType(p[0]), p[1] != 0
	n := int(binary.BigEndian.Uint16(p[2:]))
	p = p[4:]
	if n == 0 {
		return nil, nil, errors.New("serve: empty block")
	}
	if len(p) < 4*n {
		return nil, nil, errors.New("serve: truncated block words")
	}
	switch {
	case dst == nil:
		dst = value.NewBlock(n, dt, approx)
	case cap(dst.Words) < n:
		dst.Words = make([]value.Word, n)
	}
	dst.Words, dst.DType, dst.Approximable = dst.Words[:n], dt, approx
	for i := range dst.Words {
		dst.Words[i] = binary.BigEndian.Uint32(p[4*i:])
	}
	return dst, p[4*n:], nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendRequest serializes a request under the given id.
func appendRequest(b []byte, id uint64, req Request) []byte {
	b = append(b, msgRequest)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint16(b, uint16(req.Src))
	b = binary.BigEndian.AppendUint16(b, uint16(req.Dst))
	pct := req.ThresholdPct
	if pct < 0 {
		pct = -1
	}
	b = binary.BigEndian.AppendUint16(b, uint16(int16(pct)))
	b = append(b, byte(len(req.Tenant)))
	b = append(b, req.Tenant...)
	return appendBlock(b, req.Block)
}

// parseRequest decodes a request frame into a new block.
func parseRequest(p []byte) (id uint64, req Request, err error) {
	return parseRequestInto(nil, p, nil)
}

// parseRequestInto decodes a request frame with its words in blk (a new
// block when blk is nil), which becomes req.Block. A tenant named in tenants takes that map's string,
// so a configured tenant costs no allocation; any other name is copied.
// Once the kind byte and id are readable, a malformed body still returns
// the id, so the error response reaches the caller that sent it.
func parseRequestInto(blk *value.Block, p []byte, tenants map[string]string) (id uint64, req Request, err error) {
	if len(p) < 9 || p[0] != msgRequest {
		return 0, req, errors.New("serve: malformed request frame")
	}
	id = binary.BigEndian.Uint64(p[1:])
	if len(p) < 16 {
		return id, req, errors.New("serve: malformed request frame")
	}
	req.Src = int(binary.BigEndian.Uint16(p[9:]))
	req.Dst = int(binary.BigEndian.Uint16(p[11:]))
	req.ThresholdPct = int(int16(binary.BigEndian.Uint16(p[13:])))
	req.Tag = id
	n := int(p[15])
	rest := p[16:]
	if len(rest) < n {
		return id, req, errors.New("serve: truncated tenant")
	}
	// A zero-length tenant converts to "" without allocating, so the
	// unbudgeted request costs the server's parse path nothing extra; a
	// map index keyed by string(bytes) does not allocate either.
	if name, ok := tenants[string(rest[:n])]; ok {
		req.Tenant = name
	} else {
		req.Tenant = string(rest[:n])
	}
	blk, rest, err = parseBlock(blk, rest[n:])
	if err != nil {
		return id, req, err
	}
	if len(rest) != 0 {
		return id, req, errors.New("serve: trailing bytes after request")
	}
	req.Block = blk
	return id, req, nil
}

// appendResponse serializes a result; the id is res.Tag.
func appendResponse(b []byte, res Result) []byte {
	b = append(b, msgResponse)
	b = binary.BigEndian.AppendUint64(b, res.Tag)
	switch {
	case res.Err == nil:
		b = append(b, statusOK)
		b = appendBlock(b, res.Block)
		b = binary.BigEndian.AppendUint32(b, uint32(res.BitsIn))
		b = binary.BigEndian.AppendUint32(b, uint32(res.BitsOut))
	case errors.Is(res.Err, ErrOverloaded):
		b = append(b, statusOverloaded)
	case errors.Is(res.Err, ErrBudgetExhausted):
		b = append(b, statusBudget)
	default:
		msg := res.Err.Error()
		if len(msg) > 1<<16-1 {
			msg = msg[:1<<16-1]
		}
		b = append(b, statusError)
		b = binary.BigEndian.AppendUint16(b, uint16(len(msg)))
		b = append(b, msg...)
	}
	return b
}

// parseResponse decodes a response frame into a Result; wire statuses map
// back to errors (overloaded becomes ErrOverloaded).
func parseResponse(p []byte) (Result, error) {
	var res Result
	if len(p) < 10 || p[0] != msgResponse {
		return res, errors.New("serve: malformed response frame")
	}
	res.Tag = binary.BigEndian.Uint64(p[1:])
	status := p[9]
	rest := p[10:]
	switch status {
	case statusOK:
		blk, rest, err := parseBlock(nil, rest)
		if err != nil {
			return res, err
		}
		if len(rest) != 8 {
			return res, errors.New("serve: malformed response accounting")
		}
		res.Block = blk
		res.BitsIn = int(binary.BigEndian.Uint32(rest))
		res.BitsOut = int(binary.BigEndian.Uint32(rest[4:]))
	case statusOverloaded:
		res.Err = ErrOverloaded
	case statusBudget:
		res.Err = ErrBudgetExhausted
	case statusError:
		if len(rest) < 2 {
			return res, errors.New("serve: truncated error message")
		}
		n := int(binary.BigEndian.Uint16(rest))
		if len(rest[2:]) < n {
			return res, errors.New("serve: truncated error message")
		}
		res.Err = errors.New(string(rest[2 : 2+n]))
	default:
		return res, fmt.Errorf("serve: unknown response status %d", status)
	}
	return res, nil
}
