package serve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"approxnoc/internal/compress"
)

// Gateway dictionary image v1 (all integers big-endian):
//
//	magic "APGD" | version u16 | scheme u8 | nodes u32 | pools u32 |
//	pools × nodes × (len u32 | snapshot bytes)
//
// One per-codec snapshot per pool per node, in pool-major order; codecs
// without dictionary state serialize as a zero-length entry. A gateway
// has one pool per shard.
const (
	dictMagic   = "APGD"
	dictVersion = 1
)

// ErrDictShape rejects a dictionary image whose header does not match
// this gateway's configuration.
var ErrDictShape = errors.New("serve: dictionary image does not match gateway shape")

// withPools runs fn against every shard's pool from a context where the
// pool is quiescent: inside the owning worker while the gateway is live,
// or directly once it closed. fn runs once per pool, in shard order, and
// must not block indefinitely.
func (g *Gateway) withPools(fn func(idx int, p *pool)) {
	g.mu.RLock()
	closed := g.closed
	g.mu.RUnlock()
	if closed {
		// Workers have exited (or are exiting); wait so the access is
		// ordered after their last fabric write.
		g.wg.Wait()
		for i, sh := range g.shards {
			fn(i, sh.pool)
		}
		return
	}
	for i, sh := range g.shards {
		i, done := i, make(chan struct{})
		wrapped := func(p *pool) {
			fn(i, p)
			close(done)
		}
		select {
		case sh.ctl <- wrapped:
			<-done
		case <-g.done:
			// Raced with Close; the worker is gone, access directly.
			fn(i, sh.pool)
		}
	}
}

// SnapshotDicts captures every pool's dictionary state as one versioned
// image suitable for RestoreDicts on a gateway of identical shape —
// the transfer unit of cluster warm-start replication. Codecs without
// dictionary state contribute empty entries, so the call works (if
// uselessly) on any scheme.
func (g *Gateway) SnapshotDicts() ([]byte, error) {
	out := []byte(dictMagic)
	out = binary.BigEndian.AppendUint16(out, dictVersion)
	out = append(out, uint8(g.cfg.Scheme))
	out = binary.BigEndian.AppendUint32(out, uint32(g.cfg.Nodes))
	out = binary.BigEndian.AppendUint32(out, uint32(len(g.shards)))
	var ferr error
	g.withPools(func(idx int, p *pool) {
		for node := 0; node < g.cfg.Nodes; node++ {
			snap, ok := compress.As[compress.DictSnapshotter](p.fabric.Codec(node))
			if !ok {
				out = binary.BigEndian.AppendUint32(out, 0)
				continue
			}
			b, err := snap.Marshal()
			if err != nil && ferr == nil {
				ferr = fmt.Errorf("serve: snapshot pool %d node %d: %w", idx, node, err)
			}
			out = binary.BigEndian.AppendUint32(out, uint32(len(b)))
			out = append(out, b...)
		}
	})
	if ferr != nil {
		return nil, ferr
	}
	return out, nil
}

// RestoreDicts applies a SnapshotDicts image to this gateway's codecs.
// Adoption is pool-atomic: a pool's codecs reference each other (its
// fabric carries the encoder↔decoder handshakes), so transplanting only
// some of them would splice two dictionary histories together and
// desynchronize the PMTs. A pool therefore adopts the image only when
// every transferred codec is at least as new (by generation) as its
// local counterpart; otherwise the whole pool keeps local state
// (counted in kept) — that is the reconciliation path a stale replay
// takes. Shape errors reject the image before any codec mutates; a
// per-codec restore failure inside an adopting pool is reported after
// the sweep finishes.
func (g *Gateway) RestoreDicts(data []byte) (adopted, kept int, err error) {
	if len(data) < len(dictMagic)+2+1+8 || string(data[:4]) != dictMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrDictShape)
	}
	data = data[4:]
	if v := binary.BigEndian.Uint16(data); v != dictVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrDictShape, v)
	}
	if sc := compress.Scheme(data[2]); sc != g.cfg.Scheme {
		return 0, 0, fmt.Errorf("%w: scheme %v, gateway runs %v", ErrDictShape, sc, g.cfg.Scheme)
	}
	if n := binary.BigEndian.Uint32(data[3:]); int(n) != g.cfg.Nodes {
		return 0, 0, fmt.Errorf("%w: %d nodes, gateway has %d", ErrDictShape, n, g.cfg.Nodes)
	}
	pools := len(g.shards)
	if np := binary.BigEndian.Uint32(data[7:]); int(np) != pools {
		return 0, 0, fmt.Errorf("%w: %d pools, gateway has %d", ErrDictShape, np, pools)
	}
	body := data[11:]

	// Slice out each per-codec snapshot up front so a truncated image is
	// rejected before any codec mutates.
	chunks := make([][]byte, 0, pools*g.cfg.Nodes)
	for i := 0; i < pools*g.cfg.Nodes; i++ {
		if len(body) < 4 {
			return 0, 0, fmt.Errorf("%w: truncated at entry %d", ErrDictShape, i)
		}
		n := binary.BigEndian.Uint32(body)
		body = body[4:]
		if uint64(len(body)) < uint64(n) {
			return 0, 0, fmt.Errorf("%w: truncated at entry %d", ErrDictShape, i)
		}
		chunks = append(chunks, body[:n])
		body = body[n:]
	}
	if len(body) != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes", ErrDictShape, len(body))
	}

	var ferr error
	g.withPools(func(idx int, p *pool) {
		// Pass 1: find the pool's restorable codecs and decide
		// adopt-vs-keep for the pool as a whole.
		snaps := make([]compress.DictSnapshotter, 0, g.cfg.Nodes)
		parts := make([][]byte, 0, g.cfg.Nodes)
		stale := false
		for node := 0; node < g.cfg.Nodes; node++ {
			chunk := chunks[idx*g.cfg.Nodes+node]
			if len(chunk) == 0 {
				continue
			}
			snap, ok := compress.As[compress.DictSnapshotter](p.fabric.Codec(node))
			if !ok {
				if ferr == nil {
					ferr = fmt.Errorf("%w: pool %d node %d holds state but local codec cannot restore",
						ErrDictShape, idx, node)
				}
				return
			}
			gen, gerr := compress.SnapshotGeneration(chunk)
			if gerr != nil {
				if ferr == nil {
					ferr = fmt.Errorf("serve: restore pool %d node %d: %w", idx, node, gerr)
				}
				return
			}
			if gen < snap.Generation() {
				stale = true
			}
			snaps = append(snaps, snap)
			parts = append(parts, chunk)
		}
		if stale {
			kept += len(snaps)
			return
		}
		// Pass 2: the whole pool adopts.
		for i, snap := range snaps {
			if uerr := snap.Unmarshal(parts[i]); uerr != nil {
				if ferr == nil {
					ferr = fmt.Errorf("serve: restore pool %d: %w", idx, uerr)
				}
				continue
			}
			adopted++
		}
	})
	return adopted, kept, ferr
}

// AuditDicts runs fn against every pool's fabric from the pool-owning
// context — the sanctioned way for tests and oracles to inspect live
// dictionary state without racing the shard workers. The first error
// stops nothing (every pool is still visited) but is returned.
func (g *Gateway) AuditDicts(fn func(pool int, fab *compress.Fabric) error) error {
	var ferr error
	g.withPools(func(idx int, p *pool) {
		if err := fn(idx, p.fabric); err != nil && ferr == nil {
			ferr = err
		}
	})
	return ferr
}
