package compress

import (
	"fmt"

	"approxnoc/internal/value"
)

// Fabric couples the codecs of every node with instant notification
// delivery. It is the offline (non-cycle-accurate) transport used by the
// cache-simulator substrate and by tests; the cycle-accurate NoC delivers
// the same notifications as real single-flit control packets instead.
type Fabric struct {
	codecs []Codec
	queue  []Notification // deliver's FIFO, reused across calls
}

// NewFabric builds an n-node fabric, invoking factory for each node.
func NewFabric(n int, factory func(node int) Codec) *Fabric {
	f := &Fabric{codecs: make([]Codec, n)}
	for i := range f.codecs {
		f.codecs[i] = factory(i)
	}
	return f
}

// Codec returns the codec at node i.
func (f *Fabric) Codec(i int) Codec { return f.codecs[i] }

// Nodes returns the fabric size.
func (f *Fabric) Nodes() int { return len(f.codecs) }

// Transfer compresses blk at src, decompresses it at dst, and drains all
// resulting dictionary notifications to quiescence. The returned block is
// what the destination observes (possibly approximated). The codec-owned
// encoding is consumed within the call, so no Clone is needed.
func (f *Fabric) Transfer(src, dst int, blk *value.Block) *value.Block {
	enc := f.codecs[src].Compress(dst, blk)
	out, notifs := f.codecs[dst].Decompress(src, enc)
	f.deliver(notifs)
	return out
}

// Deliver routes notifications to their target codecs until no more are
// produced — for callers that drive Compress/Decompress directly (e.g.
// the serve gateway, which needs the intermediate Encoded for accounting)
// and must still settle the dictionary-consistency protocol.
func (f *Fabric) Deliver(notifs []Notification) { f.deliver(notifs) }

// deliver routes notifications to their target codecs, first in first
// out, until no more are produced. A codec-owned batch dies when an ack
// returns to its codec mid-delivery, so each is copied into the queue.
func (f *Fabric) deliver(notifs []Notification) {
	q := append(f.queue[:0], notifs...)
	for i := 0; i < len(q); i++ {
		if n := q[i]; n.To >= 0 && n.To < len(f.codecs) {
			q = append(q, f.codecs[n.To].HandleNotification(n)...)
		}
	}
	f.queue = q
}

// Stats aggregates operation counts across all nodes.
func (f *Fabric) Stats() OpStats {
	var s OpStats
	for _, c := range f.codecs {
		s.Add(c.Stats())
	}
	return s
}

// FactoryFor returns a per-node codec constructor for the scheme, sized
// for an n-node network; VAXX schemes use thresholdPct.
func FactoryFor(scheme Scheme, n, thresholdPct int) (func(node int) Codec, error) {
	return FactoryWithDict(scheme, DefaultDictConfig(n), thresholdPct)
}

// FactoryWithDict is FactoryFor with explicit dictionary parameters, used
// by the PMT-size ablation.
func FactoryWithDict(scheme Scheme, cfg DictConfig, thresholdPct int) (func(node int) Codec, error) {
	switch scheme {
	case Baseline:
		return func(int) Codec { return NewBaseline() }, nil
	case FPComp:
		return func(int) Codec { return NewFPComp() }, nil
	case BDComp:
		return func(int) Codec { return NewBDComp() }, nil
	case BDVaxx:
		if _, err := NewBDVaxx(thresholdPct); err != nil {
			return nil, err
		}
		return func(int) Codec {
			c, _ := NewBDVaxx(thresholdPct)
			return c
		}, nil
	case FPVaxx:
		c, err := NewFPVaxx(thresholdPct)
		if err != nil {
			return nil, err
		}
		_ = c // constructor validated; build per node below
		return func(int) Codec {
			cc, _ := NewFPVaxx(thresholdPct)
			return cc
		}, nil
	case DIComp:
		return func(node int) Codec {
			c, err := NewDIComp(node, cfg)
			if err != nil {
				panic(err)
			}
			return c
		}, nil
	case DIVaxx:
		if _, err := NewDIVaxx(0, cfg, thresholdPct); err != nil {
			return nil, err
		}
		return func(node int) Codec {
			c, _ := NewDIVaxx(node, cfg, thresholdPct)
			return c
		}, nil
	default:
		return nil, fmt.Errorf("compress: unknown scheme %v", scheme)
	}
}
