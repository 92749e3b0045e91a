package compress

import (
	"fmt"
	"sync"

	"approxnoc/internal/approx"
	"approxnoc/internal/quality"
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
// by the PMT-size ablation. It validates cfg and the threshold once; a DI
// factory then returns nil for a node outside [0, cfg.Nodes). A factory
// makes each codec on one Recycle gave back when its scheme's pool holds
// one.
func FactoryWithDict(scheme Scheme, cfg DictConfig, thresholdPct int) (func(node int) Codec, error) {
	mk, err := maker(scheme, cfg, thresholdPct)
	if err != nil {
		return nil, err
	}
	return func(node int) Codec { return mk(pools[scheme].Get(), node) }, nil
}

// pools holds the codecs Recycle took back, one pool per scheme.
var pools [BDVaxx + 1]sync.Pool

// maker validates a factory's parameters and returns what the factory
// runs to make the codec for node: on old, a codec of the scheme that
// Recycle gave back, or on a new one when old is nil.
func maker(scheme Scheme, cfg DictConfig, thresholdPct int) (func(old any, node int) Codec, error) {
	// The VAXX codecs share the per-word budget (BD-VAXX has none).
	var budget quality.Budget
	if scheme.IsVaxx() {
		if err := checkThreshold(thresholdPct); err != nil {
			return nil, err
		}
		budget, _ = quality.NewPerWord(thresholdPct)
	}
	switch scheme {
	case Baseline:
		return func(old any, _ int) Codec {
			b := reuse[baseline](old)
			b.init()
			b.leased = true
			return b
		}, nil
	case FPComp, FPVaxx:
		return func(old any, _ int) Codec {
			c := reuse[fpCodec](old)
			c.init(scheme, thresholdPct, budget)
			c.leased = true
			return c
		}, nil
	case BDComp, BDVaxx:
		return func(old any, _ int) Codec {
			c := reuse[bdiCodec](old)
			c.init(scheme, thresholdPct)
			c.leased = true
			return c
		}, nil
	case DIComp, DIVaxx:
		if err := cfg.validate(); err != nil {
			return nil, err
		}
		return func(old any, node int) Codec {
			if node < 0 || node >= cfg.Nodes {
				return nil
			}
			d := reuse[dictCodec](old)
			d.init(scheme, node, cfg, thresholdPct, budget)
			d.leased = true
			return d
		}, nil
	default:
		return nil, fmt.Errorf("compress: unknown scheme %v", scheme)
	}
}

// reuse returns old as a *T, or a new T when old is nil.
func reuse[T any](old any) *T {
	if c, ok := old.(*T); ok {
		return c
	}
	return new(T)
}

// lease marks the codecs a factory made: leased while one is in use, and
// cleared as Recycle pools it, so a codec enters its pool at most once
// and one an exported constructor made never does.
type lease struct{ leased bool }

// end ends the lease and reports whether there was one.
func (l *lease) end() bool {
	was := l.leased
	l.leased = false
	return was
}

// Recycle gives c back to the factories of its scheme, when a factory
// made it and it has not been given back since: the next codec such a
// factory makes is c, initialised by the constructor's own init to the
// state a new codec starts in, on c's tables, TCAM planes, encode scratch
// and notification storage (a DI codec's tables when they are of the new
// codec's shape). The caller gives c up: it, and everything it returned,
// must not be used again. Recycle looks through wrappers (e.g. Adaptive)
// to the codec a factory made. noc.Network.Release gives back its NIs'
// codecs.
func Recycle(c Codec) {
	if l, ok := As[interface {
		Codec
		end() bool
	}](c); ok && l.end() {
		pools[l.Scheme()].Put(l)
	}
}

// checkThreshold is approx.New's range check, on an AVCL that is not kept.
func checkThreshold(pct int) error {
	var a approx.AVCL
	return a.SetThreshold(pct)
}

// vaxxAVCL returns the AVCL a codec of scheme s starts with: none for an
// exact scheme, else a — or a new one when a is nil — at thresholdPct,
// with zero counters, so a recycled codec keeps its AVCL.
func vaxxAVCL(a *approx.AVCL, s Scheme, thresholdPct int) *approx.AVCL {
	if !s.IsVaxx() {
		return nil
	}
	if a == nil {
		a = new(approx.AVCL)
	}
	if err := a.SetThreshold(thresholdPct); err != nil {
		panic(err) // every caller checked the threshold
	}
	a.RestoreStats(approx.Stats{})
	return a
}
