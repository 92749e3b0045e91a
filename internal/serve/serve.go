// Package serve is the online approximation/compression gateway: it puts
// the per-node codecs of internal/compress behind a concurrent request
// pipeline so many clients can stream cache blocks through one shared
// approximation service, the way the paper's VAXX engines sit in every
// network interface and absorb line-rate traffic from all tiles at once.
//
// The concurrency model is shard ownership. The stateful codecs (DI-COMP
// pattern matching tables, adaptive controllers, VAXX masks) are not safe
// for concurrent use, so the gateway never shares them across goroutines:
// it builds Config.Shards independent codec fabrics and routes every
// request to the shard selected by hash(src, dst). Each shard's fabric is
// touched by exactly one worker goroutine — the single writer — so the
// hot path takes no locks. Because the hash is deterministic, a given
// (src, dst) flow always lands on the same shard and its dictionary state
// evolves as if that flow had a private NI pair. Shards: 1 keeps a single
// global PMT state — closest to the paper's per-NI tables — behind one
// worker.
//
// Requests are coalesced: a shard worker drains up to Config.MaxBatch
// queued requests per dispatch, amortizing scheduling overhead the way a
// hardware NI drains its injection queue once it wins arbitration. Queues
// are bounded at Config.QueueDepth and overflow is rejected synchronously
// with ErrOverloaded, giving callers explicit backpressure instead of
// unbounded buffering.
//
// The gateway is exposed three ways: in process via (*Gateway).Do and
// Submit, over TCP via Server and Client speaking a length-prefixed
// binary protocol, and from the command line via cmd/approxnoc-serve.
package serve

import (
	"errors"
	"fmt"
	"runtime"

	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/qos"
	"approxnoc/internal/value"
)

// Sentinel errors returned by the gateway and its clients.
var (
	// ErrOverloaded reports that the target shard's queue was full; the
	// caller should back off and retry. It is the gateway's backpressure
	// signal, returned synchronously from Submit/Do rather than by
	// buffering without bound.
	ErrOverloaded = errors.New("serve: overloaded, shard queue full")
	// ErrClosed reports a request submitted after Close.
	ErrClosed = errors.New("serve: gateway closed")
	// ErrTransport marks client errors caused by the connection itself
	// (reset, mid-stream EOF, write failure) rather than by the request.
	// Calls failing with it never reached a definitive answer, so a
	// caller may safely retry them on a new connection; per-request
	// errors and ErrOverloaded responses never carry it.
	ErrTransport = errors.New("serve: transport failure")
	// ErrThreshold reports a per-request threshold override on a codec
	// that cannot adjust thresholds at run time.
	ErrThreshold = errors.New("serve: scheme does not support per-request thresholds")
)

// ErrBudgetExhausted reports a request whose tenant's error budget
// cannot cover its cost; it round-trips over the wire like
// ErrOverloaded so clients can match it with errors.Is. It is a
// definitive per-request answer: the request was not executed and was
// not charged, and retrying on another node cannot change the verdict.
var ErrBudgetExhausted = qos.ErrBudgetExhausted

// Request.ThresholdPct sentinels. The zero value selects the gateway's
// configured threshold so a literal Request{Src, Dst, Block} does the
// expected thing; forcing exact operation therefore needs an explicit
// marker.
const (
	// DefaultThreshold selects the gateway's configured error threshold.
	// It is the zero value, so leaving ThresholdPct unset is equivalent.
	DefaultThreshold = 0
	// ThresholdExact (or any negative value) overrides the threshold to
	// exact (0%) operation for this request.
	ThresholdExact = -1
)

// Request is one block transfer submitted to the gateway.
type Request struct {
	// Src and Dst are the logical endpoints, in [0, Config.Nodes).
	Src, Dst int
	// Block is the cache block to move through the codec pair.
	Block *value.Block
	// ThresholdPct overrides the gateway's VAXX error threshold for this
	// request: DefaultThreshold (the zero value) keeps the configured
	// one, positive values set the per-word error bound, and
	// ThresholdExact (or any negative value) forces exact operation.
	// Overrides that change the effective threshold require the scheme to
	// implement compress.ThresholdAdjuster. See EffectiveThreshold for
	// the exact resolution rules against a QoS-controlled default.
	ThresholdPct int
	// Tenant names the traffic class for QoS accounting: budgeted
	// tenants spend error mass per approximated request and are refused
	// with ErrBudgetExhausted when their budget runs dry. Empty (and
	// any tenant without a configured budget) means unbudgeted. At most
	// MaxTenantBytes bytes: the request frame carries its length in
	// one byte.
	Tenant string
	// Tag is opaque to the gateway and echoed in the Result; the TCP
	// server keys in-flight requests by it.
	Tag uint64
}

// EffectiveThreshold resolves a request's ThresholdPct against the
// gateway's current default (which QoS may have raised above the
// configured one). The rules, in priority order:
//
//	reqPct == DefaultThreshold (0)   use defaultPct, clamped to [0,100]
//	reqPct < 0 (ThresholdExact)      exact: 0, whatever QoS wants
//	otherwise                        honor reqPct as given — including
//	                                 out-of-range values beyond 100,
//	                                 which the codec then rejects with
//	                                 its own range error
//
// An explicit demand always wins over the QoS default: a raised
// default can never loosen a request that asked for a tighter bound
// (or for exact operation), it only moves requests that left the
// choice to the gateway. Only the *default* arm clamps: the QoS
// controller's output is trusted into [0,100], while a caller's
// explicit out-of-range demand must keep failing loudly rather than
// being silently rounded to the loosest bound.
func EffectiveThreshold(reqPct, defaultPct int) int {
	switch {
	case reqPct == DefaultThreshold:
		if defaultPct < 0 {
			return 0
		}
		if defaultPct > 100 {
			return 100
		}
		return defaultPct
	case reqPct < 0:
		return 0
	default:
		return reqPct
	}
}

// Result is the gateway's answer to one Request.
type Result struct {
	// Tag echoes Request.Tag.
	Tag uint64
	// Block is what the destination observes (possibly approximated).
	Block *value.Block
	// BitsIn and BitsOut are the uncompressed and encoded payload sizes.
	BitsIn, BitsOut int
	// Err is the per-request failure, nil on success.
	Err error
}

// Transferer is the common request surface implemented by the in-process
// *Gateway and the TCP *Client, so tests and replay drivers can run the
// same workload against either.
type Transferer interface {
	Do(Request) (Result, error)
}

// Config parameterizes a Gateway.
type Config struct {
	// Nodes is the number of logical endpoints requests may address —
	// the fabric size of every codec pool.
	Nodes int
	// Scheme is the compression/approximation mechanism.
	Scheme compress.Scheme
	// ThresholdPct is the default VAXX error threshold in percent.
	ThresholdPct int
	// Adaptive wraps every codec with the compression on/off controller.
	Adaptive bool
	// Shards is the number of independent codec pools and worker
	// goroutines; 0 means GOMAXPROCS.
	Shards int
	// QueueDepth bounds each shard's request queue; submissions beyond it
	// fail with ErrOverloaded. 0 means 256.
	QueueDepth int
	// MaxBatch caps how many queued requests a shard worker coalesces
	// into one dispatch. 0 means 16.
	MaxBatch int
	// Tracer, when non-nil, receives per-request gateway events (batch
	// dispatches, compress/decompress, overload rejections). Recording
	// never blocks a shard worker: contended events are counted as
	// dropped by the tracer instead.
	Tracer *obs.Tracer
	// QoS, when non-nil, enables the load-driven admission/quality
	// controller: a control loop raises the effective default threshold
	// as queue depth and batch latency climb (degrading quality before
	// refusing work), per-tenant error budgets refuse exhausted tenants
	// with ErrBudgetExhausted, and approximatable traffic sheds before
	// exact-class traffic once a queue passes its shed watermark.
	// Threshold control needs a scheme implementing
	// compress.ThresholdAdjuster (FP-VAXX). The zero Controller
	// baseline inherits ThresholdPct.
	QoS *qos.Config
}

// DefaultConfig returns a gateway configuration for the paper's main
// 32-tile system with all concurrency knobs at their defaults.
func DefaultConfig(scheme compress.Scheme, thresholdPct int) Config {
	return Config{Nodes: 32, Scheme: scheme, ThresholdPct: thresholdPct}
}

// withDefaults fills zero knobs and validates the configuration.
func (c Config) withDefaults() (Config, error) {
	if c.Nodes <= 0 {
		return c, fmt.Errorf("serve: config needs at least 1 node, got %d", c.Nodes)
	}
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("serve: shard count %d must be positive", c.Shards)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.QueueDepth < 0 {
		return c, fmt.Errorf("serve: queue depth %d must be positive", c.QueueDepth)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.MaxBatch < 0 {
		return c, fmt.Errorf("serve: max batch %d must be positive", c.MaxBatch)
	}
	return c, nil
}
