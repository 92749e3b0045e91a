// Package approxnoc is a Go reproduction of APPROX-NoC (Boyapati et al.,
// ISCA 2017): a data approximation framework for network-on-chip
// architectures. It bundles
//
//   - a cycle-accurate NoC simulator (VC routers, wormhole switching,
//     credit flow control, XY-routed concentrated meshes),
//   - the two NoC compression substrates the paper builds on (frequent
//     pattern compression and dictionary compression with distributed
//     pattern matching tables),
//   - the VAXX approximate-matching engine with online error control, in
//     both FP-VAXX and DI-VAXX microarchitectures,
//   - workload models, a coherent-cache substrate, application kernels
//     with accuracy metrics, and a harness regenerating every table and
//     figure of the paper's evaluation.
//
// The Simulator type is the main entry point for network studies; Channel
// exposes the encode/decode pipeline standalone for application-level
// error studies. The cmd/approxnoc-bench tool regenerates the paper's
// tables and figures.
package approxnoc

import (
	"fmt"

	"approxnoc/internal/compress"
	"approxnoc/internal/experiments"
	"approxnoc/internal/noc"
	"approxnoc/internal/qos"
	"approxnoc/internal/serve"
	"approxnoc/internal/topology"
	"approxnoc/internal/value"
)

// Scheme selects a compression/approximation mechanism.
type Scheme = compress.Scheme

// The evaluated schemes (paper Figs. 9-16).
const (
	// Baseline transmits uncompressed blocks.
	Baseline = compress.Baseline
	// DIComp is exact dictionary compression (Jin et al.).
	DIComp = compress.DIComp
	// DIVaxx is dictionary compression with VAXX approximation.
	DIVaxx = compress.DIVaxx
	// FPComp is exact frequent-pattern compression (Das et al.).
	FPComp = compress.FPComp
	// FPVaxx is frequent-pattern compression with VAXX approximation.
	FPVaxx = compress.FPVaxx
	// BDComp is exact base-delta compression — an extension comparator
	// beyond the paper's evaluated schemes.
	BDComp = compress.BDComp
	// BDVaxx is base-delta compression with VAXX approximation.
	BDVaxx = compress.BDVaxx
)

// Schemes returns all evaluated schemes in figure order.
func Schemes() []Scheme { return compress.AllSchemes() }

// ExtendedSchemes additionally includes the base-delta comparators.
func ExtendedSchemes() []Scheme { return compress.ExtendedSchemes() }

// ParseScheme converts a scheme name ("DI-VAXX", ...) to a Scheme.
func ParseScheme(name string) (Scheme, error) { return compress.ParseScheme(name) }

// Block is one cache block in flight; see NewIntBlock and NewFloatBlock.
type Block = value.Block

// DataType tags a block's word interpretation.
type DataType = value.DataType

// Data types for block annotations.
const (
	// Int32 marks two's-complement integer words.
	Int32 = value.Int32
	// Float32 marks IEEE-754 single-precision words.
	Float32 = value.Float32
)

// NewIntBlock packs int32 values into a block, annotated approximable or
// not (the compiler/programmer annotation of §3.1).
func NewIntBlock(vals []int32, approximable bool) *Block {
	return value.BlockFromI32(vals, approximable)
}

// NewFloatBlock packs float32 values into a block.
func NewFloatBlock(vals []float32, approximable bool) *Block {
	return value.BlockFromF32(vals, approximable)
}

// NetworkConfig carries the router and codec-latency parameters (Table 1).
type NetworkConfig = noc.Config

// DefaultNetworkConfig returns the Table 1 parameters.
func DefaultNetworkConfig() NetworkConfig { return noc.DefaultConfig() }

// Options configures a Simulator.
type Options struct {
	// Width and Height size the router grid; Concentration is tiles per
	// router. The paper's main configuration is 4x4 with concentration 2.
	Width, Height, Concentration int
	// Scheme is the NI compression mechanism.
	Scheme Scheme
	// ErrorThresholdPct is the VAXX error threshold in percent.
	ErrorThresholdPct int
	// Adaptive wraps each NI codec with the compression on/off controller
	// (Jin et al.), which bypasses the codec when compression is not
	// paying for its latency.
	Adaptive bool
	// Network carries router parameters; zero value means Table 1 defaults.
	Network NetworkConfig
}

// DefaultOptions returns the paper's main configuration for a scheme.
func DefaultOptions(scheme Scheme, thresholdPct int) Options {
	return Options{
		Width: 4, Height: 4, Concentration: 2,
		Scheme:            scheme,
		ErrorThresholdPct: thresholdPct,
		Network:           noc.DefaultConfig(),
	}
}

// Simulator is a cycle-accurate NoC with APPROX-NoC network interfaces.
type Simulator struct {
	net *noc.Network
}

// NewSimulator assembles a simulator from options.
func NewSimulator(opts Options) (*Simulator, error) {
	if opts.Network.VCs == 0 {
		opts.Network = noc.DefaultConfig()
	}
	topo, err := topology.NewCMesh(opts.Width, opts.Height, opts.Concentration)
	if err != nil {
		return nil, fmt.Errorf("approxnoc: %w", err)
	}
	factory, err := compress.FactoryFor(opts.Scheme, topo.Tiles(), opts.ErrorThresholdPct)
	if err != nil {
		return nil, fmt.Errorf("approxnoc: %w", err)
	}
	if opts.Adaptive {
		factory = compress.AdaptiveFactory(factory)
	}
	net, err := noc.New(topo, opts.Network, factory)
	if err != nil {
		return nil, fmt.Errorf("approxnoc: %w", err)
	}
	return &Simulator{net: net}, nil
}

// Tiles returns the number of network nodes.
func (s *Simulator) Tiles() int { return s.net.Topology().Tiles() }

// SendData queues a cache block from src to dst.
func (s *Simulator) SendData(src, dst int, blk *Block) error {
	_, err := s.net.SendData(src, dst, blk)
	return err
}

// SendControl queues a single-flit control packet.
func (s *Simulator) SendControl(src, dst int) error {
	_, err := s.net.SendControl(src, dst)
	return err
}

// Step advances the network one cycle.
func (s *Simulator) Step() { s.net.Step() }

// Run advances the network the given number of cycles.
func (s *Simulator) Run(cycles int) { s.net.Run(cycles) }

// Drain runs until all traffic is delivered or maxCycles elapse.
func (s *Simulator) Drain(maxCycles int) bool { return s.net.Drain(maxCycles) }

// OnDeliver registers a callback for every delivered packet; blk is the
// decompressed block for data packets and nil otherwise.
func (s *Simulator) OnDeliver(h func(src, dst int, blk *Block)) {
	s.net.SetDeliveryHandler(func(p *noc.Packet, blk *value.Block) {
		h(p.Src, p.Dst, blk)
	})
}

// Stats returns network statistics (latencies, flit counts, throughput).
type Stats = noc.NetStats

// Stats returns a snapshot of the network statistics.
func (s *Simulator) Stats() Stats { return s.net.Stats() }

// CodecStats aggregates the compression/approximation statistics across
// all network interfaces.
type CodecStats = compress.OpStats

// CodecStats returns the codec statistics snapshot.
func (s *Simulator) CodecStats() CodecStats { return s.net.CodecStats() }

// Network exposes the underlying simulator for advanced use.
func (s *Simulator) Network() *noc.Network { return s.net }

// Channel is the standalone encode/decode pipeline: it applies a scheme's
// compression and approximation to block transfers between logical nodes
// without simulating cycles — the tool for application-accuracy studies.
type Channel struct {
	fabric *compress.Fabric
}

// NewChannel builds a channel over n logical nodes.
func NewChannel(nodes int, scheme Scheme, thresholdPct int) (*Channel, error) {
	factory, err := compress.FactoryFor(scheme, nodes, thresholdPct)
	if err != nil {
		return nil, fmt.Errorf("approxnoc: %w", err)
	}
	return &Channel{fabric: compress.NewFabric(nodes, factory)}, nil
}

// NewWindowedChannel builds a channel whose VAXX scheme (FPVaxx or
// DIVaxx) uses the paper's §7 future-work policy: a cumulative error
// budget over a window of words, with single words allowed up to boost
// times the threshold. The mean error per window stays at the per-word
// level while more words match approximately.
func NewWindowedChannel(nodes int, scheme Scheme, thresholdPct, window int, boost float64) (*Channel, error) {
	var factory func(node int) compress.Codec
	switch scheme {
	case FPVaxx:
		if _, err := compress.NewFPVaxxWindowed(thresholdPct, window, boost); err != nil {
			return nil, fmt.Errorf("approxnoc: %w", err)
		}
		factory = func(int) compress.Codec {
			c, _ := compress.NewFPVaxxWindowed(thresholdPct, window, boost)
			return c
		}
	case DIVaxx:
		cfg := compress.DefaultDictConfig(nodes)
		if _, err := compress.NewDIVaxxWindowed(0, cfg, thresholdPct, window, boost); err != nil {
			return nil, fmt.Errorf("approxnoc: %w", err)
		}
		factory = func(node int) compress.Codec {
			c, _ := compress.NewDIVaxxWindowed(node, cfg, thresholdPct, window, boost)
			return c
		}
	default:
		return nil, fmt.Errorf("approxnoc: windowed budgets apply to FPVaxx or DIVaxx, not %v", scheme)
	}
	return &Channel{fabric: compress.NewFabric(nodes, factory)}, nil
}

// Transfer moves a block from src to dst through the scheme's
// encoder/decoder pair and returns what the destination observes.
func (c *Channel) Transfer(src, dst int, blk *Block) *Block {
	return c.fabric.Transfer(src, dst, blk)
}

// Stats returns the channel's aggregate codec statistics.
func (c *Channel) Stats() CodecStats { return c.fabric.Stats() }

// Serving layer — the concurrent approximation/compression gateway.
// Where Channel is a single-threaded pipeline for one caller, Gateway
// shards the codecs across worker-owned pools so any number of
// goroutines (or TCP clients, via GatewayServer) can stream blocks
// through the same service with batching and explicit backpressure.

// Gateway is the concurrent approximation/compression service; it is
// safe for concurrent use by any number of goroutines.
type Gateway = serve.Gateway

// GatewayConfig parameterizes a Gateway (shards, queue depth, batching).
type GatewayConfig = serve.Config

// ServeRequest is one block transfer submitted to a Gateway.
type ServeRequest = serve.Request

// ServeResult is the gateway's answer to one ServeRequest.
type ServeResult = serve.Result

// GatewayMetrics is the gateway's counter snapshot (throughput,
// backpressure, batching, compression ratio, latency quantiles).
type GatewayMetrics = serve.Metrics

// GatewayServer exposes a Gateway over TCP with a length-prefixed
// binary protocol.
type GatewayServer = serve.Server

// GatewayClient is the concurrent TCP client of a GatewayServer.
type GatewayClient = serve.Client

// ErrOverloaded is the gateway's backpressure signal: the target shard's
// bounded queue was full and the request was rejected.
var ErrOverloaded = serve.ErrOverloaded

// UseGatewayThreshold in ServeRequest.ThresholdPct selects the gateway's
// configured error threshold instead of a per-request override. It is the
// zero value, so leaving ThresholdPct unset is equivalent;
// ExactThreshold forces exact (0%) operation for one request.
const (
	UseGatewayThreshold = serve.DefaultThreshold
	ExactThreshold      = serve.ThresholdExact
)

// NewGateway builds and starts a gateway; Close it to stop the workers.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return serve.New(cfg) }

// DefaultGatewayConfig returns a gateway configuration for the paper's
// main 32-tile system with the concurrency knobs at their defaults.
func DefaultGatewayConfig(scheme Scheme, thresholdPct int) GatewayConfig {
	return serve.DefaultConfig(scheme, thresholdPct)
}

// QoSConfig enables the gateway's load-driven admission/quality
// controller on GatewayConfig.QoS: under load the effective default
// threshold rises (degrading quality before refusing work), budgeted
// tenants spend error mass per approximated request, and exact-class
// traffic is never degraded and last to be shed.
type QoSConfig = qos.Config

// QoSControllerConfig shapes the hysteresis threshold control loop.
type QoSControllerConfig = qos.ControllerConfig

// TenantBudget is one tenant's refillable error budget.
type TenantBudget = qos.BudgetConfig

// ErrBudgetExhausted reports a request refused because its tenant's
// error budget cannot cover the request's error cost — a definitive
// per-request answer, never silently degraded and never retried.
var ErrBudgetExhausted = serve.ErrBudgetExhausted

// ParseTenantBudgets parses a tenant=capacity[:refillPerSec],... spec,
// the format the CLI -budgets flags take.
func ParseTenantBudgets(spec string) (map[string]TenantBudget, error) {
	return qos.ParseBudgets(spec)
}

// NewGatewayServer wraps a gateway for TCP serving.
func NewGatewayServer(gw *Gateway) *GatewayServer { return serve.NewServer(gw) }

// DialGateway connects to a remote gateway server.
func DialGateway(addr string) (*GatewayClient, error) { return serve.Dial(addr) }

// ExperimentConfig scales the paper-figure regenerators.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the Table 1 experiment setup at
// interactive scale.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }
