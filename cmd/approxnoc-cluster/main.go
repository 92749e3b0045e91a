// Command approxnoc-cluster runs the horizontally scaled gateway: N
// approximation/compression nodes behind a consistent-hash ring keyed
// by flow (src, dst), so each flow's codec state lives on exactly one
// node. It can launch an in-process cluster, act as the seed and
// monitor for externally started approxnoc-serve nodes, or drive load
// at either.
//
// Launch a 4-node in-process DI-VAXX cluster with the membership and
// metrics endpoint:
//
//	approxnoc-cluster -nodes 4 -scheme DI-VAXX -threshold 5 -debug-addr :9555
//
// Form a view over externally started nodes and serve as their seed:
//
//	approxnoc-cluster -peers host1:9444,host2:9444 -debug-addr :9555
//
// Measure cluster throughput (in-process, or remote via -peers/-seed):
//
//	approxnoc-cluster -loadgen -nodes 4 -conns 4 -depth 8 -records 50000
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"approxnoc/internal/cluster"
	"approxnoc/internal/compress"
	"approxnoc/internal/obs"
	"approxnoc/internal/qos"
	"approxnoc/internal/serve"
)

func main() {
	nodes := flag.Int("nodes", 4, "in-process cluster size")
	peers := flag.String("peers", "", "comma-separated node addresses to form a view over instead of launching in-process nodes")
	seedURL := flag.String("seed", "", "bootstrap the view from this seed's /cluster/members endpoint instead of launching in-process nodes")
	schemeName := flag.String("scheme", "DI-VAXX", "Baseline | DI-COMP | DI-VAXX | FP-COMP | FP-VAXX | BD-COMP | BD-VAXX")
	threshold := flag.Int("threshold", 10, "VAXX error threshold (%)")
	endpoints := flag.Int("endpoints", 32, "logical endpoints each node's gateway serves")
	shards := flag.Int("shards", 0, "codec pool shards per node (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "per-shard queue depth (0 = default)")
	batch := flag.Int("batch", 0, "max coalesced batch per dispatch (0 = default)")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per member on the hash ring (0 = default)")
	heartbeat := flag.Duration("heartbeat", 0, "health-probe interval (0 = default, negative disables)")
	warmStart := flag.Bool("warm-start", false, "seed nodes added after launch with their ring neighbor's dictionary image")
	loadgen := flag.Bool("loadgen", false, "measure cluster throughput and exit")
	conns := flag.Int("conns", 4, "concurrent cluster clients for -loadgen")
	depth := flag.Int("depth", 8, "calls in flight per client for -loadgen")
	words := flag.Int("words", 16, "block payload size in 32-bit words for -loadgen")
	records := flag.Int("records", 20000, "total requests for -loadgen, summed over all clients")
	qosOn := flag.Bool("qos", false, "enable the load-driven QoS threshold controller on every owned node (needs FP-VAXX)")
	qosMax := flag.Int("qos-max", 0, "QoS threshold cap in percent (0 = default)")
	budgets := flag.String("budgets", "", "per-tenant error budgets on every owned node, tenant=capacity[:refillPerSec],...")
	tenant := flag.String("tenant", "", "tenant stamped on -loadgen requests, spending that tenant's error budget")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /cluster/members, /cluster/join (and /cluster/drain for owned nodes) on this address")
	flag.Parse()

	if err := run(options{
		nodes: *nodes, peers: *peers, seedURL: *seedURL,
		schemeName: *schemeName, threshold: *threshold, endpoints: *endpoints,
		shards: *shards, queue: *queue, batch: *batch,
		vnodes: *vnodes, heartbeat: *heartbeat, warmStart: *warmStart,
		loadgen: *loadgen, conns: *conns, depth: *depth, words: *words, records: *records,
		qos: *qosOn, qosMax: *qosMax, budgets: *budgets, tenant: *tenant,
		debugAddr: *debugAddr,
	}, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "approxnoc-cluster:", err)
		os.Exit(1)
	}
}

// options carries the parsed flags; ready (when non-nil) receives the
// bound debug address once serving, which tests use instead of stdout
// scraping.
type options struct {
	nodes                int
	peers, seedURL       string
	schemeName           string
	threshold, endpoints int
	shards, queue, batch int
	vnodes               int
	heartbeat            time.Duration
	warmStart            bool
	loadgen              bool
	conns, depth, words  int
	records              int
	qos                  bool
	qosMax               int
	budgets, tenant      string
	debugAddr            string
}

func run(o options, out io.Writer, ready chan<- string) error {
	scheme, err := compress.ParseScheme(o.schemeName)
	if err != nil {
		return err
	}
	if o.loadgen && (o.nodes < 1 || o.conns < 1 || o.depth < 1 || o.words < 1 || o.records < 1) {
		return fmt.Errorf("-nodes, -conns, -depth, -words and -records must each be >= 1 (got %d, %d, %d, %d, %d)",
			o.nodes, o.conns, o.depth, o.words, o.records)
	}
	vcfg := cluster.ViewConfig{VNodes: o.vnodes, HeartbeatEvery: o.heartbeat}
	lg := cluster.Loadgen{
		Loadgen: serve.Loadgen{
			Conns: o.conns, Depth: o.depth, Words: o.words, Records: o.records,
			Tenant: o.tenant,
		},
		Nodes: o.nodes, Endpoints: o.endpoints,
	}
	qcfg, err := qos.ParseFlags(o.qos, o.qosMax, o.threshold, 100*time.Millisecond, o.budgets)
	if err != nil {
		return err
	}

	// Remote modes: the view mirrors nodes someone else runs.
	if o.peers != "" || o.seedURL != "" {
		var v *cluster.View
		if o.seedURL != "" {
			v, err = cluster.DialSeed(o.seedURL, vcfg)
		} else {
			v, err = cluster.NewViewFromAddrs(vcfg, strings.Split(o.peers, ","))
		}
		if err != nil {
			return err
		}
		defer v.Close()
		if o.loadgen {
			rig, err := cluster.NewViewLoadgenRig(v, cluster.ClientConfig{}, lg)
			if err != nil {
				return err
			}
			res, err := rig.Run(0)
			if cerr := rig.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			printLoadgen(out, fmt.Sprintf("%d remote nodes", len(v.Members())), lg, res)
			return nil
		}
		fmt.Fprintf(out, "view over %d remote nodes (prober keeps membership current)\n", len(v.Members()))
		return serveDebug(o.debugAddr, v, v.Handler(), out, ready)
	}

	// In-process modes.
	clcfg := cluster.Config{
		Nodes: o.nodes,
		Serve: serve.Config{
			Nodes: o.endpoints, Scheme: scheme, ThresholdPct: o.threshold,
			Shards: o.shards, QueueDepth: o.queue, MaxBatch: o.batch,
			QoS: qcfg,
		},
		View:      vcfg,
		WarmStart: o.warmStart,
	}
	if o.loadgen {
		res, err := cluster.RunLoopback(clcfg, cluster.ClientConfig{}, lg)
		if err != nil {
			return err
		}
		printLoadgen(out, fmt.Sprintf("%d nodes", o.nodes), lg, res)
		return nil
	}
	cl, err := cluster.New(clcfg)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Fprintf(out, "cluster of %d %v nodes, %d endpoints, threshold %d%%\n",
		o.nodes, scheme, o.endpoints, o.threshold)
	for _, m := range cl.View().Members() {
		fmt.Fprintf(out, "  %-6s %s\n", m.ID, m.Addr)
	}
	return serveDebug(o.debugAddr, cl.View(), cl.Handler(), out, ready)
}

// serveDebug serves metrics and membership until the listener dies. An
// empty addr means there is nothing to serve, which only makes sense
// transiently — report it instead of spinning forever.
func serveDebug(addr string, v *cluster.View, members http.Handler, out io.Writer, ready chan<- string) error {
	if addr == "" {
		return fmt.Errorf("nothing to do: server mode needs -debug-addr (or use -loadgen)")
	}
	reg := obs.NewRegistry()
	v.RegisterMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/cluster/", members)
	mux.Handle("/dict/", members)
	mux.Handle("/", obs.Handler(reg, nil))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "membership and metrics on http://%s/ (/metrics /cluster/members)\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return http.Serve(ln, mux)
}

// printLoadgen renders one loadgen measurement.
func printLoadgen(out io.Writer, what string, lg cluster.Loadgen, res cluster.LoadgenResult) {
	fmt.Fprintf(out, "loadgen             %s, %d clients x depth %d, %d-word blocks\n",
		what, lg.Conns, lg.Depth, lg.Words)
	fmt.Fprintf(out, "throughput          %.0f records/sec (%.2f MB/s payload), %d records in %v\n",
		res.RecordsPerSec, res.PayloadMBPerSec, res.Records, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "retries             %d overload, %d failovers\n", res.OverloadRetries, res.Failovers)
	if res.BudgetRefused > 0 {
		fmt.Fprintf(out, "qos                 %d records refused with ErrBudgetExhausted\n", res.BudgetRefused)
	}
	fmt.Fprintf(out, "balance            ")
	for _, m := range sortedKeys(res.PerNode) {
		fmt.Fprintf(out, " %s=%d", m, res.PerNode[m])
	}
	fmt.Fprintln(out)
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
