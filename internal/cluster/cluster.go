// Package cluster scales the internal/serve gateway horizontally: N
// gateway nodes behind a consistent-hash ring keyed by flow (src, dst),
// so each flow's codec state — the DI-COMP pattern tables the paper
// keeps private per network interface — lives on exactly one node and
// the encoder/decoder PMT-sync invariant holds per node by
// construction, exactly as it does per shard inside one gateway.
//
// The subsystem has three layers. The routing core (Ring, View) places
// flows with rendezvous-style consistent hashing over virtual nodes,
// tracks node lifecycle with generation-numbered transitions, publishes
// members and ring together as one immutable table, and keeps it honest
// with heartbeat health probes; removing a node remaps only that node's
// flows (the bounded-disruption property the ring tests pin). The
// cluster-aware Client rides one pipelined serve.Client per node,
// routes every call by ring lookup, and retries — overloaded calls
// back off, transport failures mark the node suspect and fail over to
// the ring's replacement after re-establishing the stream, under a
// bounded failover budget. Cluster itself runs N in-process nodes for
// tests, benchmarks, and cmd/approxnoc-cluster, with graceful drain
// (ring removal first, then the serve.Server pipeline settles) and
// abrupt kill (the failure path the failover tests exercise).
package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"approxnoc/internal/serve"
)

// DefaultDrainTimeout bounds a graceful node drain.
const DefaultDrainTimeout = 5 * time.Second

// Config parameterizes an in-process cluster.
type Config struct {
	// Nodes is the number of gateway nodes to launch.
	Nodes int
	// Serve configures each node's gateway (every node serves the same
	// logical endpoint space; the ring decides which node owns which
	// flow).
	Serve serve.Config
	// View configures the ring and membership core.
	View ViewConfig
	// MaxInflight is each node server's per-connection pipeline bound
	// (0 means the serve default).
	MaxInflight int
	// WarmStart seeds every node added after launch with the dictionary
	// image of its ring-adjacent donor — the member whose flows it
	// inherits — so it starts from learned PMTs instead of empty ones.
	WarmStart bool
}

// node is one in-process gateway node.
type node struct {
	id       string
	addr     string
	gw       *serve.Gateway
	srv      *serve.Server
	serveErr chan error
	stopped  bool // Kill or Drain already tore it down
}

// Cluster runs N serve.Server nodes on loopback ports behind a shared
// View. It owns the nodes (Close stops them) but not the clients built
// from it.
type Cluster struct {
	cfg  Config
	view *View

	mu     sync.Mutex
	nodes  map[string]*node
	nextID int
	closed bool
}

// New launches cfg.Nodes gateway nodes and a view in which all of them
// start healthy.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.Nodes)
	}
	c := &Cluster{cfg: cfg, view: NewView(cfg.View), nodes: make(map[string]*node)}
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := c.AddNode(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// View returns the cluster's routing view.
func (c *Cluster) View() *View { return c.view }

// Client builds a cluster client over this cluster's view.
func (c *Cluster) Client(cfg ClientConfig) *Client { return NewClient(c.view, cfg) }

// AddNode launches one more in-process node, joining it to the view as
// healthy (its listener is up before Join returns). Returns the new
// node's id.
func (c *Cluster) AddNode() (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrClosed
	}
	id := fmt.Sprintf("n%d", c.nextID)
	c.nextID++
	c.mu.Unlock()

	gw, err := serve.New(c.cfg.Serve)
	if err != nil {
		return "", err
	}
	srv := serve.NewServer(gw)
	srv.NodeID = id
	srv.MaxInflight = c.cfg.MaxInflight
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return "", fmt.Errorf("cluster: %w", err)
	}
	n := &node{id: id, addr: ln.Addr().String(), gw: gw, srv: srv, serveErr: make(chan error, 1)}
	go func() { n.serveErr <- srv.Serve(ln) }()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		srv.Close()
		gw.Close()
		<-n.serveErr
		return "", ErrClosed
	}
	c.nodes[id] = n
	c.mu.Unlock()
	if c.cfg.WarmStart {
		// Before the ring learns about the newcomer: its adjacent arc
		// owner on the pre-join ring is the donor it inherits flows from.
		c.warmStart(n)
	}
	if err := c.view.Join(id, n.addr, StateHealthy); err != nil {
		c.stopNode(n)
		return "", err
	}
	return id, nil
}

// NodeIDs returns the ids of the nodes this cluster owns, sorted by
// launch order.
func (c *Cluster) NodeIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.nodes))
	for i := 0; i < c.nextID; i++ {
		id := fmt.Sprintf("n%d", i)
		if _, ok := c.nodes[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Kill stops an owned node abruptly — listener, connections, gateway,
// no warning — simulating a crash. Membership is deliberately not
// updated: clients notice through transport failures and the prober
// confirms the node down, which is the failure path the failover tests
// exercise.
func (c *Cluster) Kill(id string) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	if ok && !n.stopped {
		n.stopped = true
	} else {
		n = nil
	}
	c.mu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: no live owned node %q", id)
	}
	c.stopNode(n)
	return nil
}

// Drain retires an owned node gracefully: the member turns draining
// (leaving the ring, so clients stop routing new work there), the
// node's server waits for its pipeline to settle, and only then is it
// stopped and marked left. The flows it owned remap to ring successors
// — the bounded disruption the ring guarantees.
func (c *Cluster) Drain(id string) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	if ok && !n.stopped {
		n.stopped = true
	} else {
		n = nil
	}
	c.mu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: no live owned node %q", id)
	}
	c.view.SetState(id, StateDraining)
	err := n.srv.Drain(DefaultDrainTimeout)
	c.stopNode(n)
	c.view.SetState(id, StateLeft)
	return err
}

// stopNode tears one node down and reaps its serve goroutine.
func (c *Cluster) stopNode(n *node) {
	n.srv.Close()
	n.gw.Close()
	<-n.serveErr
	c.mu.Lock()
	delete(c.nodes, n.id)
	c.mu.Unlock()
}

// Close stops every owned node and the view's prober.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	nodes := make([]*node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.stopped {
			n.stopped = true
			nodes = append(nodes, n)
		}
	}
	c.mu.Unlock()
	for _, n := range nodes {
		c.stopNode(n)
	}
	c.view.Close()
	return nil
}
