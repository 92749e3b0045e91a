package cluster

import (
	"fmt"

	"approxnoc/internal/serve"
)

// Gateway returns the in-process gateway behind an owned node, for
// dictionary transfer and test audits. False for nodes this process
// does not own (or that were already stopped).
func (c *Cluster) Gateway(id string) (*serve.Gateway, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok || n.stopped {
		return nil, false
	}
	return n.gw, true
}

// SnapshotDicts captures an owned node's full dictionary image
// (serve.Gateway.SnapshotDicts) — the transfer unit of PMT replication.
func (c *Cluster) SnapshotDicts(id string) ([]byte, error) {
	gw, ok := c.Gateway(id)
	if !ok {
		return nil, fmt.Errorf("cluster: no live owned node %q", id)
	}
	return gw.SnapshotDicts()
}

// RestoreDicts applies a dictionary image to an owned node. adopted
// counts codecs that took the transferred state, kept those whose local
// dictionaries had already advanced past it (generation reconciliation).
func (c *Cluster) RestoreDicts(id string, data []byte) (adopted, kept int, err error) {
	gw, ok := c.Gateway(id)
	if !ok {
		return 0, 0, fmt.Errorf("cluster: no live owned node %q", id)
	}
	return gw.RestoreDicts(data)
}

// warmStart seeds a joining node's dictionaries from its ring-adjacent
// donor — the member whose flow arcs the newcomer inherits. Called by
// AddNode before the node joins the view, on the pre-join ring. Nodes
// this process does not own (or a single-node ring) are skipped
// silently: warm-start is an optimization, never a join blocker.
func (c *Cluster) warmStart(n *node) {
	donor, ok := c.view.Ring().Adjacent(n.id)
	if !ok {
		return
	}
	snap, err := c.SnapshotDicts(donor)
	if err != nil {
		return
	}
	n.gw.RestoreDicts(snap)
}
