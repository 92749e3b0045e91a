package cluster

import "approxnoc/internal/serve"

// Loadgen parameterizes a loopback throughput measurement of the
// cluster path: the serve load shape, where a "connection" is a cluster
// client owning one pipelined stream per node it routes to, plus the
// cluster's own two knobs.
type Loadgen struct {
	serve.Loadgen
	// Nodes is the cluster size (0 means 1).
	Nodes int
	// Endpoints is the logical endpoint space the generated flows walk
	// (0 means the per-node gateway's Nodes for an in-process rig, 64
	// for a view rig).
	Endpoints int
}

// LoadgenResult is one cluster throughput measurement: the serve
// measurement plus what the view counted.
type LoadgenResult struct {
	// Retries here counts the driver's re-issues of an ErrOverloaded the
	// cluster client surfaced — zero unless ClientConfig.OverloadRetries
	// bounds the client's own retrying.
	serve.LoadgenResult
	// OverloadRetries and Failovers count the cluster clients' own
	// re-issues during the replay.
	OverloadRetries, Failovers uint64
	// PerNode is each node's routed-request count after the replay —
	// the ring's balance, measured.
	PerNode map[string]uint64
}

// LoadgenRig is a ready-to-drive cluster load rig: the serve rig over
// Conns cluster clients sharing a view, and (for the in-process form)
// the cluster itself — built once so benchmark iterations measure only
// the replay.
type LoadgenRig struct {
	*serve.Rig[*Call, *Client]
	view    *View
	cluster *Cluster // owned in-process cluster, nil for a view rig
}

// NewLoadgenRig launches lg.Nodes gateway nodes from cfg and builds
// lg.Conns cluster clients over the shared view. ccfg shapes the
// clients' retry policy; clcfg.MaxInflight bounds each node server's
// pipeline. Close tears all of it down.
func NewLoadgenRig(clcfg Config, ccfg ClientConfig, lg Loadgen) (*LoadgenRig, error) {
	clcfg.Nodes = lg.Nodes
	if clcfg.Nodes == 0 {
		clcfg.Nodes = 1
	}
	if clcfg.View.HeartbeatEvery == 0 {
		// The rig's membership is static; probing adds only noise to the
		// measurement.
		clcfg.View.HeartbeatEvery = -1
	}
	cl, err := New(clcfg)
	if err != nil {
		return nil, err
	}
	if lg.Endpoints == 0 {
		lg.Endpoints = clcfg.Serve.Nodes
	}
	rig, err := NewViewLoadgenRig(cl.View(), ccfg, lg)
	if err != nil {
		cl.Close()
		return nil, err
	}
	rig.cluster = cl
	return rig, nil
}

// NewViewLoadgenRig builds a rig over an existing view — remote nodes
// someone else runs (approxnoc-cluster -peers / -seed drive this). The
// rig owns its clients but not the view; lg.Nodes is ignored.
func NewViewLoadgenRig(v *View, ccfg ClientConfig, lg Loadgen) (*LoadgenRig, error) {
	if lg.Endpoints == 0 {
		lg.Endpoints = 64
	}
	rig, err := serve.NewRig(lg.Loadgen, lg.Endpoints, func() (*Client, error) { return NewClient(v, ccfg), nil })
	if err != nil {
		return nil, err
	}
	return &LoadgenRig{Rig: rig, view: v}, nil
}

// Cluster returns the rig's owned in-process cluster (tests kill or
// drain nodes through it mid-replay); nil for a view rig.
func (r *LoadgenRig) Cluster() *Cluster { return r.cluster }

// Run replays records generated requests through the cluster (0 means
// lg.Records) and returns the measurement. Overload and failover
// retries happen inside the cluster client; a record counts once it
// completes.
func (r *LoadgenRig) Run(records int) (LoadgenResult, error) {
	before := r.view.Stats()
	sres, err := r.Rig.Run(records)
	if err != nil {
		return LoadgenResult{}, err
	}
	after := r.view.Stats()
	res := LoadgenResult{
		LoadgenResult:   sres,
		OverloadRetries: after.OverloadRetries - before.OverloadRetries,
		Failovers:       after.Failovers - before.Failovers,
		PerNode:         make(map[string]uint64),
	}
	for _, m := range r.view.Members() {
		res.PerNode[m.ID] = m.Requests
	}
	return res, nil
}

// Close tears down the clients and, for an in-process rig, the cluster
// (an external view stays up — its owner closes it).
func (r *LoadgenRig) Close() error {
	err := r.Rig.Close()
	if r.cluster != nil {
		if cerr := r.cluster.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RunLoopback is the one-shot convenience: build a rig, run it once,
// tear it down. cmd/approxnoc-cluster -loadgen and the approxnoc-bench
// cluster experiment use it.
func RunLoopback(clcfg Config, ccfg ClientConfig, lg Loadgen) (LoadgenResult, error) {
	rig, err := NewLoadgenRig(clcfg, ccfg, lg)
	if err != nil {
		return LoadgenResult{}, err
	}
	res, err := rig.Run(0)
	if cerr := rig.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}
