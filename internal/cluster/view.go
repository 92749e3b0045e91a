package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"approxnoc/internal/obs"
)

// Defaults for ViewConfig's zero knobs.
const (
	// DefaultVNodes is the virtual-node count per member: enough that
	// an 8-node ring balances flows within a few tens of percent, small
	// enough that ring rebuilds stay microseconds.
	DefaultVNodes = 64
	// DefaultHeartbeat is the probe interval.
	DefaultHeartbeat = 500 * time.Millisecond
	// DefaultProbeTimeout bounds one health-check dial.
	DefaultProbeTimeout = 250 * time.Millisecond
	// DefaultFailAfter is the consecutive probe failures that take a
	// node from suspect to down.
	DefaultFailAfter = 3
)

// ViewConfig parameterizes a View.
type ViewConfig struct {
	// VNodes is the virtual nodes per member (0 means DefaultVNodes).
	VNodes int
	// HeartbeatEvery is the health-probe interval; 0 means
	// DefaultHeartbeat, negative disables the prober (membership then
	// changes only through explicit SetState/NodeFailed calls — the
	// mode tests use for deterministic transitions).
	HeartbeatEvery time.Duration
	// FailAfter is the consecutive probe failures before a node is
	// marked down and drops off the ring (0 means DefaultFailAfter).
	FailAfter int
	// Probe overrides the health check, which by default dials the
	// member's TCP address and closes the connection. Tests substitute
	// deterministic outcomes.
	Probe func(addr string, timeout time.Duration) error
}

func (c ViewConfig) withDefaults() ViewConfig {
	if c.VNodes == 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = DefaultHeartbeat
	}
	if c.FailAfter == 0 {
		c.FailAfter = DefaultFailAfter
	}
	if c.Probe == nil {
		c.Probe = func(addr string, timeout time.Duration) error {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return err
			}
			return conn.Close()
		}
	}
	return c
}

// viewStats are the cluster-wide counters behind the cluster_* metric
// families.
type viewStats struct {
	rebalances      atomic.Uint64 // ring rebuilds from membership changes
	failovers       atomic.Uint64 // calls rerouted after a node failure
	overloadRetries atomic.Uint64 // calls re-issued after ErrOverloaded
	transitions     atomic.Uint64 // member state transitions
	probes          atomic.Uint64
	probeFailures   atomic.Uint64
}

// View is the routing core every cluster participant shares: the
// membership table, the consistent-hash ring derived from it, the
// health prober keeping the two honest, and the counters describing
// what they did. The in-process Cluster owns one; remote clients build
// one from a seed endpoint (DialSeed) or an address list
// (NewViewFromAddrs). All methods are safe for concurrent use.
type View struct {
	cfg     ViewConfig
	members *Membership
	ring    atomic.Pointer[Ring]
	stats   viewStats

	mu     sync.Mutex // serializes ring rebuilds against membership writes
	done   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup
}

// NewView builds a view with an empty membership table and starts the
// prober (unless disabled).
func NewView(cfg ViewConfig) *View {
	cfg = cfg.withDefaults()
	v := &View{cfg: cfg, members: NewMembership(), done: make(chan struct{})}
	v.ring.Store(NewRing(cfg.VNodes, nil))
	if cfg.HeartbeatEvery > 0 {
		v.wg.Add(1)
		go v.probeLoop()
	}
	return v
}

// NewViewFromAddrs builds a view whose members are the given addresses
// (node ids equal the addresses), all starting as joining until the
// prober admits them.
func NewViewFromAddrs(cfg ViewConfig, addrs []string) (*View, error) {
	v := NewView(cfg)
	for _, a := range addrs {
		if err := v.Join(a, a, StateJoining); err != nil {
			v.Close()
			return nil, err
		}
	}
	return v, nil
}

// Close stops the prober. It does not alter membership.
func (v *View) Close() {
	v.closed.Do(func() { close(v.done) })
	v.wg.Wait()
}

// Members snapshots the membership table.
func (v *View) Members() []Member { return v.members.Snapshot() }

// Generation returns the membership table generation.
func (v *View) Generation() uint64 { return v.members.Generation() }

// Ring returns the current ring (immutable; safe to keep).
func (v *View) Ring() *Ring { return v.ring.Load() }

// Stats is a snapshot of the view's counters.
type Stats struct {
	Rebalances, Failovers, OverloadRetries uint64
	Transitions, Probes, ProbeFailures     uint64
}

// Stats snapshots the cluster-wide counters.
func (v *View) Stats() Stats {
	return Stats{
		Rebalances:      v.stats.rebalances.Load(),
		Failovers:       v.stats.failovers.Load(),
		OverloadRetries: v.stats.overloadRetries.Load(),
		Transitions:     v.stats.transitions.Load(),
		Probes:          v.stats.probes.Load(),
		ProbeFailures:   v.stats.probeFailures.Load(),
	}
}

// Join admits a node and, when its state owns ring points, rebuilds the
// ring.
func (v *View) Join(id, addr string, state State) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.members.Join(id, addr, state); err != nil {
		return err
	}
	v.stats.transitions.Add(1)
	if state.inRing() {
		v.rebuildLocked()
	}
	return nil
}

// SetState applies a member state transition, rebuilding the ring when
// the member's ring ownership changes. It reports whether the state
// actually changed.
func (v *View) SetState(id string, state State) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	prev, ok := v.members.State(id)
	if !ok || !v.members.SetState(id, state) {
		return false
	}
	v.stats.transitions.Add(1)
	if prev.inRing() != state.inRing() {
		v.rebuildLocked()
	}
	return true
}

// NodeFailed records a client-observed node failure (dropped
// connection, failed dial): the member turns suspect so routing prefers
// other nodes immediately, without waiting for the prober to notice. It
// keeps its ring ownership; the prober either recovers it to healthy or
// confirms it down.
func (v *View) NodeFailed(id string) {
	v.stats.failovers.Add(1)
	st, ok := v.members.State(id)
	if ok && (st == StateHealthy || st == StateJoining) {
		v.SetState(id, StateSuspect)
	}
}

// countOverloadRetry is bumped by clients re-issuing an overloaded call.
func (v *View) countOverloadRetry() { v.stats.overloadRetries.Add(1) }

// rebuildLocked derives a fresh ring from the membership table. Caller
// holds v.mu.
func (v *View) rebuildLocked() {
	var ids []string
	for _, m := range v.members.Snapshot() {
		if m.State.inRing() {
			ids = append(ids, m.ID)
		}
	}
	v.ring.Store(NewRing(v.cfg.VNodes, ids))
	v.stats.rebalances.Add(1)
}

// Route picks the node for flow (src, dst): the ring walk starting at
// the flow's owner, preferring healthy members, skipping ids rejected
// by skip (nil skips nothing). When no healthy candidate survives, a
// second pass settles for joining or suspect members rather than
// failing a flow on transient suspicion. Returns false only when every
// ring member is excluded or unroutable.
func (v *View) Route(src, dst int, skip func(id string) bool) (id, addr string, ok bool) {
	ring := v.ring.Load()
	id, ok = ring.Walk(src, dst, func(id string) bool {
		if skip != nil && skip(id) {
			return false
		}
		st, known := v.members.State(id)
		return known && st == StateHealthy
	})
	if !ok {
		id, ok = ring.Walk(src, dst, func(id string) bool {
			if skip != nil && skip(id) {
				return false
			}
			st, known := v.members.State(id)
			return known && (st == StateJoining || st == StateSuspect)
		})
	}
	if !ok {
		return "", "", false
	}
	addr, ok = v.members.Addr(id)
	if !ok {
		return "", "", false
	}
	v.members.CountRequest(id)
	return id, addr, true
}

// probeLoop heartbeats every probeable member each HeartbeatEvery tick:
// joining, suspect, and down members recover to healthy on a successful
// probe; healthy members degrade to suspect on a failure and to down
// past FailAfter consecutive failures.
func (v *View) probeLoop() {
	defer v.wg.Done()
	tick := time.NewTicker(v.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-v.done:
			return
		case <-tick.C:
		}
		for _, m := range v.members.Snapshot() {
			switch m.State {
			case StateDraining, StateLeft:
				continue
			}
			v.stats.probes.Add(1)
			if err := v.cfg.Probe(m.Addr, DefaultProbeTimeout); err != nil {
				v.stats.probeFailures.Add(1)
				fails := v.members.probeFailed(m.ID)
				switch {
				case fails >= v.cfg.FailAfter:
					v.SetState(m.ID, StateDown)
				case m.State == StateHealthy:
					v.SetState(m.ID, StateSuspect)
				}
			} else if m.State != StateHealthy {
				v.SetState(m.ID, StateHealthy)
			}
		}
	}
}

// RegisterMetrics exports the view's live state on reg as cluster_*
// families, following the collector discipline of the serve layer:
// every sample reads atomics or a mutex-guarded snapshot, so scraping
// never blocks routing.
func (v *View) RegisterMetrics(reg *obs.Registry) {
	states := []State{StateJoining, StateHealthy, StateSuspect, StateDown, StateDraining, StateLeft}
	reg.Collector("cluster_nodes", "cluster members by lifecycle state",
		obs.TypeGauge, []string{"state"}, func() []obs.Sample {
			counts := make(map[State]int)
			for _, m := range v.members.Snapshot() {
				counts[m.State]++
			}
			out := make([]obs.Sample, len(states))
			for i, st := range states {
				out[i] = obs.Sample{LabelValues: []string{st.String()}, Value: float64(counts[st])}
			}
			return out
		})
	reg.GaugeFunc("cluster_generation", "membership table generation",
		func() float64 { return float64(v.members.Generation()) })
	reg.GaugeFunc("cluster_ring_nodes", "nodes owning ring points",
		func() float64 { return float64(v.ring.Load().Len()) })
	counter := func(name, help string, read func() uint64) {
		reg.Collector(name, help, obs.TypeCounter, nil, func() []obs.Sample {
			return []obs.Sample{{Value: float64(read())}}
		})
	}
	counter("cluster_rebalances_total", "ring rebuilds from membership changes",
		func() uint64 { return v.stats.rebalances.Load() })
	counter("cluster_failovers_total", "calls rerouted after a node failure",
		func() uint64 { return v.stats.failovers.Load() })
	counter("cluster_overload_retries_total", "calls re-issued after ErrOverloaded",
		func() uint64 { return v.stats.overloadRetries.Load() })
	counter("cluster_health_transitions_total", "member state transitions",
		func() uint64 { return v.stats.transitions.Load() })
	reg.Collector("cluster_probes_total", "health probes by outcome",
		obs.TypeCounter, []string{"result"}, func() []obs.Sample {
			fails := v.stats.probeFailures.Load()
			return []obs.Sample{
				{LabelValues: []string{"ok"}, Value: float64(v.stats.probes.Load() - fails)},
				{LabelValues: []string{"fail"}, Value: float64(fails)},
			}
		})
	reg.Collector("cluster_node_requests_total", "client requests routed to each node",
		obs.TypeCounter, []string{"node"}, func() []obs.Sample {
			ms := v.members.Snapshot()
			out := make([]obs.Sample, len(ms))
			for i, m := range ms {
				out[i] = obs.Sample{LabelValues: []string{m.ID}, Value: float64(m.Requests)}
			}
			return out
		})
	reg.Collector("cluster_node_generation", "per-member state-transition generation",
		obs.TypeGauge, []string{"node"}, func() []obs.Sample {
			ms := v.members.Snapshot()
			out := make([]obs.Sample, len(ms))
			for i, m := range ms {
				out[i] = obs.Sample{LabelValues: []string{m.ID}, Value: float64(m.Generation)}
			}
			return out
		})
}
