package cluster

import (
	"fmt"
	"maps"
	"net"
	"sort"
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
	probes          atomic.Uint64
	probeFailures   atomic.Uint64
}

// View is the routing core every cluster participant shares: the
// published table of members and the consistent-hash ring derived from
// them, the health prober keeping it honest, and the counters
// describing what they did. The in-process Cluster owns one; remote
// clients build one from a seed endpoint (DialSeed) or an address list
// (NewViewFromAddrs). All methods are safe for concurrent use: readers
// load the table once and take no lock, writers copy it under mu.
type View struct {
	cfg   ViewConfig
	table atomic.Pointer[table]
	stats viewStats

	mu     sync.Mutex // serializes table writers
	done   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup
}

// NewView builds a view with an empty table and starts the prober
// (unless disabled).
func NewView(cfg ViewConfig) *View {
	cfg = cfg.withDefaults()
	v := &View{cfg: cfg, done: make(chan struct{})}
	v.table.Store(&table{members: map[string]member{}, ring: NewRing(cfg.VNodes, nil)})
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

// Members snapshots the member table, sorted by id.
func (v *View) Members() []Member {
	t := v.table.Load()
	out := make([]Member, 0, len(t.members))
	for id, m := range t.members {
		out = append(out, Member{
			ID: id, Addr: m.addr, State: m.state,
			Generation: m.gen, Requests: m.requests.Load(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Generation returns the table generation: the count of joins and state
// transitions applied so far.
func (v *View) Generation() uint64 { return v.table.Load().gen }

// Ring returns the current ring (immutable; safe to keep).
func (v *View) Ring() *Ring { return v.table.Load().ring }

// state returns a member's current state.
func (v *View) state(id string) (State, bool) {
	m, ok := v.table.Load().members[id]
	return m.state, ok
}

// Stats is a snapshot of the view's counters. Transitions counts joins
// and state transitions: it is the table generation.
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
		Transitions:     v.Generation(),
		Probes:          v.stats.probes.Load(),
		ProbeFailures:   v.stats.probeFailures.Load(),
	}
}

// Join adds a node in state, or re-admits a left/down node at the same
// id (bumping its generation and updating its address). Joining an id
// that is currently active fails.
func (v *View) Join(id, addr string, state State) error {
	if id == "" {
		return fmt.Errorf("cluster: join needs a node id")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.table.Load().members[id]
	if !ok {
		m.requests = new(atomic.Uint64)
	} else if m.state != StateLeft && m.state != StateDown {
		return fmt.Errorf("cluster: node %q already a member (state %v)", id, m.state)
	}
	m.addr, m.state = addr, state
	v.publishLocked(id, m, false) // neither a new nor a left/down member owns ring points
	return nil
}

// SetState moves a member to state, reporting whether anything changed
// (unknown ids and no-op transitions return false).
func (v *View) SetState(id string, state State) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.table.Load().members[id]
	if !ok || m.state == state {
		return false
	}
	wasInRing := m.state.inRing()
	m.state = state
	v.publishLocked(id, m, wasInRing)
	return true
}

// publishLocked publishes a copy of the table with m as id's entry,
// bumping the member and table generations, and rebuilds the ring when
// the member's ring ownership changed. Caller holds v.mu.
func (v *View) publishLocked(id string, m member, wasInRing bool) {
	old := v.table.Load()
	t := &table{gen: old.gen + 1, members: maps.Clone(old.members), ring: old.ring}
	m.gen++
	t.members[id] = m
	if m.state.inRing() != wasInRing {
		var ids []string
		for oid, om := range t.members {
			if om.state.inRing() {
				ids = append(ids, oid)
			}
		}
		t.ring = NewRing(v.cfg.VNodes, ids)
		v.stats.rebalances.Add(1)
	}
	v.table.Store(t)
}

// NodeFailed records a client-observed node failure (dropped
// connection, failed dial): the member turns suspect so routing prefers
// other nodes immediately, without waiting for the prober to notice. It
// keeps its ring ownership; the prober either recovers it to healthy or
// confirms it down.
func (v *View) NodeFailed(id string) {
	v.stats.failovers.Add(1)
	st, ok := v.state(id)
	if ok && (st == StateHealthy || st == StateJoining) {
		v.SetState(id, StateSuspect)
	}
}

// countOverloadRetry is bumped by clients re-issuing an overloaded call.
func (v *View) countOverloadRetry() { v.stats.overloadRetries.Add(1) }

// Route picks the node for flow (src, dst): the ring walk starting at
// the flow's owner, preferring healthy members, skipping ids rejected
// by skip (nil skips nothing). When no healthy candidate survives, a
// second pass settles for joining or suspect members rather than
// failing a flow on transient suspicion. Returns false only when every
// ring member is excluded or unroutable.
func (v *View) Route(src, dst int, skip func(id string) bool) (id, addr string, ok bool) {
	// Every ring id is a member of the same table.
	t := v.table.Load()
	id, ok = t.ring.Walk(src, dst, func(id string) bool {
		return (skip == nil || !skip(id)) && t.members[id].state == StateHealthy
	})
	if !ok {
		id, ok = t.ring.Walk(src, dst, func(id string) bool {
			st := t.members[id].state
			return (skip == nil || !skip(id)) && (st == StateJoining || st == StateSuspect)
		})
	}
	if !ok {
		return "", "", false
	}
	m := t.members[id]
	m.requests.Add(1)
	return id, m.addr, true
}

// probeLoop heartbeats every probeable member each HeartbeatEvery tick:
// joining, suspect, and down members recover to healthy on a successful
// probe; healthy members degrade to suspect on a failure and to down
// past FailAfter consecutive failures. A member's failure streak
// restarts whenever its generation moves, so a healthy member turns
// suspect on one failure and down after FailAfter more.
func (v *View) probeLoop() {
	defer v.wg.Done()
	tick := time.NewTicker(v.cfg.HeartbeatEvery)
	defer tick.Stop()
	type streak struct {
		gen   uint64
		fails int
	}
	streaks := make(map[string]streak)
	for {
		select {
		case <-v.done:
			return
		case <-tick.C:
		}
		for _, m := range v.Members() {
			switch m.State {
			case StateDraining, StateLeft:
				continue
			}
			v.stats.probes.Add(1)
			if err := v.cfg.Probe(m.Addr, DefaultProbeTimeout); err != nil {
				v.stats.probeFailures.Add(1)
				s := streaks[m.ID]
				if s.gen != m.Generation {
					s = streak{gen: m.Generation}
				}
				s.fails++
				streaks[m.ID] = s
				switch {
				case s.fails >= v.cfg.FailAfter:
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
// every sample reads atomics or the published table, so scraping never
// blocks routing.
func (v *View) RegisterMetrics(reg *obs.Registry) {
	states := []State{StateJoining, StateHealthy, StateSuspect, StateDown, StateDraining, StateLeft}
	reg.Collector("cluster_nodes", "cluster members by lifecycle state",
		obs.TypeGauge, []string{"state"}, func() []obs.Sample {
			counts := make(map[State]int)
			for _, m := range v.table.Load().members {
				counts[m.state]++
			}
			out := make([]obs.Sample, len(states))
			for i, st := range states {
				out[i] = obs.Sample{LabelValues: []string{st.String()}, Value: float64(counts[st])}
			}
			return out
		})
	reg.GaugeFunc("cluster_generation", "membership table generation",
		func() float64 { return float64(v.Generation()) })
	reg.GaugeFunc("cluster_ring_nodes", "nodes owning ring points",
		func() float64 { return float64(v.Ring().Len()) })
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
		v.Generation)
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
			ms := v.Members()
			out := make([]obs.Sample, len(ms))
			for i, m := range ms {
				out[i] = obs.Sample{LabelValues: []string{m.ID}, Value: float64(m.Requests)}
			}
			return out
		})
	reg.Collector("cluster_node_generation", "per-member state-transition generation",
		obs.TypeGauge, []string{"node"}, func() []obs.Sample {
			ms := v.Members()
			out := make([]obs.Sample, len(ms))
			for i, m := range ms {
				out[i] = obs.Sample{LabelValues: []string{m.ID}, Value: float64(m.Generation)}
			}
			return out
		})
}
