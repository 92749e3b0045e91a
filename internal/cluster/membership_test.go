package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// noProbe is the test ViewConfig: deterministic membership, no prober.
func noProbe() ViewConfig { return ViewConfig{HeartbeatEvery: -1} }

func TestMembershipLifecycle(t *testing.T) {
	v := NewView(noProbe())
	defer v.Close()
	if err := v.Join("a", "addr-a", StateHealthy); err != nil {
		t.Fatal(err)
	}
	if err := v.Join("a", "elsewhere", StateHealthy); err == nil {
		t.Fatal("rejoining an active member should fail")
	}
	if err := v.Join("", "x", StateHealthy); err == nil {
		t.Fatal("empty id should fail")
	}
	if !v.SetState("a", StateSuspect) {
		t.Fatal("transition to suspect should report change")
	}
	if v.SetState("a", StateSuspect) {
		t.Fatal("no-op transition should report false")
	}
	if v.SetState("ghost", StateDown) {
		t.Fatal("unknown id should report false")
	}
	st, ok := v.state("a")
	if !ok || st != StateSuspect {
		t.Fatalf("state: %v %v", st, ok)
	}

	// Left members can rejoin at a new address with a bumped generation.
	v.SetState("a", StateLeft)
	before := v.Members()[0].Generation
	if err := v.Join("a", "addr-a2", StateJoining); err != nil {
		t.Fatal(err)
	}
	mb := v.Members()[0]
	if mb.Addr != "addr-a2" || mb.State != StateJoining || mb.Generation != before+1 {
		t.Fatalf("rejoin: %+v (prev gen %d)", mb, before)
	}
	if tr, gen := v.Stats().Transitions, v.Generation(); tr != gen {
		t.Fatalf("transitions %d, table generation %d", tr, gen)
	}
}

func TestMembershipGenerations(t *testing.T) {
	v := NewView(noProbe())
	defer v.Close()
	g0 := v.Generation()
	v.Join("a", "x", StateHealthy)
	v.Join("b", "y", StateHealthy)
	v.SetState("a", StateSuspect)
	v.SetState("a", StateSuspect) // no-op: no bump
	if got := v.Generation(); got != g0+3 {
		t.Fatalf("table generation %d, want %d", got, g0+3)
	}
	if tr, gen := v.Stats().Transitions, v.Generation(); tr != gen {
		t.Fatalf("transitions %d, table generation %d", tr, gen)
	}
}

func TestStateStringsRoundTrip(t *testing.T) {
	for st := StateJoining; st <= StateLeft; st++ {
		back, ok := stateFromString(st.String())
		if !ok || back != st {
			t.Fatalf("state %v round-trips to %v %v", st, back, ok)
		}
	}
	if _, ok := stateFromString("warp"); ok {
		t.Fatal("bogus state parsed")
	}
}

// TestViewRingFollowsMembership pins which lifecycle states own ring
// points: suspicion keeps ownership (transient failure must not remap
// warmed codec state), down and draining lose it.
func TestViewRingFollowsMembership(t *testing.T) {
	v := NewView(noProbe())
	defer v.Close()
	for _, id := range []string{"a", "b", "c"} {
		if err := v.Join(id, "addr-"+id, StateHealthy); err != nil {
			t.Fatal(err)
		}
	}
	if v.Ring().Len() != 3 {
		t.Fatalf("ring %v", v.Ring().Nodes())
	}
	rebuilds := v.Stats().Rebalances

	v.SetState("b", StateSuspect)
	if !v.Ring().Has("b") {
		t.Fatal("suspect node lost ring ownership")
	}
	if v.Stats().Rebalances != rebuilds {
		t.Fatal("suspect transition should not rebuild the ring")
	}

	v.SetState("b", StateDown)
	if v.Ring().Has("b") {
		t.Fatal("down node kept ring ownership")
	}
	if v.Stats().Rebalances != rebuilds+1 {
		t.Fatal("down transition should rebuild the ring")
	}

	v.SetState("b", StateHealthy)
	if !v.Ring().Has("b") {
		t.Fatal("recovered node did not regain ring ownership")
	}

	v.SetState("c", StateDraining)
	if v.Ring().Has("c") {
		t.Fatal("draining node kept ring ownership")
	}
}

// TestViewRoutePreference: routing prefers healthy members, falls back
// to joining/suspect, honors skip, and gives up only when nobody is
// left.
func TestViewRoutePreference(t *testing.T) {
	v := NewView(noProbe())
	defer v.Close()
	v.Join("a", "addr-a", StateHealthy)
	v.Join("b", "addr-b", StateHealthy)

	// Find a flow owned by a, then make a suspect: the flow must route
	// to b (healthy preferred) without a ring rebuild.
	src, dst := 0, 1
	for {
		if id, _, ok := v.Route(src, dst, nil); ok && id == "a" {
			break
		}
		src++
	}
	v.SetState("a", StateSuspect)
	if id, _, ok := v.Route(src, dst, nil); !ok || id != "b" {
		t.Fatalf("suspect owner: routed to %s %v, want b", id, ok)
	}
	// With b excluded, the suspect fallback pass accepts a.
	if id, _, ok := v.Route(src, dst, func(id string) bool { return id == "b" }); !ok || id != "a" {
		t.Fatalf("fallback pass: routed to %s %v, want a", id, ok)
	}
	// Everyone excluded: unroutable.
	if _, _, ok := v.Route(src, dst, func(string) bool { return true }); ok {
		t.Fatal("route with all nodes skipped should fail")
	}
	v.SetState("a", StateDown)
	v.SetState("b", StateDown)
	if _, _, ok := v.Route(src, dst, nil); ok {
		t.Fatal("route with all nodes down should fail")
	}
}

// TestViewProbeTransitions drives the prober with an injected health
// check: failures degrade healthy → suspect → down over FailAfter
// probes, and recovery promotes straight back to healthy.
func TestViewProbeTransitions(t *testing.T) {
	var failing atomic.Bool
	v := NewView(ViewConfig{
		HeartbeatEvery: 2 * time.Millisecond,
		FailAfter:      3,
		Probe: func(addr string, _ time.Duration) error {
			if failing.Load() {
				return errors.New("injected probe failure")
			}
			return nil
		},
	})
	defer v.Close()
	v.Join("a", "addr-a", StateJoining)

	waitState := func(want State) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st, _ := v.state("a")
			if st == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %v; node a is %v", want, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Joining node passes its first probe: healthy.
	waitState(StateHealthy)
	// Probes start failing: suspect first, down after FailAfter.
	failing.Store(true)
	waitState(StateSuspect)
	waitState(StateDown)
	if v.Ring().Has("a") {
		t.Fatal("down node kept ring ownership")
	}
	// Recovery: straight back to healthy, ring restored.
	failing.Store(false)
	waitState(StateHealthy)
	if !v.Ring().Has("a") {
		t.Fatal("recovered node did not rejoin the ring")
	}
	if s := v.Stats(); s.Probes == 0 || s.ProbeFailures == 0 {
		t.Fatalf("probe counters not advancing: %+v", s)
	}
}

// TestViewProbeFailureStreak pins the prober's failure streak with
// FailAfter 3: a healthy member turns suspect on its first failed
// probe, and that transition restarts the streak, so it goes down on
// exactly the 4th consecutive failure. The injected probe hands each
// call to the test, and the prober is one goroutine, so when the
// (k+1)th probe arrives the transitions of the first k have been
// applied.
func TestViewProbeFailureStreak(t *testing.T) {
	probes := make(chan chan error)
	stop := make(chan struct{})
	v := NewView(ViewConfig{
		HeartbeatEvery: time.Millisecond,
		FailAfter:      3,
		Probe: func(string, time.Duration) error {
			reply := make(chan error)
			select {
			case probes <- reply:
			case <-stop:
				return nil
			}
			select {
			case err := <-reply:
				return err
			case <-stop:
				return nil
			}
		},
	})
	defer v.Close()
	defer close(stop)
	if err := v.Join("a", "addr-a", StateHealthy); err != nil {
		t.Fatal(err)
	}
	want := []State{StateHealthy, StateSuspect, StateSuspect, StateSuspect, StateDown}
	for failed, w := range want {
		var reply chan error
		select {
		case reply = <-probes:
		case <-time.After(5 * time.Second):
			t.Fatalf("no probe after %d failed probes", failed)
		}
		if got := v.Members()[0].State; got != w {
			t.Fatalf("after %d failed probes: state %v, want %v", failed, got, w)
		}
		reply <- errors.New("injected probe failure")
	}
	if v.Ring().Has("a") {
		t.Fatal("down node kept ring ownership")
	}
}

// TestViewNodeFailed: a client-reported failure marks only live states
// suspect and always counts a failover.
func TestViewNodeFailed(t *testing.T) {
	v := NewView(noProbe())
	defer v.Close()
	v.Join("a", "x", StateHealthy)
	v.NodeFailed("a")
	if st, _ := v.state("a"); st != StateSuspect {
		t.Fatalf("state %v, want suspect", st)
	}
	v.SetState("a", StateDraining)
	v.NodeFailed("a")
	if st, _ := v.state("a"); st != StateDraining {
		t.Fatalf("NodeFailed overrode draining: %v", st)
	}
	if v.Stats().Failovers != 2 {
		t.Fatalf("failovers %d, want 2", v.Stats().Failovers)
	}
}
