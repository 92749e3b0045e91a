package cluster

import (
	"fmt"
	"testing"
)

// splitmix64 is the reference stateless PRNG driving the property
// tests' flow populations: deterministic, seedable, and independent of
// the ring's own mix64 finalizer input patterns.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomFlows draws n deterministic (src, dst) pairs over a 1024-wide
// endpoint space.
func randomFlows(seed uint64, n int) [][2]int {
	flows := make([][2]int, n)
	state := seed
	for i := range flows {
		v := splitmix64(&state)
		flows[i] = [2]int{int(v % 1024), int((v >> 32) % 1024)}
	}
	return flows
}

func ringNodes(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	return ids
}

// TestRingBoundedDisruptionOnRemove is the consistent-hashing contract
// the cluster leans on: removing a node remaps exactly the flows that
// node owned — every other flow keeps its owner — and the orphaned
// flows spread across the survivors rather than piling onto one.
func TestRingBoundedDisruptionOnRemove(t *testing.T) {
	const nodes, nflows = 8, 20000
	r := NewRing(0, ringNodes(nodes))
	flows := randomFlows(42, nflows)
	owner := make([]string, nflows)
	for i, f := range flows {
		id, ok := r.Lookup(f[0], f[1])
		if !ok {
			t.Fatalf("flow %v unroutable on full ring", f)
		}
		owner[i] = id
	}
	for _, gone := range []string{"n0", "n3", "n7"} {
		var rest []string
		for _, id := range r.Nodes() {
			if id != gone {
				rest = append(rest, id)
			}
		}
		shrunk := NewRing(0, rest)
		if shrunk.Len() != nodes-1 || shrunk.Has(gone) {
			t.Fatalf("ring without %s: got %v", gone, shrunk.Nodes())
		}
		moved, recipients := 0, make(map[string]int)
		for i, f := range flows {
			id, ok := shrunk.Lookup(f[0], f[1])
			if !ok {
				t.Fatalf("flow %v unroutable after removing %s", f, gone)
			}
			if owner[i] == gone {
				moved++
				recipients[id]++
				if id == gone {
					t.Fatalf("flow %v still maps to removed node %s", f, gone)
				}
			} else if id != owner[i] {
				t.Fatalf("flow %v moved %s -> %s though %s was removed (unbounded disruption)",
					f, owner[i], id, gone)
			}
		}
		if moved == 0 {
			t.Fatalf("node %s owned no flows out of %d", gone, nflows)
		}
		if len(recipients) < 2 {
			t.Fatalf("all %d flows from %s landed on one survivor %v", moved, gone, recipients)
		}
	}
}

// TestRingBoundedDisruptionOnAdd is the dual property: a new node
// steals some flows, and every flow that moves, moves to it.
func TestRingBoundedDisruptionOnAdd(t *testing.T) {
	const nodes, nflows = 7, 20000
	r := NewRing(0, ringNodes(nodes))
	flows := randomFlows(99, nflows)
	owner := make([]string, nflows)
	for i, f := range flows {
		owner[i], _ = r.Lookup(f[0], f[1])
	}
	grown := r.With("n7")
	if grown.Len() != nodes+1 {
		t.Fatalf("With: got %v", grown.Nodes())
	}
	stolen := 0
	for i, f := range flows {
		id, ok := grown.Lookup(f[0], f[1])
		if !ok {
			t.Fatalf("flow %v unroutable after add", f)
		}
		if id != owner[i] {
			if id != "n7" {
				t.Fatalf("flow %v moved %s -> %s on adding n7 (unbounded disruption)", f, owner[i], id)
			}
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("new node stole no flows")
	}
	// The new node's share should be in the ballpark of 1/(nodes+1);
	// accept a wide band, this is a balance smoke not a chi-square test.
	share := float64(stolen) / nflows
	if share < 0.03 || share > 0.35 {
		t.Fatalf("new node took %.1f%% of flows, want roughly 1/%d", 100*share, nodes+1)
	}
}

// TestRingBalance checks the virtual nodes spread a large flow
// population without any member starving or hoarding.
func TestRingBalance(t *testing.T) {
	const nodes, nflows = 8, 40000
	r := NewRing(0, ringNodes(nodes))
	counts := make(map[string]int)
	for _, f := range randomFlows(7, nflows) {
		id, _ := r.Lookup(f[0], f[1])
		counts[id]++
	}
	mean := float64(nflows) / nodes
	for _, id := range r.Nodes() {
		got := float64(counts[id])
		if got < 0.35*mean || got > 2.5*mean {
			t.Fatalf("node %s owns %d flows, mean %.0f: imbalance outside [0.35, 2.5]x (%v)",
				id, counts[id], mean, counts)
		}
	}
}

// TestRingDeterminism: same members, same flows, same answers —
// regardless of construction order — and immutability of the inputs.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(32, []string{"n0", "n1", "n2", "n3"})
	b := NewRing(32, []string{"n3", "n1", "n0", "n2"})
	for _, f := range randomFlows(5, 2000) {
		ia, oka := a.Lookup(f[0], f[1])
		ib, okb := b.Lookup(f[0], f[1])
		if ia != ib || oka != okb {
			t.Fatalf("flow %v: order-dependent lookup %s vs %s", f, ia, ib)
		}
	}
	if grown := a.With("n9"); !grown.Has("n9") || a.Has("n9") {
		t.Fatal("With mutated the receiver or lost the node")
	}
	if a.With("n1") != a {
		t.Fatal("With of an existing member should return the same ring")
	}
}

// TestRingWalkVisitsAllDistinct: the failover walk offers every member
// exactly once, owner first, in a deterministic order.
func TestRingWalkVisitsAllDistinct(t *testing.T) {
	r := NewRing(0, ringNodes(5))
	var first []string
	r.Walk(3, 4, func(id string) bool {
		first = append(first, id)
		return false
	})
	if len(first) != 5 {
		t.Fatalf("walk offered %d nodes, want 5: %v", len(first), first)
	}
	seen := make(map[string]bool)
	for _, id := range first {
		if seen[id] {
			t.Fatalf("walk repeated %s: %v", id, first)
		}
		seen[id] = true
	}
	owner, _ := r.Lookup(3, 4)
	if first[0] != owner {
		t.Fatalf("walk started at %s, owner is %s", first[0], owner)
	}
	var second []string
	r.Walk(3, 4, func(id string) bool {
		second = append(second, id)
		return false
	})
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("walk order not deterministic: %v vs %v", first, second)
		}
	}
	// Accepting mid-walk returns that node.
	got, ok := r.Walk(3, 4, func(id string) bool { return id == first[2] })
	if !ok || got != first[2] {
		t.Fatalf("walk accept: got %s %v, want %s", got, ok, first[2])
	}
}

// TestRingEmptyAndSingle covers the degenerate sizes.
func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(0, nil)
	if _, ok := empty.Lookup(1, 2); ok {
		t.Fatal("empty ring routed a flow")
	}
	if _, ok := empty.Walk(1, 2, func(string) bool { return true }); ok {
		t.Fatal("empty ring walked a flow")
	}
	one := NewRing(0, []string{"solo"})
	for _, f := range randomFlows(1, 100) {
		if id, ok := one.Lookup(f[0], f[1]); !ok || id != "solo" {
			t.Fatalf("single-node ring: got %s %v", id, ok)
		}
	}
}

// TestFlowHashMatchesGatewaySharding pins that a flow's hash only
// depends on (src, dst) — the cross-process placement contract.
func TestFlowHashMatchesGatewaySharding(t *testing.T) {
	if FlowHash(3, 4) != FlowHash(3, 4) {
		t.Fatal("FlowHash not deterministic")
	}
	if FlowHash(3, 4) == FlowHash(4, 3) {
		t.Fatal("FlowHash should distinguish direction")
	}
}
