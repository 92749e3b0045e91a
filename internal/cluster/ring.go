package cluster

import (
	"sort"
)

// FlowHash maps a flow (src, dst) to its ring position. It is the same
// murmur3-style finalizer the gateway uses for shard selection, so a
// flow's placement is deterministic across processes and runs: the
// cluster ring decides which node owns the flow, and that node's
// gateway hash decides which shard inside it — both from the same key,
// neither ever disagreeing with itself.
func FlowHash(src, dst int) uint64 {
	return mix64(uint64(uint32(src))<<32 | uint64(uint32(dst)))
}

// mix64 is the splitmix64/murmur3 avalanche finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnv64a hashes a node id (FNV-1a), seeding its virtual-node points.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// pointHash places virtual node i of a node on the ring.
func pointHash(id string, i int) uint64 {
	return mix64(fnv64a(id) + uint64(i)*0x9e3779b97f4a7c15)
}

// ringPoint is one virtual node: a position and the node owning it.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over node ids with Vnodes virtual
// points per node. A flow maps to the node owning the first point at or
// after FlowHash(src, dst), wrapping around. Rings are immutable —
// NewRing and With build new ones — so lookups need no locking and a
// membership change publishes a fresh ring in the View's table.
//
// Consistent hashing gives the bounded-disruption property the cluster
// leans on: removing a node remaps only the flows that node owned (each
// to the next point on the ring, spread across the survivors), and
// adding a node steals only the flows that now hash to the new node's
// points. Every other flow keeps its owner, so codec dictionary state
// stays where it was learned.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by (hash, node)
	ids    []string    // member node ids, sorted
}

// NewRing builds a ring over ids with vnodes virtual points per node
// (vnodes < 1 selects DefaultVNodes).
func NewRing(vnodes int, ids []string) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes, ids: append([]string(nil), ids...)}
	sort.Strings(r.ids)
	r.points = make([]ringPoint, 0, vnodes*len(r.ids))
	for _, id := range r.ids {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(id, i), node: id})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Nodes returns the member node ids in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.ids...) }

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.ids) }

// Has reports whether id is on the ring.
func (r *Ring) Has(id string) bool {
	i := sort.SearchStrings(r.ids, id)
	return i < len(r.ids) && r.ids[i] == id
}

// With returns a ring with id added (r itself when already present).
func (r *Ring) With(id string) *Ring {
	if r.Has(id) {
		return r
	}
	return NewRing(r.vnodes, append(r.Nodes(), id))
}

// Lookup returns the node owning flow (src, dst), false on an empty
// ring.
func (r *Ring) Lookup(src, dst int) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.successor(FlowHash(src, dst))].node, true
}

// successor finds the first point index at or after h, wrapping.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Adjacent returns the node owning the ring arc next to id's first
// virtual point, skipping id's own points: on a ring without id it is
// the member whose flows a joining id would inherit (the warm-start
// donor); on a ring with id it is the successor that adopts id's arc
// when id leaves. False when no other node exists.
func (r *Ring) Adjacent(id string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	start := r.successor(pointHash(id, 0))
	for i := 0; i < len(r.points); i++ {
		if n := r.points[(start+i)%len(r.points)].node; n != id {
			return n, true
		}
	}
	return "", false
}

// Walk visits the distinct nodes responsible for flow (src, dst) in
// ring order — the owner first, then each successive failover
// candidate — until accept returns true (Walk then returns that node)
// or every node has been offered (Walk returns false). The order is
// deterministic for a given ring and flow, so independent clients agree
// on the replacement node for a failed owner.
func (r *Ring) Walk(src, dst int, accept func(id string) bool) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	start := r.successor(FlowHash(src, dst))
	seen := make([]string, 0, len(r.ids))
	for i := 0; i < len(r.points) && len(seen) < len(r.ids); i++ {
		id := r.points[(start+i)%len(r.points)].node
		if containsStr(seen, id) {
			continue
		}
		seen = append(seen, id)
		if accept(id) {
			return id, true
		}
	}
	return "", false
}

func containsStr(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
