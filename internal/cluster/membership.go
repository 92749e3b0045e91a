package cluster

import (
	"fmt"
	"sync/atomic"
)

// State is a member's position in the node lifecycle.
type State int32

const (
	// StateJoining marks a node admitted to the table but not yet
	// probed healthy; it takes ring ownership but is routed to only as
	// a last resort.
	StateJoining State = iota
	// StateHealthy marks a node passing heartbeats; the normal routing
	// target.
	StateHealthy
	// StateSuspect marks a node that failed a heartbeat or dropped a
	// client connection; it keeps its ring ownership (so a recovery
	// does not remap flows) but routing prefers healthy nodes.
	StateSuspect
	// StateDown marks a node past the failure threshold; it loses ring
	// ownership until it recovers.
	StateDown
	// StateDraining marks a node being retired gracefully: off the
	// ring, finishing in-flight work.
	StateDraining
	// StateLeft marks a retired node; kept in the table for the
	// generation history.
	StateLeft
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case StateJoining:
		return "joining"
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	case StateLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// inRing reports whether a member in this state owns ring points.
// Suspect nodes stay on the ring — suspicion is usually transient, and
// keeping ownership means a recovered node gets its flows (and their
// warmed dictionary state) back without a remap.
func (s State) inRing() bool {
	return s == StateJoining || s == StateHealthy || s == StateSuspect
}

// Member is one node's entry in the membership table.
type Member struct {
	// ID is the node identity (serve.Server.NodeID); Addr its dial
	// address.
	ID, Addr string
	// State is the lifecycle state.
	State State
	// Generation counts this member's state transitions, starting at 1
	// on join. A node that leaves and rejoins keeps incrementing — a
	// peer comparing generations can always tell which view is newer.
	Generation uint64
	// Requests counts client requests routed to this node through a
	// View.
	Requests uint64
}

// member is one version of a node's entry in a table. Every version of
// a member shares one requests counter, so counts survive republishing.
type member struct {
	addr     string
	state    State
	gen      uint64
	requests *atomic.Uint64
}

// table is one published version of the cluster's routing state: the
// members, the count of joins and state transitions applied so far, and
// the ring over the members whose state owns ring points. A table is
// never modified once published — writers copy it — so a reader that
// loads one sees members and ring in step.
type table struct {
	gen     uint64
	members map[string]member
	ring    *Ring
}
