// Package graph provides the SSCA2 substrate: a deterministic R-MAT
// small-world graph generator (SSCA2's own input model) and Brandes'
// betweenness centrality, the kernel the paper extends with approximate
// pair-wise dependencies (§5.1, §5.4).
package graph

import (
	"fmt"

	"approxnoc/internal/sim"
)

// Graph is a directed graph in compressed adjacency form.
type Graph struct {
	N   int
	adj [][]int32
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{N: n, adj: make([][]int32, n)}
}

// AddEdge inserts a directed edge u->v (parallel edges collapse).
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	for _, w := range g.adj[u] {
		if int(w) == v {
			return
		}
	}
	g.adj[u] = append(g.adj[u], int32(v))
}

// RMAT generates a scale-free graph with 2^scale vertices and roughly
// edgeFactor * 2^scale edges, using the (a,b,c,d) = (0.57,0.19,0.19,0.05)
// parameters SSCA2/Graph500 specify. Edges are made symmetric so BFS
// reaches most of the graph.
func RMAT(scale, edgeFactor int, seed uint64) (*Graph, error) {
	if scale < 1 || scale > 24 {
		return nil, fmt.Errorf("graph: scale %d outside [1,24]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graph: edge factor %d < 1", edgeFactor)
	}
	n := 1 << uint(scale)
	g := NewGraph(n)
	r := sim.NewRand(seed)
	const a, b, c = 0.57, 0.19, 0.19
	edges := edgeFactor * n
	for i := 0; i < edges; i++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			p := r.Float64()
			switch {
			case p < a:
				// stay in top-left quadrant
			case p < a+b:
				v |= 1 << uint(bit)
			case p < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		g.AddEdge(u, v)
		g.AddEdge(v, u)
	}
	return g, nil
}

// Betweenness computes exact betweenness centrality scores for every
// vertex with Brandes' algorithm, optionally restricted to a sampled set
// of source vertices (SSCA2 evaluates on a subset with sampling).
//
// The accumulate callback, when non-nil, intercepts each pair-wise
// dependency accumulation delta[v] += d — the quantity the paper
// approximates — allowing the caller to route it through an approximating
// store. It receives v and the increment and returns the value actually
// accumulated.
func Betweenness(g *Graph, sources []int, accumulate func(v int, d float64) float64) []float64 {
	bc := make([]float64, g.N)
	sigma := make([]float64, g.N)
	dist := make([]int32, g.N)
	delta := make([]float64, g.N)
	queue := make([]int32, 0, g.N)
	stack := make([]int32, 0, g.N)
	pred := make([][]int32, g.N)

	for _, s := range sources {
		if s < 0 || s >= g.N {
			continue
		}
		// Reset per-source state.
		for i := range sigma {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			pred[i] = pred[i][:0]
		}
		queue = queue[:0]
		stack = stack[:0]
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue, int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range g.adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					pred[w] = append(pred[w], v)
				}
			}
		}
		// Dependency accumulation in reverse BFS order.
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range pred[w] {
				d := sigma[v] / sigma[w] * (1 + delta[w])
				if accumulate != nil {
					d = accumulate(int(v), d)
				}
				delta[v] += d
			}
			if int(w) != s {
				bc[w] += delta[w]
			}
		}
	}
	return bc
}

// SampleSources returns k distinct vertices for sampled BC evaluation.
func SampleSources(g *Graph, k int, seed uint64) []int {
	if k >= g.N {
		out := make([]int, g.N)
		for i := range out {
			out[i] = i
		}
		return out
	}
	r := sim.NewRand(seed)
	perm := r.Perm(g.N)
	return perm[:k]
}
