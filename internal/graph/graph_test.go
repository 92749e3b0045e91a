package graph

import (
	"math"
	"reflect"
	"testing"
)

func TestAddEdgeDedup(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(0, 0) // self loop ignored
	if len(g.adj[0]) != 1 || g.adj[0][0] != 1 || len(g.adj[1])+len(g.adj[2]) != 0 {
		t.Fatalf("adjacency %v, want the single edge 0->1", g.adj)
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(0, 8, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := RMAT(30, 8, 1); err == nil {
		t.Fatal("oversized scale accepted")
	}
	if _, err := RMAT(4, 0, 1); err == nil {
		t.Fatal("zero edge factor accepted")
	}
}

func TestRMATShape(t *testing.T) {
	g, err := RMAT(8, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 256 {
		t.Fatalf("n = %d", g.N)
	}
	// Scale-free skew: max degree far above average degree.
	maxDeg, sum := 0, 0
	for v := 0; v < g.N; v++ {
		d := len(g.adj[v])
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	if sum < g.N { // collapsed duplicates still leave plenty
		t.Fatalf("only %d edges", sum)
	}
	avg := float64(sum) / float64(g.N)
	if float64(maxDeg) < 3*avg {
		t.Fatalf("max degree %d vs avg %.1f: no skew", maxDeg, avg)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a, _ := RMAT(6, 4, 9)
	b, _ := RMAT(6, 4, 9)
	if !reflect.DeepEqual(a.adj, b.adj) {
		t.Fatal("same seed produced different graphs")
	}
}

// Betweenness on a path graph 0-1-2-3-4 has a closed form: interior
// vertices are crossed by all pairs routing through them.
func TestBetweennessPathGraph(t *testing.T) {
	g := NewGraph(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
		g.AddEdge(i+1, i)
	}
	all := []int{0, 1, 2, 3, 4}
	bc := Betweenness(g, all, nil)
	// Directed BC on a path of n=5: vertex v is interior to pairs (s,t)
	// with s < v < t (both directions): counts 2*(v)*(4-v).
	want := []float64{0, 6, 8, 6, 0}
	for v := range bc {
		if math.Abs(bc[v]-want[v]) > 1e-9 {
			t.Fatalf("bc[%d] = %g, want %g (all %v)", v, bc[v], want[v], bc)
		}
	}
}

// Star graph: the hub lies on every pair's shortest path.
func TestBetweennessStar(t *testing.T) {
	g := NewGraph(5)
	for leaf := 1; leaf < 5; leaf++ {
		g.AddEdge(0, leaf)
		g.AddEdge(leaf, 0)
	}
	bc := Betweenness(g, []int{0, 1, 2, 3, 4}, nil)
	// Hub: (4 leaves choose ordered pairs) = 4*3 = 12.
	if math.Abs(bc[0]-12) > 1e-9 {
		t.Fatalf("hub bc %g, want 12", bc[0])
	}
	for v := 1; v < 5; v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf %d bc %g", v, bc[v])
		}
	}
}

func TestBetweennessAccumulateHook(t *testing.T) {
	g := NewGraph(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1)
		g.AddEdge(i+1, i)
	}
	calls := 0
	bc := Betweenness(g, []int{0, 1, 2, 3}, func(v int, d float64) float64 {
		calls++
		return d
	})
	ref := Betweenness(g, []int{0, 1, 2, 3}, nil)
	if calls == 0 {
		t.Fatal("hook never invoked")
	}
	for v := range bc {
		if math.Abs(bc[v]-ref[v]) > 1e-12 {
			t.Fatal("identity hook changed results")
		}
	}
}

func TestBetweennessHookPerturbation(t *testing.T) {
	g, _ := RMAT(7, 6, 3)
	src := SampleSources(g, 32, 5)
	ref := Betweenness(g, src, nil)
	noisy := Betweenness(g, src, func(v int, d float64) float64 { return d * 1.01 })
	grew := 0
	for v := range ref {
		if noisy[v] > ref[v] {
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("1% inflation had no effect on any score")
	}
}

func TestSampleSources(t *testing.T) {
	g, _ := RMAT(6, 4, 7)
	s := SampleSources(g, 10, 1)
	if len(s) != 10 {
		t.Fatalf("%d sources", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= g.N || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
	all := SampleSources(g, g.N+5, 1)
	if len(all) != g.N {
		t.Fatalf("oversample returned %d", len(all))
	}
}

func TestBetweennessIgnoresBadSources(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	bc := Betweenness(g, []int{-1, 99}, nil)
	for _, v := range bc {
		if v != 0 {
			t.Fatal("invalid sources contributed centrality")
		}
	}
}
