package apps

import (
	"approxnoc/internal/cachesim"
	"approxnoc/internal/graph"
)

// ssca2 computes betweenness centrality over an R-MAT small-world graph
// (SSCA2 kernel 4) with sampled sources. The floating-point pair-wise
// dependency accumulations — exactly what the paper annotates (§5.1) —
// are exchanged between cores through approximable memory, so they pick
// up transfer approximation. The metric is the mean pair-wise difference
// of the betweenness scores (§5.4).
func ssca2(sys *cachesim.System, seed uint64) ([]float64, error) {
	const scale, edgeFactor, sources = 7, 6, 24
	g, err := graph.RMAT(scale, edgeFactor, 909*seed)
	if err != nil {
		return nil, err
	}
	// The dependency exchange buffer is the annotated approximable region.
	deps, err := sys.AllocF32(g.N, true)
	if err != nil {
		return nil, err
	}
	srcs := graph.SampleSources(g, sources, 910*seed)
	i := 0
	bc := graph.Betweenness(g, srcs, func(v int, d float64) float64 {
		// The producing core writes the pair-wise dependency; a different
		// core reads it back for accumulation, crossing the channel.
		producer := rotate(v, 16)
		consumer := rotate(v+1+i, 16)
		i++
		deps.Set(producer, v, float32(d))
		return float64(deps.Get(consumer, v))
	})
	return bc, nil
}
