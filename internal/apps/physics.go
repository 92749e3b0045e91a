package apps

import (
	"math"

	"approxnoc/internal/cachesim"
	"approxnoc/internal/sim"
)

// fluidanimate integrates a small smoothed-particle fluid: pairwise
// repulsion forces within a cutoff, gravity, and damped integration
// (the PARSEC fluidanimate structure). Particle state is approximable;
// the metric is the mean relative error of final particle positions.
func fluidanimate(sys *cachesim.System, seed uint64) ([]float64, error) {
	const n, steps = 160, 5 // particles, integration steps
	pos, err := sys.AllocF32(2*n, true)
	if err != nil {
		return nil, err
	}
	vel, err := sys.AllocF32(2*n, true)
	if err != nil {
		return nil, err
	}
	r := sim.NewRand(606 * seed)
	for i := 0; i < n; i++ {
		pos.Set(0, 2*i, 10+80*float32(r.Float64()))
		pos.Set(0, 2*i+1, 10+80*float32(r.Float64()))
		vel.Set(0, 2*i, float32(r.NormFloat64()))
		vel.Set(0, 2*i+1, float32(r.NormFloat64()))
	}
	const (
		cutoff = 8.0
		dt     = 0.05
		damp   = 0.98
	)
	for s := 0; s < steps; s++ {
		fx := make([]float64, n)
		fy := make([]float64, n)
		for i := 0; i < n; i++ {
			core := rotate(i+s, 16)
			xi := float64(pos.Get(core, 2*i))
			yi := float64(pos.Get(core, 2*i+1))
			for j := i + 1; j < n; j++ {
				xj := float64(pos.Get(core, 2*j))
				yj := float64(pos.Get(core, 2*j+1))
				dx, dy := xi-xj, yi-yj
				d2 := dx*dx + dy*dy
				if d2 > cutoff*cutoff || d2 == 0 {
					continue
				}
				d := math.Sqrt(d2)
				// Pressure-like repulsion falling off to the cutoff.
				mag := (cutoff - d) / d * 5
				fx[i] += mag * dx
				fy[i] += mag * dy
				fx[j] -= mag * dx
				fy[j] -= mag * dy
			}
			fy[i] -= 9.8 // gravity
		}
		for i := 0; i < n; i++ {
			core := rotate(i+s, 16)
			vx := (float64(vel.Get(core, 2*i)) + fx[i]*dt) * damp
			vy := (float64(vel.Get(core, 2*i+1)) + fy[i]*dt) * damp
			x := float64(pos.Get(core, 2*i)) + vx*dt
			y := float64(pos.Get(core, 2*i+1)) + vy*dt
			// Reflecting box walls.
			if x < 0 {
				x, vx = -x, -vx
			}
			if x > 100 {
				x, vx = 200-x, -vx
			}
			if y < 0 {
				y, vy = -y, -vy
			}
			if y > 100 {
				y, vy = 200-y, -vy
			}
			vel.Set(core, 2*i, float32(vx))
			vel.Set(core, 2*i+1, float32(vy))
			pos.Set(core, 2*i, float32(x))
			pos.Set(core, 2*i+1, float32(y))
		}
	}
	out := make([]float64, 2*n)
	for i := range out {
		out[i] = float64(pos.Get(0, i))
	}
	return out, nil
}

// canneal minimizes netlist routing cost by greedy element swaps over a
// synthetic netlist (the PARSEC canneal structure, with a deterministic
// cooling schedule). Element coordinates are approximable; the metric is
// the relative difference of the final routing cost.
func canneal(sys *cachesim.System, seed uint64) ([]float64, error) {
	const elements, nets, swaps = 256, 512, 3000
	const grid = 16 // elements arranged on a 16x16 grid of slots
	locX, err := sys.AllocI32(elements, true)
	if err != nil {
		return nil, err
	}
	locY, err := sys.AllocI32(elements, true)
	if err != nil {
		return nil, err
	}
	r := sim.NewRand(707 * seed)
	perm := r.Perm(elements)
	for e := 0; e < elements; e++ {
		locX.Set(0, e, int32(perm[e]%grid)*10)
		locY.Set(0, e, int32(perm[e]/grid)*10)
	}
	// Random two-pin nets.
	netsA := make([]int, nets)
	netsB := make([]int, nets)
	for i := range netsA {
		netsA[i] = r.Intn(elements)
		netsB[i] = r.Intn(elements)
	}
	elemCost := func(core, e int) float64 {
		cost := 0.0
		ex, ey := float64(locX.Get(core, e)), float64(locY.Get(core, e))
		for i := range netsA {
			var o int
			switch {
			case netsA[i] == e:
				o = netsB[i]
			case netsB[i] == e:
				o = netsA[i]
			default:
				continue
			}
			ox, oy := float64(locX.Get(core, o)), float64(locY.Get(core, o))
			cost += math.Abs(ex-ox) + math.Abs(ey-oy)
		}
		return cost
	}
	// Greedy annealing: swap two elements if total cost decreases.
	for s := 0; s < swaps; s++ {
		core := rotate(s, 16)
		a, b := r.Intn(elements), r.Intn(elements)
		if a == b {
			continue
		}
		before := elemCost(core, a) + elemCost(core, b)
		ax, ay := locX.Get(core, a), locY.Get(core, a)
		bx, by := locX.Get(core, b), locY.Get(core, b)
		locX.Set(core, a, bx)
		locY.Set(core, a, by)
		locX.Set(core, b, ax)
		locY.Set(core, b, ay)
		after := elemCost(core, a) + elemCost(core, b)
		if after >= before {
			// Revert.
			locX.Set(core, a, ax)
			locY.Set(core, a, ay)
			locX.Set(core, b, bx)
			locY.Set(core, b, by)
		}
	}
	total := 0.0
	for i := range netsA {
		ax, ay := float64(locX.Get(0, netsA[i])), float64(locY.Get(0, netsA[i]))
		bx, by := float64(locX.Get(0, netsB[i])), float64(locY.Get(0, netsB[i]))
		total += math.Abs(ax-bx) + math.Abs(ay-by)
	}
	return []float64{total}, nil
}

// streamcluster performs online k-median clustering: greedy farthest-point
// center selection followed by point assignment (the PARSEC streamcluster
// structure). Point coordinates are approximable. The paper singles this
// benchmark out for amplified error because approximate coordinates flip
// which points become centers and which cluster each point joins (§5.4);
// the kernel therefore exposes both the assignment vector and the cost,
// and its output metric, clusterErr, blends cost deviation with
// membership mismatch.
func streamcluster(sys *cachesim.System, seed uint64) ([]float64, error) {
	const points, dim, k = 512, 8, 12
	pts, err := sys.AllocF32(points*dim, true)
	if err != nil {
		return nil, err
	}
	r := sim.NewRand(808 * seed)
	for i := 0; i < points*dim; i++ {
		pts.Set(0, i, float32(100*r.Float64()))
	}
	dist2 := func(core, a, b int) float64 {
		d2 := 0.0
		for d := 0; d < dim; d++ {
			diff := float64(pts.Get(core, a*dim+d)) - float64(pts.Get(core, b*dim+d))
			d2 += diff * diff
		}
		return d2
	}
	// Farthest-point (2-approx k-center) center selection.
	centers := []int{0}
	minD := make([]float64, points)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	for len(centers) < k {
		last := centers[len(centers)-1]
		far, farD := -1, -1.0
		for p := 0; p < points; p++ {
			core := rotate(p+len(centers), 16)
			d := dist2(core, p, last)
			if d < minD[p] {
				minD[p] = d
			}
			if minD[p] > farD {
				farD, far = minD[p], p
			}
		}
		centers = append(centers, far)
	}
	// Assignment: output is the cost followed by each point's cluster id.
	out := make([]float64, 1, 1+points)
	for p := 0; p < points; p++ {
		core := rotate(p, 16)
		best, bestC := math.Inf(1), 0
		for ci, c := range centers {
			if d := dist2(core, p, c); d < best {
				best, bestC = d, ci
			}
		}
		out[0] += math.Sqrt(best)
		out = append(out, float64(bestC))
	}
	return out, nil
}

// clusterErr is streamcluster's output metric: the larger of the cost
// deviation (output 0) and the share of points assigned to a different
// cluster, the center-mismatch amplification §5.4 describes.
func clusterErr(ref, got []float64) float64 {
	costErr := math.Abs(ref[0]-got[0]) / math.Abs(ref[0])
	mismatch := 0.0
	for i := 1; i < len(ref); i++ {
		if ref[i] != got[i] {
			mismatch++
		}
	}
	return math.Max(costErr, mismatch/float64(len(ref)-1))
}
