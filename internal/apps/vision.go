package apps

import (
	"math"

	"approxnoc/internal/cachesim"
	"approxnoc/internal/compress"
	"approxnoc/internal/sim"
)

// bodytrack estimates a body pose from noisy joint observations with a
// particle filter (the PARSEC bodytrack structure): particles are candidate
// poses, weighted by likelihood against the observations; the output pose
// is the weighted mean. Observations and particle state are approximable.
// The metric is the mean joint-position difference of the estimated pose —
// the quantity behind the paper's Fig. 17 comparison (§5.4 reports 2.4% at
// a 10% threshold).
func bodytrack(sys *cachesim.System, seed uint64) ([]float64, error) {
	const joints, particles, frames = 16, 64, 6
	const dims = 2 * joints
	obs, err := sys.AllocF32(frames*dims, true)
	if err != nil {
		return nil, err
	}
	parts, err := sys.AllocF32(particles*dims, true)
	if err != nil {
		return nil, err
	}
	r := sim.NewRand(404 * seed)
	// Ground-truth pose trajectory: joints drift smoothly.
	truth := make([]float64, dims)
	for j := range truth {
		truth[j] = 50 + 40*r.Float64()
	}
	// Initialize particles around an offset guess.
	for p := 0; p < particles; p++ {
		for j := 0; j < dims; j++ {
			parts.Set(0, p*dims+j, float32(truth[j]+6*r.NormFloat64()))
		}
	}
	est := make([]float64, frames*dims)
	for f := 0; f < frames; f++ {
		for j := 0; j < dims; j++ {
			truth[j] += 1.5 * r.NormFloat64()
			obs.Set(0, f*dims+j, float32(truth[j]+1.0*r.NormFloat64()))
		}
		// Weight particles by likelihood and form the weighted mean pose.
		weights := make([]float64, particles)
		wsum := 0.0
		for p := 0; p < particles; p++ {
			core := rotate(p, 16)
			d2 := 0.0
			for j := 0; j < dims; j++ {
				d := float64(parts.Get(core, p*dims+j)) - float64(obs.Get(core, f*dims+j))
				d2 += d * d
			}
			weights[p] = math.Exp(-d2 / (2 * 25 * float64(dims)))
			wsum += weights[p]
		}
		if wsum == 0 {
			wsum = 1
		}
		for j := 0; j < dims; j++ {
			mean := 0.0
			for p := 0; p < particles; p++ {
				core := rotate(p+j, 16)
				mean += weights[p] / wsum * float64(parts.Get(core, p*dims+j))
			}
			est[f*dims+j] = mean
		}
		// Diffuse particles toward the estimate for the next frame.
		for p := 0; p < particles; p++ {
			core := rotate(p, 16)
			for j := 0; j < dims; j++ {
				nv := 0.5*float64(parts.Get(core, p*dims+j)) + 0.5*est[f*dims+j] + 2*r.NormFloat64()
				parts.Set(core, p*dims+j, float32(nv))
			}
		}
	}
	return est, nil
}

// x264 encodes a frame against a reference with block motion search and
// quantized residuals (the x264 region of interest). Pixels are
// approximable integer data; the metric is the mean pixel error of the
// reconstructed frame relative to the precise pipeline's reconstruction.
func x264(sys *cachesim.System, seed uint64) ([]float64, error) {
	const width, height, bs, searchRange, quant = 64, 64, 8, 4, 8
	const n = width * height
	refFrame, err := sys.AllocI32(n, true)
	if err != nil {
		return nil, err
	}
	curFrame, err := sys.AllocI32(n, true)
	if err != nil {
		return nil, err
	}
	r := sim.NewRand(505 * seed)
	// Reference frame: smooth gradient plus texture. Current frame: the
	// reference shifted by (2,1) with noise — a global pan.
	px := func(xx, yy int) int32 {
		v := 16*xx + 8*yy + int(64*math.Sin(float64(xx)/7)*math.Cos(float64(yy)/9))
		return int32(128 + v%1024)
	}
	for yy := 0; yy < height; yy++ {
		for xx := 0; xx < width; xx++ {
			refFrame.Set(0, yy*width+xx, px(xx, yy))
			curFrame.Set(0, yy*width+xx, px(xx+2, yy+1)+int32(r.Intn(5)-2))
		}
	}
	recon := make([]float64, n)
	blockIdx := 0
	for by := 0; by < height; by += bs {
		for bx := 0; bx < width; bx += bs {
			core := rotate(blockIdx, 16)
			blockIdx++
			// Motion search: best SAD over the search window.
			bestSAD := int64(math.MaxInt64)
			bestDX, bestDY := 0, 0
			for dy := -searchRange; dy <= searchRange; dy++ {
				for dx := -searchRange; dx <= searchRange; dx++ {
					var sad int64
					for yy := 0; yy < bs; yy++ {
						for xx := 0; xx < bs; xx++ {
							cx, cy := bx+xx, by+yy
							rx, ry := cx+dx, cy+dy
							if rx < 0 || ry < 0 || rx >= width || ry >= height {
								sad += 255
								continue
							}
							d := int64(curFrame.Get(core, cy*width+cx)) - int64(refFrame.Get(core, ry*width+rx))
							if d < 0 {
								d = -d
							}
							sad += d
						}
					}
					if sad < bestSAD {
						bestSAD, bestDX, bestDY = sad, dx, dy
					}
				}
			}
			// Quantized residual + reconstruction.
			for yy := 0; yy < bs; yy++ {
				for xx := 0; xx < bs; xx++ {
					cx, cy := bx+xx, by+yy
					rx, ry := cx+bestDX, cy+bestDY
					var pred int32
					if rx >= 0 && ry >= 0 && rx < width && ry < height {
						pred = refFrame.Get(core, ry*width+rx)
					}
					residual := curFrame.Get(core, cy*width+cx) - pred
					q := (residual / quant) * quant
					recon[cy*width+cx] = float64(pred + q)
				}
			}
		}
	}
	return recon, nil
}

// PSNR computes the peak signal-to-noise ratio between two frames in dB —
// the numeric stand-in for the paper's Fig. 17 visual comparison.
func PSNR(ref, got []float64, peak float64) float64 {
	if len(ref) == 0 || len(ref) != len(got) {
		return math.NaN()
	}
	mse := 0.0
	for i := range ref {
		d := ref[i] - got[i]
		mse += d * d
	}
	mse /= float64(len(ref))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(peak*peak/mse)
}

// BodytrackOutputs runs the bodytrack kernel precise and approximate and
// returns both pose trajectories plus their PSNR — the Fig. 17 artifact.
func BodytrackOutputs(scheme compress.Scheme, thresholdPct int) (ref, approx []float64, psnr float64, err error) {
	kernel := App{kernel: bodytrack}.Kernel(1)
	if ref, _, _, err = run(kernel, compress.Baseline, 0); err != nil {
		return nil, nil, 0, err
	}
	if approx, _, _, err = run(kernel, scheme, thresholdPct); err != nil {
		return nil, nil, 0, err
	}
	peak := 0.0
	for _, v := range ref {
		if math.Abs(v) > peak {
			peak = math.Abs(v)
		}
	}
	return ref, approx, PSNR(ref, approx, peak), nil
}
