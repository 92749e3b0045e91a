package apps

import (
	"math"

	"approxnoc/internal/cachesim"
	"approxnoc/internal/sim"
)

// cndf is the cumulative normal distribution (Abramowitz-Stegun), as used
// by the PARSEC kernel.
func cndf(x float64) float64 {
	neg := x < 0
	if neg {
		x = -x
	}
	k := 1 / (1 + 0.2316419*x)
	w := 1 - 1/math.Sqrt(2*math.Pi)*math.Exp(-x*x/2)*
		k*(0.319381530+k*(-0.356563782+k*(1.781477937+k*(-1.821255978+k*1.330274429))))
	if neg {
		return 1 - w
	}
	return w
}

func priceOption(spot, strike, rate, vol, t float64, call bool) float64 {
	d1 := (math.Log(spot/strike) + (rate+vol*vol/2)*t) / (vol * math.Sqrt(t))
	d2 := d1 - vol*math.Sqrt(t)
	if call {
		return spot*cndf(d1) - strike*math.Exp(-rate*t)*cndf(d2)
	}
	return strike*math.Exp(-rate*t)*cndf(-d2) - spot*cndf(-d1)
}

// blackscholes prices European options with the Black-Scholes closed form,
// PARSEC's blackscholes region of interest. Option parameters are the
// hand-annotated approximable data; the accuracy metric is the mean
// relative price error.
func blackscholes(sys *cachesim.System) ([]float64, error) {
	const n = 2048                         // options
	params, err := sys.AllocF32(5*n, true) // spot, strike, rate, vol, time
	if err != nil {
		return nil, err
	}
	r := sim.NewRand(101)
	for i := 0; i < n; i++ {
		params.Set(0, 5*i+0, 80+float32(r.Float64())*40)   // spot
		params.Set(0, 5*i+1, 80+float32(r.Float64())*40)   // strike
		params.Set(0, 5*i+2, 0.01+float32(r.Float64())*.1) // rate
		params.Set(0, 5*i+3, 0.1+float32(r.Float64())*.5)  // vol
		params.Set(0, 5*i+4, 0.25+float32(r.Float64())*2)  // expiry
	}
	out := make([]float64, n)
	cores := 16
	for i := 0; i < n; i++ {
		core := rotate(i, cores)
		s := float64(params.Get(core, 5*i+0))
		k := float64(params.Get(core, 5*i+1))
		rr := float64(params.Get(core, 5*i+2))
		v := float64(params.Get(core, 5*i+3))
		t := float64(params.Get(core, 5*i+4))
		out[i] = priceOption(s, k, rr, v, t, i%2 == 0)
	}
	return out, nil
}

// swaptions prices payer swaptions by Monte Carlo simulation over
// perturbed forward-rate curves (a simplified HJM, the PARSEC swaptions
// structure). The forward curve and volatility inputs are approximable.
func swaptions(sys *cachesim.System) ([]float64, error) {
	const count, paths, steps = 24, 120, 12
	// Shared approximable inputs: initial forward curve and vols.
	curve, err := sys.AllocF32(steps, true)
	if err != nil {
		return nil, err
	}
	vols, err := sys.AllocF32(steps, true)
	if err != nil {
		return nil, err
	}
	r := sim.NewRand(202)
	for i := 0; i < steps; i++ {
		curve.Set(0, i, 0.02+0.002*float32(i)+float32(r.Float64())*0.005)
		vols.Set(0, i, 0.008+float32(r.Float64())*0.004)
	}
	out := make([]float64, count)
	for sw := 0; sw < count; sw++ {
		strike := 0.02 + 0.002*float64(sw%8)
		mc := sim.NewRand(uint64(300 + sw))
		sum := 0.0
		core := rotate(sw, 16)
		for p := 0; p < paths; p++ {
			// Evolve the short rate along the curve with lognormal shocks.
			rate := float64(curve.Get(core, 0))
			df := 1.0
			swapValue := 0.0
			for t := 1; t < steps; t++ {
				drift := float64(curve.Get(core, t)) - float64(curve.Get(core, t-1))
				vol := float64(vols.Get(core, t))
				rate += drift + vol*mc.NormFloat64()
				if rate < 0.0001 {
					rate = 0.0001
				}
				df /= 1 + rate
				swapValue += df * (rate - strike)
			}
			if swapValue > 0 {
				sum += swapValue
			}
		}
		out[sw] = sum / float64(paths)
	}
	return out, nil
}
