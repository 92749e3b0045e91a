package qos

import (
	"fmt"
)

// This file is the control-loop test harness — the qos analogue of
// serve.LoadgenRig. Where the loadgen rig drives the real wire path,
// this rig drives the controller with *scripted* load so every control
// decision is reproducible and assertable: Trace builders script the
// load signal, Simulate replays one through a controller and records
// the threshold trajectory, and LoadSim closes the loop with a
// deterministic queue/server model in which service capacity grows
// with the threshold — the paper's quality-for-throughput trade,
// runnable in microseconds. The package's tests and BenchmarkQoS all
// drive the same rig.

// Trace is a scripted load signal, one observation per controller tick.
type Trace []float64

// StepTrace holds low for at ticks, then high for the rest of n — the
// canonical overload onset.
func StepTrace(low, high float64, at, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		if i < at {
			tr[i] = low
		} else {
			tr[i] = high
		}
	}
	return tr
}

// RampTrace climbs linearly from lo to hi over n ticks.
func RampTrace(lo, hi float64, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		if n > 1 {
			tr[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		} else {
			tr[i] = lo
		}
	}
	return tr
}

// SawtoothTrace climbs from lo to hi over period ticks, drops back to
// lo, and repeats for n ticks — load that builds and collapses.
func SawtoothTrace(lo, hi float64, period, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		phase := i % period
		tr[i] = lo + (hi-lo)*float64(phase)/float64(period-1)
	}
	return tr
}

// FlappingTrace alternates between high and low every tick for n ticks
// — the adversarial input for hysteresis: a controller without a
// cooldown would oscillate in lockstep with it.
func FlappingTrace(low, high float64, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		if i%2 == 0 {
			tr[i] = high
		} else {
			tr[i] = low
		}
	}
	return tr
}

// SimResult is one scripted replay through a controller.
type SimResult struct {
	// Thresholds is the threshold after each tick, len(trace) entries.
	Thresholds []int
	// Raises and Lowers count threshold moves; Reversals counts
	// direction changes (a lower following a raise or vice versa) — the
	// oscillation measure the hysteresis tests pin.
	Raises, Lowers, Reversals int
}

// Simulate replays a scripted load trace through a fresh controller and
// returns the threshold trajectory. Everything is deterministic: same
// config and trace, same result.
func Simulate(cfg ControllerConfig, trace Trace) (SimResult, error) {
	ctl, err := NewController(cfg)
	if err != nil {
		return SimResult{}, err
	}
	res := SimResult{Thresholds: make([]int, len(trace))}
	prev, lastDir := ctl.Threshold(), 0
	for i, load := range trace {
		t := ctl.Tick(load)
		res.Thresholds[i] = t
		switch {
		case t > prev:
			res.Raises++
			if lastDir < 0 {
				res.Reversals++
			}
			lastDir = 1
		case t < prev:
			res.Lowers++
			if lastDir > 0 {
				res.Reversals++
			}
			lastDir = -1
		}
		prev = t
	}
	return res, nil
}

// LoadSim is a deterministic queue/server model of a QoS-enabled
// gateway under scripted offered load. Each tick:
//
//  1. Arrivals[i] requests arrive; whatever the queue cannot hold is
//     rejected (the ErrOverloaded path).
//  2. The controller observes queue occupancy and ticks (unless
//     QoSOff).
//  3. The server completes up to rate(threshold) requests, where
//     rate grows GainPerPct per threshold point above baseline —
//     smaller encodings move through the fabric faster, the trade the
//     paper's Fig. 16 threshold sweep measures.
//
// After the trace the sim keeps ticking with zero arrivals until the
// queue drains, so completions are attributed even when the burst
// outlives the script.
type LoadSim struct {
	// Controller shapes the control loop.
	Controller ControllerConfig
	// QoSOff pins the threshold at the baseline — the ablation arm.
	QoSOff bool
	// QueueCap bounds the admission queue (0 means 1024).
	QueueCap int
	// BaseRate is requests served per tick at the baseline threshold
	// (0 means 100).
	BaseRate float64
	// GainPerPct is the fractional service-rate gain per threshold
	// point above baseline: rate = BaseRate * (1 + GainPerPct*(t-base)).
	// (0 means 0.1.)
	GainPerPct float64
	// Arrivals scripts the offered load, requests per tick.
	Arrivals Trace
}

// LoadSimResult is one LoadSim replay.
type LoadSimResult struct {
	// Offered = Completed + Rejected, always.
	Offered, Completed, Rejected int
	// PeakQueue is the deepest the queue got.
	PeakQueue int
	// Thresholds is the trajectory over the scripted ticks.
	Thresholds []int
	// GoodputFrac is Completed/Offered.
	GoodputFrac float64
	// MeanServedPct is the completion-weighted mean threshold — the
	// quality actually delivered (higher = more degraded).
	MeanServedPct float64
}

// Run replays the sim. Deterministic: no randomness, no wall clock.
func (s LoadSim) Run() (LoadSimResult, error) {
	if s.QueueCap == 0 {
		s.QueueCap = 1024
	}
	if s.BaseRate == 0 {
		s.BaseRate = 100
	}
	if s.GainPerPct == 0 {
		s.GainPerPct = 0.1
	}
	if s.QueueCap < 0 || s.BaseRate < 0 || s.GainPerPct < 0 {
		return LoadSimResult{}, fmt.Errorf("qos: load sim knobs must be non-negative: %+v", s)
	}
	ctl, err := NewController(s.Controller)
	if err != nil {
		return LoadSimResult{}, err
	}
	res := LoadSimResult{Thresholds: make([]int, 0, len(s.Arrivals))}
	queue, credit, pctSum := 0, 0.0, 0.0
	// Drain for at most 4x the scripted window so a misconfigured sim
	// (offered load far beyond even the raised capacity) terminates.
	maxTicks := 4 * len(s.Arrivals)
	for tick := 0; tick < maxTicks && (tick < len(s.Arrivals) || queue > 0); tick++ {
		if tick < len(s.Arrivals) {
			arr := int(s.Arrivals[tick])
			res.Offered += arr
			if room := s.QueueCap - queue; arr > room {
				res.Rejected += arr - room
				arr = room
			}
			queue += arr
		}
		if queue > res.PeakQueue {
			res.PeakQueue = queue
		}
		t := ctl.Threshold()
		if !s.QoSOff {
			t = ctl.Tick(float64(queue) / float64(s.QueueCap))
		}
		if tick < len(s.Arrivals) {
			res.Thresholds = append(res.Thresholds, t)
		}
		credit += s.BaseRate * (1 + s.GainPerPct*float64(t-ctl.Config().BaselinePct))
		serve := int(credit)
		credit -= float64(serve)
		if serve > queue {
			serve = queue // idle capacity does not bank
			credit = 0
		}
		queue -= serve
		res.Completed += serve
		pctSum += float64(serve) * float64(t)
	}
	// Whatever is still queued when the drain window closes never
	// completed.
	res.Rejected += queue
	if res.Offered > 0 {
		res.GoodputFrac = float64(res.Completed) / float64(res.Offered)
	}
	if res.Completed > 0 {
		res.MeanServedPct = pctSum / float64(res.Completed)
	}
	return res, nil
}
