// Package qos is the gateway's load-driven admission and quality
// controller. The paper's threshold-sensitivity results (Fig. 16) show
// approximation quality is a continuous knob: raising the VAXX error
// threshold buys compression — and with it serving capacity — at a
// bounded quality cost. This package turns that knob into an explicit
// quality-for-throughput control loop so an overloaded gateway degrades
// quality *before* it refuses work with ErrOverloaded.
//
// Three mechanisms compose:
//
//   - Controller: a deterministic hysteresis control loop over an
//     observed load signal (queue occupancy, batch latency). Each Tick
//     raises the effective default threshold one step when load sits at
//     or above the raise watermark, lowers it one step back toward the
//     baseline when load sits at or below the lower watermark and the
//     post-raise cooldown has expired, and holds otherwise. The current
//     threshold is a single atomic read, so shard workers consult it on
//     every request for free.
//
//   - Ledger: per-tenant error budgets. Every approximated request
//     spends relative-error mass — Cost(threshold, words) — from a
//     refillable token bucket; a tenant whose budget cannot cover the
//     request is refused with ErrBudgetExhausted instead of being
//     silently degraded. Exact requests cost nothing, so an exhausted
//     tenant can always fall back to exact traffic.
//
//   - Priority classes: requests forcing exact operation
//     (serve.ThresholdExact) are never degraded — the controller only
//     moves the *default* threshold, explicit demands always win — and
//     are the last to be shed: the gateway rejects approximatable
//     traffic early once a queue passes its shed watermark, keeping
//     the remaining slots for exact-class requests.
//
// Everything is deterministic when driven manually: the controller
// ticks on explicit calls, the ledger takes an injectable Clock, and
// the package's tests script load traces through a synthetic overload
// simulator (harness_test.go), so every control-loop decision is
// reproducible and assertable.
package qos

import (
	"errors"
	"sync"
	"time"
)

// ErrBudgetExhausted reports a request whose tenant cannot cover its
// error cost: the budget is spent faster than it refills. It is a
// definitive per-request answer — an immediate retry cannot change it,
// so load drivers settle it rather than re-issue. The caller may retry
// later (after refill) or resubmit the request in exact mode, which
// costs nothing.
var ErrBudgetExhausted = errors.New("qos: tenant error budget exhausted")

// Clock abstracts time for the ledger's refill accounting; tests
// substitute a FakeClock to make refill deterministic.
type Clock interface {
	Now() time.Time
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// RealClock is the wall-clock Clock production gateways use.
var RealClock Clock = realClock{}

// FakeClock is a manually advanced Clock for deterministic tests. It is
// safe for concurrent use.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock returns a fake clock starting at t.
func NewFakeClock(t time.Time) *FakeClock { return &FakeClock{t: t} }

// Now returns the fake clock's current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Config bundles the QoS knobs a gateway takes: the control loop, the
// tenant budgets, and the admission policy around them. The zero value
// of each field selects a sensible default; a nil *Config on the
// gateway disables QoS entirely.
type Config struct {
	// Controller shapes the threshold control loop.
	Controller ControllerConfig
	// Budgets assigns error budgets per tenant. Tenants without an
	// entry are unbudgeted (their approximate traffic is never refused
	// for budget reasons); an empty map disables the ledger.
	Budgets map[string]BudgetConfig
	// ShedFraction is the queue-occupancy watermark at or beyond which
	// approximatable (non-exact) submissions are rejected early with
	// ErrOverloaded, reserving the remaining slots for exact-class
	// traffic — degrade first, shed approximatable second, shed exact
	// last. 0 means 0.9; negative disables early shedding.
	ShedFraction float64
	// Interval is the background sampling period of the control loop:
	// every Interval the gateway observes its load signal and Ticks the
	// controller. 0 or negative starts no background loop — the
	// controller then only moves on explicit QoSTick calls, which is
	// what deterministic tests use.
	Interval time.Duration
	// Clock feeds the ledger's refill accounting (nil means RealClock).
	Clock Clock
}

// DefaultShedFraction is the queue-occupancy watermark used when
// Config.ShedFraction is zero.
const DefaultShedFraction = 0.9

// Cost is the error mass one approximated request may spend: the
// per-word relative-error bound (threshold percent) summed over the
// block's words, in units of "fully wrong words" — a 16-word block at
// a 25% threshold costs 4.0. Exact requests (threshold 0) cost nothing.
func Cost(thresholdPct, words int) float64 {
	if thresholdPct <= 0 || words <= 0 {
		return 0
	}
	return float64(thresholdPct) * float64(words) / 100
}
