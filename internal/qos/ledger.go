package qos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"approxnoc/internal/obs"
)

// BudgetConfig is one tenant's error budget: a token bucket of error
// mass (Cost units — "fully wrong words").
type BudgetConfig struct {
	// Capacity is the most error mass the tenant can bank; budgets
	// start full.
	Capacity float64
	// RefillPerSec restores error mass continuously up to Capacity.
	// Zero never refills: the budget is a one-shot allowance.
	RefillPerSec float64
}

// ParseBudgets parses approxnoc-serve's -budgets spec: comma-separated
// tenant=capacity[:refillPerSec] entries, e.g. "gold=1000:50,batch=250".
// Refill defaults to 0 (a one-shot allowance). An empty spec yields an
// empty (nil) map.
func ParseBudgets(spec string) (map[string]BudgetConfig, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]BudgetConfig)
	for _, entry := range strings.Split(spec, ",") {
		tenant, vals, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("qos: budget entry %q is not tenant=capacity[:refillPerSec]", entry)
		}
		if _, dup := out[tenant]; dup {
			return nil, fmt.Errorf("qos: tenant %q budgeted twice", tenant)
		}
		capStr, refillStr, hasRefill := strings.Cut(vals, ":")
		var cfg BudgetConfig
		var err error
		if cfg.Capacity, err = strconv.ParseFloat(capStr, 64); err != nil {
			return nil, fmt.Errorf("qos: tenant %q capacity %q: %w", tenant, capStr, err)
		}
		if hasRefill {
			if cfg.RefillPerSec, err = strconv.ParseFloat(refillStr, 64); err != nil {
				return nil, fmt.Errorf("qos: tenant %q refill %q: %w", tenant, refillStr, err)
			}
		}
		if cfg.Capacity < 0 || cfg.RefillPerSec < 0 {
			return nil, fmt.Errorf("qos: tenant %q budget must be non-negative: %+v", tenant, cfg)
		}
		out[tenant] = cfg
	}
	return out, nil
}

// ParseFlags assembles a gateway QoS configuration from approxnoc-serve's
// flags: -qos (on), -qos-max, the -threshold baseline, -qos-interval and
// the -budgets spec. It returns nil when QoS is off. Budgets without
// -qos are enforced with the threshold pinned at the baseline (no
// controller movement, so any scheme works).
func ParseFlags(on bool, maxPct, baselinePct int, interval time.Duration, budgetSpec string) (*Config, error) {
	if !on && budgetSpec == "" {
		return nil, nil
	}
	q := &Config{
		Controller: ControllerConfig{BaselinePct: baselinePct, MaxPct: maxPct},
		Interval:   interval,
	}
	if !on && maxPct == 0 {
		q.Controller.MaxPct = -1 // budgets only: pin the cap at the baseline
	}
	b, err := ParseBudgets(budgetSpec)
	if err != nil {
		return nil, err
	}
	q.Budgets = b
	return q, nil
}

// BudgetSnapshot is one tenant's ledger state at a point in time.
type BudgetSnapshot struct {
	// Level is the error mass currently available; Capacity its bound.
	Level, Capacity float64
	// Spent is the total error mass charged so far (refunds subtract).
	Spent float64
	// Rejects counts requests refused with ErrBudgetExhausted.
	Rejects uint64
}

// budget is one tenant's live bucket.
type budget struct {
	cfg     BudgetConfig
	level   float64
	last    time.Time // refill accounted up to here
	spent   float64
	rejects uint64
}

// refill banks elapsed refill up to capacity. Caller holds the ledger
// lock.
func (b *budget) refill(now time.Time) {
	if b.cfg.RefillPerSec > 0 {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.level += b.cfg.RefillPerSec * dt
			if b.level > b.cfg.Capacity {
				b.level = b.cfg.Capacity
			}
		}
	}
	b.last = now
}

// Ledger is the per-tenant error-budget book. Spend is the single
// enforcement point: it refills, checks, and charges atomically, so a
// budget level can never go negative and every admitted request is
// charged exactly once. Ledger is safe for concurrent use.
type Ledger struct {
	clock Clock

	mu      sync.Mutex
	tenants map[string]*budget
}

// NewLedger builds a ledger with every budget full. clock nil means
// RealClock.
func NewLedger(budgets map[string]BudgetConfig, clock Clock) (*Ledger, error) {
	if clock == nil {
		clock = RealClock
	}
	l := &Ledger{clock: clock, tenants: make(map[string]*budget, len(budgets))}
	now := clock.Now()
	for tenant, cfg := range budgets {
		if tenant == "" {
			return nil, fmt.Errorf("qos: budget tenant name must be non-empty")
		}
		if cfg.Capacity < 0 || cfg.RefillPerSec < 0 {
			return nil, fmt.Errorf("qos: tenant %q budget must be non-negative: %+v", tenant, cfg)
		}
		l.tenants[tenant] = &budget{cfg: cfg, level: cfg.Capacity, last: now}
	}
	return l, nil
}

// Spend charges cost error mass to the tenant, refilling first. It
// returns ErrBudgetExhausted — and charges nothing — when the budget
// cannot cover the whole cost: budgets never go negative and requests
// are never partially charged. Unknown tenants and non-positive costs
// are free.
func (l *Ledger) Spend(tenant string, cost float64) error {
	if cost <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.tenants[tenant]
	if !ok {
		return nil
	}
	b.refill(l.clock.Now())
	if b.level < cost {
		b.rejects++
		return fmt.Errorf("%w: tenant %q needs %.3g with %.3g available", ErrBudgetExhausted, tenant, cost, b.level)
	}
	b.level -= cost
	b.spent += cost
	return nil
}

// Refund returns cost error mass to the tenant — the undo for a charge
// whose request then failed before approximating anything. The level
// re-caps at capacity and the spent total decrements, so accounting
// still sums to the error mass actually admitted.
func (l *Ledger) Refund(tenant string, cost float64) {
	if cost <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.tenants[tenant]
	if !ok {
		return
	}
	b.refill(l.clock.Now())
	b.level += cost
	if b.level > b.cfg.Capacity {
		b.level = b.cfg.Capacity
	}
	b.spent -= cost
	if b.spent < 0 {
		b.spent = 0
	}
}

// Snapshot returns every tenant's state, refill applied to now.
func (l *Ledger) Snapshot() map[string]BudgetSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clock.Now()
	out := make(map[string]BudgetSnapshot, len(l.tenants))
	for tenant, b := range l.tenants {
		b.refill(now)
		out[tenant] = BudgetSnapshot{
			Level:    b.level,
			Capacity: b.cfg.Capacity,
			Spent:    b.spent,
			Rejects:  b.rejects,
		}
	}
	return out
}

// Tenant returns one tenant's snapshot (zero value when unbudgeted).
func (l *Ledger) Tenant(tenant string) BudgetSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.tenants[tenant]
	if !ok {
		return BudgetSnapshot{}
	}
	b.refill(l.clock.Now())
	return BudgetSnapshot{Level: b.level, Capacity: b.cfg.Capacity, Spent: b.spent, Rejects: b.rejects}
}

// RegisterMetrics exports the ledger on reg as qos_budget_* families
// labeled by tenant, sorted for a stable exposition order.
func (l *Ledger) RegisterMetrics(reg *obs.Registry) {
	collect := func(read func(BudgetSnapshot) float64) func() []obs.Sample {
		return func() []obs.Sample {
			snap := l.Snapshot()
			tenants := make([]string, 0, len(snap))
			for t := range snap {
				tenants = append(tenants, t)
			}
			sort.Strings(tenants)
			out := make([]obs.Sample, len(tenants))
			for i, t := range tenants {
				out[i] = obs.Sample{LabelValues: []string{t}, Value: read(snap[t])}
			}
			return out
		}
	}
	reg.Collector("qos_budget_level", "error mass currently available per tenant",
		obs.TypeGauge, []string{"tenant"}, collect(func(s BudgetSnapshot) float64 { return s.Level }))
	reg.Collector("qos_budget_capacity", "error-mass capacity per tenant",
		obs.TypeGauge, []string{"tenant"}, collect(func(s BudgetSnapshot) float64 { return s.Capacity }))
	reg.Collector("qos_budget_spent_total", "error mass charged per tenant",
		obs.TypeCounter, []string{"tenant"}, collect(func(s BudgetSnapshot) float64 { return s.Spent }))
	reg.Collector("qos_budget_rejects_total", "requests refused with ErrBudgetExhausted per tenant",
		obs.TypeCounter, []string{"tenant"}, collect(func(s BudgetSnapshot) float64 { return float64(s.Rejects) }))
}
