package qos

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func testLedger(t *testing.T, budgets map[string]BudgetConfig) (*Ledger, *FakeClock) {
	t.Helper()
	clock := NewFakeClock(time.Unix(1000, 0))
	l, err := NewLedger(budgets, clock)
	if err != nil {
		t.Fatal(err)
	}
	return l, clock
}

// TestLedgerSpendAndExhaust walks one tenant from a full budget to
// exhaustion: charges are exact, a refusal charges nothing, and the
// level never goes negative.
func TestLedgerSpendAndExhaust(t *testing.T) {
	l, _ := testLedger(t, map[string]BudgetConfig{"gold": {Capacity: 10}})
	if err := l.Spend("gold", 8); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("gold", 3); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overdraft allowed: %v", err)
	}
	snap := l.Tenant("gold")
	if snap.Level != 2 || snap.Spent != 8 || snap.Rejects != 1 {
		t.Errorf("after refused overdraft: %+v, want level 2 spent 8 rejects 1", snap)
	}
	// The remaining mass is still spendable down to exactly zero.
	if err := l.Spend("gold", 2); err != nil {
		t.Fatal(err)
	}
	if snap := l.Tenant("gold"); snap.Level != 0 || snap.Spent != 10 {
		t.Errorf("after draining: %+v, want level 0 spent 10", snap)
	}
}

// TestLedgerRefill verifies the token bucket against a fake clock:
// refill is proportional to elapsed time and caps at capacity.
func TestLedgerRefill(t *testing.T) {
	l, clock := testLedger(t, map[string]BudgetConfig{"gold": {Capacity: 10, RefillPerSec: 1}})
	if err := l.Spend("gold", 10); err != nil {
		t.Fatal(err)
	}
	if err := l.Spend("gold", 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("empty budget spent: %v", err)
	}
	clock.Advance(5 * time.Second)
	if got := l.Tenant("gold").Level; got != 5 {
		t.Errorf("level after 5s refill: %g, want 5", got)
	}
	if err := l.Spend("gold", 5); err != nil {
		t.Fatal(err)
	}
	// A long idle stretch re-fills to capacity, never beyond.
	clock.Advance(time.Hour)
	if got := l.Tenant("gold").Level; got != 10 {
		t.Errorf("level after 1h refill: %g, want capacity 10", got)
	}
}

// TestLedgerRefund verifies the undo path: a refund restores the level
// (capped) and decrements the spent total, so accounting sums to the
// error mass actually admitted.
func TestLedgerRefund(t *testing.T) {
	l, _ := testLedger(t, map[string]BudgetConfig{"gold": {Capacity: 10}})
	if err := l.Spend("gold", 6); err != nil {
		t.Fatal(err)
	}
	l.Refund("gold", 6)
	snap := l.Tenant("gold")
	if snap.Level != 10 || snap.Spent != 0 {
		t.Errorf("after spend+refund: %+v, want level 10 spent 0", snap)
	}
	// Refunds never push past capacity or below zero spent.
	l.Refund("gold", 99)
	if snap := l.Tenant("gold"); snap.Level != 10 || snap.Spent != 0 {
		t.Errorf("oversized refund: %+v, want level 10 spent 0", snap)
	}
}

// TestLedgerUnbudgetedAndFreeCosts: unknown tenants and non-positive
// costs are free — never charged, never refused.
func TestLedgerUnbudgetedAndFreeCosts(t *testing.T) {
	l, _ := testLedger(t, map[string]BudgetConfig{"gold": {Capacity: 1}})
	if err := l.Spend("anon", 1e9); err != nil {
		t.Errorf("unbudgeted tenant refused: %v", err)
	}
	if err := l.Spend("gold", 0); err != nil {
		t.Errorf("zero cost charged: %v", err)
	}
	if err := l.Spend("gold", -5); err != nil {
		t.Errorf("negative cost charged: %v", err)
	}
	if snap := l.Tenant("anon"); snap != (BudgetSnapshot{}) {
		t.Errorf("unbudgeted snapshot %+v, want zero", snap)
	}
}

// TestLedgerValidation rejects malformed budget maps.
func TestLedgerValidation(t *testing.T) {
	for _, bad := range []map[string]BudgetConfig{
		{"": {Capacity: 1}},
		{"x": {Capacity: -1}},
		{"x": {Capacity: 1, RefillPerSec: -1}},
	} {
		if _, err := NewLedger(bad, nil); err == nil {
			t.Errorf("budgets %+v accepted", bad)
		}
	}
}

// TestCost pins the error-mass formula and its degenerate inputs.
func TestCost(t *testing.T) {
	for _, tc := range []struct {
		pct, words int
		want       float64
	}{
		{25, 16, 4},
		{10, 10, 1},
		{100, 8, 8},
		{0, 16, 0},
		{-5, 16, 0},
		{10, 0, 0},
		{10, -3, 0},
	} {
		if got := Cost(tc.pct, tc.words); got != tc.want {
			t.Errorf("Cost(%d, %d) = %g, want %g", tc.pct, tc.words, got, tc.want)
		}
	}
}

// TestParseBudgets covers the CLI budget-spec grammar.
func TestParseBudgets(t *testing.T) {
	got, err := ParseBudgets("gold=1000:50, batch=250")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]BudgetConfig{
		"gold":  {Capacity: 1000, RefillPerSec: 50},
		"batch": {Capacity: 250},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if got, err := ParseBudgets(""); err != nil || got != nil {
		t.Errorf("empty spec: %v, %v", got, err)
	}
	for _, bad := range []string{"gold", "=5", "gold=abc", "gold=1:xyz", "gold=-1", "gold=1:-2", "gold=1,gold=2"} {
		if _, err := ParseBudgets(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
