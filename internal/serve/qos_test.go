// QoS behavior of the gateway: threshold resolution, priority
// shedding, budget enforcement, and the tenant on the wire. Internal tests
// — the shed test drives a shard worker by hand.
package serve

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/qos"
	"approxnoc/internal/value"
)

// TestEffectiveThreshold is the satellite regression table for the
// per-request override path: a QoS-raised default must never loosen an
// explicit demand, and the edge cases (negative, zero, beyond 100, the
// DefaultThreshold sentinel) resolve exactly as documented.
func TestEffectiveThreshold(t *testing.T) {
	for _, tc := range []struct {
		name               string
		reqPct, defaultPct int
		want               int
	}{
		{"sentinel picks default", DefaultThreshold, 10, 10},
		{"sentinel picks raised default", DefaultThreshold, 45, 45},
		{"sentinel clamps negative default", DefaultThreshold, -7, 0},
		{"sentinel clamps huge default", DefaultThreshold, 150, 100},
		{"exact wins over raised default", ThresholdExact, 45, 0},
		{"any negative means exact", -99, 45, 0},
		{"explicit tighter bound wins", 5, 45, 5},
		{"explicit looser bound honored", 80, 10, 80},
		{"explicit equals default", 10, 10, 10},
		{"beyond 100 passes through for the codec to reject", 500, 10, 500},
	} {
		if got := EffectiveThreshold(tc.reqPct, tc.defaultPct); got != tc.want {
			t.Errorf("%s: EffectiveThreshold(%d, %d) = %d, want %d",
				tc.name, tc.reqPct, tc.defaultPct, got, tc.want)
		}
	}
}

// nearBlock is a 16-word approximable block whose values cluster, so
// FP-VAXX approximates it aggressively once the threshold allows.
func nearBlock() *value.Block {
	return value.BlockFromI32([]int32{1000, 1001, 1002, 1003, 1000, 999, 1001, 1000,
		1002, 1000, 1001, 1003, 999, 1000, 1002, 1001}, true)
}

// tenWordBlock costs exactly 1.0 error mass at a 10% threshold
// (Cost(10, 10) = 1), keeping budget arithmetic exactly representable.
func tenWordBlock() *value.Block {
	return value.BlockFromI32([]int32{500, 501, 502, 500, 499, 501, 500, 502, 500, 501}, true)
}

// TestGatewayQoSThresholdControl closes the loop end to end: ticking
// the controller under load raises the default threshold actually
// served, explicit demands stay untouched, and calm ticks decay it
// back.
func TestGatewayQoSThresholdControl(t *testing.T) {
	gw, err := New(Config{
		Nodes: 4, Scheme: compress.FPVaxx, ThresholdPct: 0, Shards: 1,
		QoS: &qos.Config{Controller: qos.ControllerConfig{
			MaxPct: 20, StepPct: 20, RaiseAt: 0.5, LowerAt: 0.1, Cooldown: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	blk := nearBlock()

	// Idle: the default threshold is the exact baseline.
	res0, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk})
	if err != nil {
		t.Fatal(err)
	}
	if !res0.Block.Equal(blk) {
		t.Fatal("baseline default altered data")
	}

	// Load: one tick at full load raises the default to the 20% cap.
	gw.QoSController().Tick(1.0)
	if got := gw.QoSController().Threshold(); got != 20 {
		t.Fatalf("threshold after loaded tick: %d%%, want 20%%", got)
	}
	res20, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk})
	if err != nil {
		t.Fatal(err)
	}
	for w := range blk.Words {
		if e := value.RelError(blk.Words[w], res20.Block.Words[w], blk.DType); e > 0.20+1e-9 {
			t.Fatalf("word %d rel error %.4f exceeds the raised 20%% default", w, e)
		}
	}
	if res20.BitsOut > res0.BitsOut {
		t.Errorf("raised default encoded %d bits > baseline's %d", res20.BitsOut, res0.BitsOut)
	}

	// Explicit demands are never loosened by the raised default: exact
	// stays bit-identical, a 5% demand stays within 5%.
	resExact, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: ThresholdExact})
	if err != nil {
		t.Fatal(err)
	}
	if !resExact.Block.Equal(blk) {
		t.Fatal("exact-class request degraded while QoS threshold was raised")
	}
	res5, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: 5})
	if err != nil {
		t.Fatal(err)
	}
	for w := range blk.Words {
		if e := value.RelError(blk.Words[w], res5.Block.Words[w], blk.DType); e > 0.05+1e-9 {
			t.Fatalf("word %d rel error %.4f exceeds the explicit 5%% demand", w, e)
		}
	}

	// Calm: cooldown expires, then the threshold decays to baseline and
	// default requests are exact again.
	for i := 0; i < 3; i++ {
		gw.QoSController().Tick(0.0)
	}
	if got := gw.QoSController().Threshold(); got != 0 {
		t.Fatalf("threshold after calm ticks: %d%%, want baseline 0%%", got)
	}
	resBack, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk})
	if err != nil {
		t.Fatal(err)
	}
	if !resBack.Block.Equal(blk) {
		t.Fatal("default not exact again after decay to baseline")
	}
}

// TestGatewayQoSNeedsAdjustableScheme: threshold control on a scheme
// without a run-time threshold knob must fail loudly at construction,
// while a pinned controller (budgets only) is fine on any scheme.
func TestGatewayQoSNeedsAdjustableScheme(t *testing.T) {
	_, err := New(Config{Nodes: 2, Scheme: compress.DIVaxx, ThresholdPct: 5, QoS: &qos.Config{}})
	if !errors.Is(err, ErrThreshold) {
		t.Fatalf("DI-VAXX with a moving QoS controller: got %v, want ErrThreshold", err)
	}
	gw, err := New(Config{Nodes: 2, Scheme: compress.DIVaxx, ThresholdPct: 5, QoS: &qos.Config{
		Controller: qos.ControllerConfig{MaxPct: -1},
		Budgets:    map[string]qos.BudgetConfig{"gold": {Capacity: 100}},
	}})
	if err != nil {
		t.Fatalf("pinned controller on DI-VAXX: %v", err)
	}
	gw.Close()
}

// TestGatewayShedPolicy drives one shard with its worker held, so
// queue occupancy is exact: past the shed watermark approximatable
// submissions are refused while exact-class requests still land, until
// the queue is truly full.
func TestGatewayShedPolicy(t *testing.T) {
	gw, err := New(Config{
		Nodes: 2, Scheme: compress.FPVaxx, ThresholdPct: 10, Shards: 1,
		QueueDepth: 8, MaxBatch: 1,
		QoS: &qos.Config{ShedFraction: 0.5}, // shed watermark at 4 of 8
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	sh := gw.shards[0]

	// Park the worker inside a control function so nothing drains.
	release := make(chan struct{})
	sh.ctl <- func(*pool) { <-release }
	defer close(release)

	blk := nearBlock()
	// Below the watermark approximatable traffic is admitted.
	for i := 0; i < 4; i++ {
		if err := gw.Submit(Request{Src: 0, Dst: 1, Block: blk}, nil); err != nil {
			t.Fatalf("submit %d below watermark: %v", i, err)
		}
	}
	// At the watermark it sheds — the queue still has 4 free slots.
	if err := gw.Submit(Request{Src: 0, Dst: 1, Block: blk}, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("approximatable submit at watermark: got %v, want ErrOverloaded", err)
	}
	if got := sh.shed.Load(); got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}
	// Exact-class traffic keeps landing in the reserved slots.
	for i := 0; i < 4; i++ {
		if err := gw.Submit(Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: ThresholdExact}, nil); err != nil {
			t.Fatalf("exact submit %d into reserved slots: %v", i, err)
		}
	}
	// Only a truly full queue refuses exact-class requests.
	if err := gw.Submit(Request{Src: 0, Dst: 1, Block: blk, ThresholdPct: ThresholdExact}, nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exact submit on full queue: got %v, want ErrOverloaded", err)
	}
	if got := sh.shed.Load(); got != 1 {
		t.Fatalf("full-queue rejection counted as shed: %d", got)
	}
	m := gw.Metrics()
	if m.Accepted != 8 || m.Rejected != 2 || m.Shed != 1 {
		t.Fatalf("metrics accepted %d rejected %d shed %d, want 8/2/1", m.Accepted, m.Rejected, m.Shed)
	}
}

// TestGatewayBudgetEnforcement: a budgeted tenant spends exactly
// Cost(threshold, words) per approximated request, is refused with
// ErrBudgetExhausted once dry (never silently degraded), and can still
// send exact-class traffic for free.
func TestGatewayBudgetEnforcement(t *testing.T) {
	clock := qos.NewFakeClock(time.Unix(0, 0))
	gw, err := New(Config{
		Nodes: 4, Scheme: compress.FPVaxx, ThresholdPct: 10, Shards: 1,
		QoS: &qos.Config{
			Controller: qos.ControllerConfig{MaxPct: -1},
			Budgets:    map[string]qos.BudgetConfig{"gold": {Capacity: 3}},
			Clock:      clock,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	blk := tenWordBlock() // cost 1.0 at the 10% default

	for i := 0; i < 3; i++ {
		if _, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk, Tenant: "gold"}); err != nil {
			t.Fatalf("request %d within budget: %v", i, err)
		}
	}
	if _, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk, Tenant: "gold"}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("request beyond budget: got %v, want ErrBudgetExhausted", err)
	}
	// Exhausted tenants can always fall back to exact traffic.
	res, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk, Tenant: "gold", ThresholdPct: ThresholdExact})
	if err != nil {
		t.Fatalf("exact request from exhausted tenant: %v", err)
	}
	if !res.Block.Equal(blk) {
		t.Fatal("exact request from exhausted tenant altered data")
	}
	// Unbudgeted tenants are never refused.
	if _, err := gw.Do(Request{Src: 0, Dst: 1, Block: blk, Tenant: "anon"}); err != nil {
		t.Fatalf("unbudgeted tenant refused: %v", err)
	}
	snap := gw.Budgets()["gold"]
	if snap.Spent != 3 || snap.Level != 0 || snap.Rejects != 1 {
		t.Fatalf("gold ledger %+v, want spent 3 level 0 rejects 1", snap)
	}
	if m := gw.Metrics(); m.BudgetRejected != 1 {
		t.Fatalf("BudgetRejected %d, want 1", m.BudgetRejected)
	}
}

// TestGatewayBudgetRefundOnFailure: a request charged before execution
// is refunded when the transfer itself fails, so spent error mass sums
// only over blocks actually approximated.
func TestGatewayBudgetRefundOnFailure(t *testing.T) {
	gw, err := New(Config{
		Nodes: 4, Scheme: compress.FPVaxx, ThresholdPct: 10, Shards: 1,
		QoS: &qos.Config{
			Controller: qos.ControllerConfig{MaxPct: -1},
			Budgets:    map[string]qos.BudgetConfig{"gold": {Capacity: 100}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	// An explicit out-of-range threshold charges (eff 150, 10 words =
	// 15 mass), then fails inside the codec — the charge must unwind.
	_, err = gw.Do(Request{Src: 0, Dst: 1, Block: tenWordBlock(), Tenant: "gold", ThresholdPct: 150})
	if err == nil {
		t.Fatal("threshold 150 accepted")
	}
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("range failure misreported as budget exhaustion: %v", err)
	}
	snap := gw.Budgets()["gold"]
	if snap.Spent != 0 || snap.Level != 100 {
		t.Fatalf("ledger after failed transfer %+v, want spent 0 level 100 (refunded)", snap)
	}
}

// TestWireTenantFrames pins the one request layout: every request rides
// kind 3 with a length-prefixed tenant, a tenantless one carrying length
// zero and parsing back to an empty Tenant without allocating for it,
// and the budget status round-trips as ErrBudgetExhausted.
func TestWireTenantFrames(t *testing.T) {
	blk := value.BlockFromI32([]int32{1, -2, 3, 4}, true)

	bare, err := MarshalRequest(7, Request{Src: 1, Dst: 2, ThresholdPct: 10, Block: blk})
	if err != nil {
		t.Fatal(err)
	}
	gold, err := MarshalRequest(7, Request{Src: 1, Dst: 2, ThresholdPct: 10, Tenant: "gold", Block: blk})
	if err != nil {
		t.Fatal(err)
	}
	if bare[0] != msgRequest || gold[0] != msgRequest || bare[15] != 0 || gold[15] != 4 {
		t.Fatalf("kind/tenant-length bytes: tenantless %d/%d, tenant %d/%d, want %d/0 and %d/4",
			bare[0], bare[15], gold[0], gold[15], msgRequest, msgRequest)
	}
	if len(gold) != len(bare)+4 {
		t.Fatalf("tenant frame is %d bytes, tenantless %d: the layouts differ by more than the name", len(gold), len(bare))
	}
	for _, tc := range []struct {
		frame  []byte
		tenant string
	}{{bare, ""}, {gold, "gold"}} {
		id, req, err := parseRequest(tc.frame)
		if err != nil {
			t.Fatal(err)
		}
		if id != 7 || req.Tenant != tc.tenant || req.ThresholdPct != 10 || !req.Block.Equal(blk) {
			t.Fatalf("tenant %q round trip lost fields: id %d req %+v", tc.tenant, id, req)
		}
	}
	if !raceEnabled {
		// The tenant string is the only allocation the two parses differ by.
		allocs := func(frame []byte) float64 {
			return testing.AllocsPerRun(100, func() { parseRequest(frame) })
		}
		if a, b := allocs(bare), allocs(gold); a != b-1 {
			t.Fatalf("tenantless parse allocates %.0f times, tenant parse %.0f: an empty tenant must cost nothing", a, b)
		}
		// The server parses into reused storage and interns configured
		// tenant names, so a budgeted request's parse allocates nothing.
		var into value.Block
		tenants := map[string]string{"gold": "gold"}
		if a := testing.AllocsPerRun(100, func() { parseRequestInto(&into, gold, tenants) }); a != 0 {
			t.Fatalf("server parse of a configured tenant allocates %.0f times, want 0", a)
		}
	}

	// Tenant names beyond the one-byte length field are refused at
	// marshal time, not truncated.
	long := make([]byte, MaxTenantBytes+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := MarshalRequest(7, Request{Src: 1, Dst: 2, Tenant: string(long), Block: blk}); err == nil {
		t.Fatal("oversized tenant marshaled")
	}

	frame, err := MarshalResponse(Result{Tag: 9, Err: fmt.Errorf("wrapped: %w", ErrBudgetExhausted)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := parseResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != 9 || !errors.Is(res.Err, ErrBudgetExhausted) {
		t.Fatalf("budget status round trip: %+v", res)
	}
}

// TestServerClientTenantBudget runs budget enforcement across the TCP
// wire: the tenant rides the request frame out, the refusal rides the
// budget status back, and errors.Is still matches on the client side.
func TestServerClientTenantBudget(t *testing.T) {
	gw, err := New(Config{
		Nodes: 4, Scheme: compress.FPVaxx, ThresholdPct: 10, Shards: 1,
		QoS: &qos.Config{
			Controller: qos.ControllerConfig{MaxPct: -1},
			Budgets:    map[string]qos.BudgetConfig{"gold": {Capacity: 2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		gw.Close()
		<-serveErr
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blk := tenWordBlock()
	for i := 0; i < 2; i++ {
		if _, err := cl.Do(Request{Src: 0, Dst: 1, Block: blk, Tenant: "gold"}); err != nil {
			t.Fatalf("wire request %d within budget: %v", i, err)
		}
	}
	if _, err := cl.Do(Request{Src: 0, Dst: 1, Block: blk, Tenant: "gold"}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("wire request beyond budget: got %v, want ErrBudgetExhausted", err)
	}
	if snap := gw.Budgets()["gold"]; snap.Spent != 2 {
		t.Fatalf("gold spent %g over the wire, want exactly 2", snap.Spent)
	}
}
