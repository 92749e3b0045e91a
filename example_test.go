package approxnoc_test

import (
	"errors"
	"fmt"

	"approxnoc"
)

// ExampleNewSimulator runs a block across the paper's default network and
// reports that it arrived bit exact (non-approximable data is never
// altered, whatever the scheme).
func ExampleNewSimulator() {
	sim, err := approxnoc.NewSimulator(approxnoc.DefaultOptions(approxnoc.FPVaxx, 10))
	if err != nil {
		panic(err)
	}
	blk := approxnoc.NewIntBlock([]int32{1, 2, 3, 4}, false)
	var delivered *approxnoc.Block
	sim.OnDeliver(func(src, dst int, b *approxnoc.Block) {
		if b != nil {
			delivered = b
		}
	})
	if err := sim.SendData(0, 31, blk); err != nil {
		panic(err)
	}
	sim.Drain(10_000)
	fmt.Println("intact:", delivered.Equal(blk))
	// Output: intact: true
}

// ExampleNewChannel shows the standalone encode/decode pipeline: an
// approximable value within the threshold of a learned reference decodes
// to something close, never further off than the threshold.
func ExampleNewChannel() {
	ch, err := approxnoc.NewChannel(2, approxnoc.FPVaxx, 10)
	if err != nil {
		panic(err)
	}
	// A large value with low-halfword noise: the approximate match wipes
	// the noise and hits the half-padded frequent pattern.
	in := approxnoc.NewIntBlock([]int32{0x12340007}, true)
	out := ch.Transfer(0, 1, in)
	fmt.Printf("%#x -> %#x\n", in.Words[0], out.Words[0])
	// Output: 0x12340007 -> 0x12340000
}

// ExampleParseScheme round-trips a scheme name.
func ExampleParseScheme() {
	s, _ := approxnoc.ParseScheme("DI-VAXX")
	fmt.Println(s)
	// Output: DI-VAXX
}

// ExampleNewGateway walks through per-tenant error budgets on the QoS
// gateway. Each tenant owns a budget of error mass, Cost(threshold%,
// words) = threshold × words / 100 (fully-wrong-word equivalents),
// charged per approximated request. An exhausted tenant is refused with
// ErrBudgetExhausted rather than served a worse answer, and can always
// fall back to exact-class traffic for free. Under overload the QoS
// controller raises the default threshold, so default-mode requests
// spend more mass per block: quality traded for throughput in the same
// currency.
func ExampleNewGateway() {
	cfg := approxnoc.DefaultGatewayConfig(approxnoc.FPVaxx, 0)
	cfg.QoS = &approxnoc.QoSConfig{
		Controller: approxnoc.QoSControllerConfig{
			MaxPct: 25, StepPct: 25, RaiseAt: 0.5, LowerAt: 0.1,
		},
		Budgets: map[string]approxnoc.TenantBudget{
			"gold":  {Capacity: 8}, // 8 fully-wrong words of mass
			"batch": {Capacity: 3},
			"surge": {Capacity: 5},
			// RefillPerSec would make these token buckets; left 0 here so
			// the run is deterministic.
		},
	}
	gw, err := approxnoc.NewGateway(cfg)
	if err != nil {
		panic(err)
	}
	defer gw.Close()

	// A 10-word block costs exactly 1.0 mass at a 10% threshold.
	block := func() *approxnoc.Block {
		return approxnoc.NewIntBlock([]int32{500, 501, 502, 500, 499, 501, 500, 502, 500, 501}, true)
	}
	// send serves n requests and counts how many the budget refused.
	send := func(n int, req approxnoc.ServeRequest) (served, refused int) {
		for i := 0; i < n; i++ {
			req.Block = block()
			_, err := gw.Do(req)
			switch {
			case err == nil:
				served++
			case errors.Is(err, approxnoc.ErrBudgetExhausted):
				refused++
			default:
				panic(err)
			}
		}
		return served, refused
	}

	fmt.Println("Per-tenant error budgets on the QoS gateway (FP-VAXX, cost = threshold% x words / 100)")
	fmt.Println("\n[1] explicit 10% demands: 10-word blocks cost 1.0 each")
	for _, tenant := range []string{"gold", "batch"} {
		served, refused := send(10, approxnoc.ServeRequest{Src: 0, Dst: 1, ThresholdPct: 10, Tenant: tenant})
		snap := gw.Budgets()[tenant]
		fmt.Printf("    %-6s %d served, %d refused   spent %.1f of %.1f\n",
			tenant, served, refused, snap.Spent, snap.Capacity)
	}

	fmt.Println("\n[2] exhausted tenants fall back to exact-class traffic: free, never degraded")
	in := block()
	res, err := gw.Do(approxnoc.ServeRequest{
		Src: 0, Dst: 1, Block: in, ThresholdPct: approxnoc.ExactThreshold, Tenant: "batch",
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("    batch exact transfer: bit-identical %v, spent still %.1f\n",
		res.Block.Equal(in), gw.Budgets()["batch"].Spent)

	fmt.Println("\n[3] overload: QoS raises the default threshold, so default-mode spending scales with it")
	fmt.Printf("    default threshold before: %d%%\n", gw.QoSController().Threshold())
	gw.QoSController().Tick(1.0) // one control step at full load (the sampler does this on a timer)
	fmt.Printf("    default threshold under load: %d%% -> a 10-word default request now costs 2.5\n",
		gw.QoSController().Threshold())
	served, refused := send(3, approxnoc.ServeRequest{Src: 0, Dst: 1, Tenant: "surge"})
	snap := gw.Budgets()["surge"]
	fmt.Printf("    surge: %d served, %d refused   spent %.1f of %.1f\n",
		served, refused, snap.Spent, snap.Capacity)
	for i := 0; i < 4; i++ {
		gw.QoSController().Tick(0) // calm: cooldown expires, threshold decays
	}
	fmt.Printf("    default threshold after the load clears: %d%% (exact again)\n", gw.QoSController().Threshold())
	// Output:
	// Per-tenant error budgets on the QoS gateway (FP-VAXX, cost = threshold% x words / 100)
	//
	// [1] explicit 10% demands: 10-word blocks cost 1.0 each
	//     gold   8 served, 2 refused   spent 8.0 of 8.0
	//     batch  3 served, 7 refused   spent 3.0 of 3.0
	//
	// [2] exhausted tenants fall back to exact-class traffic: free, never degraded
	//     batch exact transfer: bit-identical true, spent still 3.0
	//
	// [3] overload: QoS raises the default threshold, so default-mode spending scales with it
	//     default threshold before: 0%
	//     default threshold under load: 25% -> a 10-word default request now costs 2.5
	//     surge: 2 served, 1 refused   spent 5.0 of 5.0
	//     default threshold after the load clears: 0% (exact again)
}
