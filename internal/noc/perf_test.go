package noc

import (
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// TestStepZeroAllocs is the alloc-budget gate on the simulator hot path:
// once the flit pool, stage slices, and per-NI queues have warmed up, a
// control-packet steady state must drive Step without a single heap
// allocation: everything on the control path — flits, VC state, request
// masks, staging, credits — must recycle (TestDataPathSteadyAllocs holds
// the data path to the same zero). The
// spread burst flows freely; the converging one queues every source
// behind one ejection port, so the measured cycles arbitrate over full
// request masks, stalled credits and busy input ports.
func TestStepZeroAllocs(t *testing.T) {
	type pair struct{ src, dst int }
	var spread, converging []pair
	for i := 0; i < 24; i++ {
		spread = append(spread, pair{src: i, dst: (i + 9) % 32})
	}
	for round := 0; round < 10; round++ { // 310 flits through one port outlast the window
		for src := 1; src < 32; src++ {
			converging = append(converging, pair{src: src, dst: 0})
		}
	}
	for _, tc := range []struct {
		name      string
		pairs     []pair
		contended bool
	}{{"spread", spread, false}, {"converging", converging, true}} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := newBenchNet()
			if err != nil {
				t.Fatal(err)
			}
			burst := func() {
				for _, p := range tc.pairs {
					if _, err := n.SendControl(p.src, p.dst); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Warm up: identical bursts grow the flit pool, stage slices, NI
			// queues and per-source delivery queues to their steady-state sizes.
			for i := 0; i < 3; i++ {
				burst()
				if !n.Drain(100000) {
					t.Fatal("warmup burst did not drain")
				}
			}
			// Align just past a shrink boundary so the measured window cannot
			// contain a stage-slice reallocation.
			for n.Now()%stageShrinkInterval != 1 {
				n.Step()
			}
			burst()
			allocs := testing.AllocsPerRun(300, func() { n.Step() })
			if allocs != 0 {
				t.Fatalf("Step allocated %.1f times per cycle in control steady state, want 0", allocs)
			}
			if tc.contended && n.Quiescent() {
				t.Fatal("converging burst drained inside the measured window; it measured idle cycles")
			}
			if !n.Drain(100000) {
				t.Fatal("measured burst did not drain")
			}
		})
	}
}

// TestDataPathSteadyAllocs pins the data path from SendData to delivery:
// once the packet and flit pools are warm, a burst of data packets
// allocates nothing, under every scheme. The packet, its payload copy and
// its flits recycle, and delivery decodes into the network's one
// delivery block. Each pair sends one packet per burst, so no reorder
// state is made, and each pair resends its own block, so payload sizes
// repeat. A block holds at most nine distinct words, one more than a DI
// pattern table: the dictionaries settle during the warm-up with the odd
// word out left raw, its promotion blocked by hotter entries, so the
// measured bursts send no notification and no eviction makes an ack set.
func TestDataPathSteadyAllocs(t *testing.T) {
	m, _ := workload.ByName("ssca2")
	for _, scheme := range compress.AllSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			n := schemeNet(t, 4, 4, 2, scheme, 10)
			src := m.NewSource(21, 0.75)
			tiles := n.Topology().Tiles()
			blocks := make([]value.Block, tiles)
			burst := func() {
				for s := range blocks {
					if _, err := n.SendData(s, (s+11)%tiles, &blocks[s]); err != nil {
						t.Fatal(err)
					}
				}
				if !n.Drain(100000) {
					t.Fatal("burst did not drain")
				}
			}
			for s := range blocks {
				w := src.NextBlockInto(&blocks[s]).Words
				for i := range w {
					w[i] = w[i%9]
				}
			}
			for i := 0; i < 20; i++ {
				burst()
			}
			before, notifs := n.Stats().DataDelivered, n.Stats().NotifDelivered
			allocs := testing.AllocsPerRun(20, burst)
			perBurst := (n.Stats().DataDelivered - before) / 21 // AllocsPerRun adds one warm-up call
			if perBurst != uint64(tiles) {
				t.Fatalf("%d data packets delivered per burst, want %d", perBurst, tiles)
			}
			if sent := n.Stats().NotifDelivered - notifs; sent != 0 {
				t.Fatalf("%d notifications in the measured bursts: the dictionaries had not settled", sent)
			}
			if allocs != 0 {
				t.Fatalf("a burst of %d data packets allocated %.0f times, want 0", tiles, allocs)
			}
		})
	}
}

// TestStageSliceShrink pins the capacity-release contract: a saturating
// burst grows the staging slices well past stageMinCap, and after the
// burst drains the periodic shrink check hands the memory back instead
// of pinning peak capacity for the rest of a sweep.
func TestStageSliceShrink(t *testing.T) {
	n, err := newBenchNet()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := workload.ByName("ssca2")
	src := m.NewSource(5, 0.75)
	for round := 0; round < 12; round++ {
		for tile := 0; tile < 32; tile++ {
			dst := (tile + round + 1) % 32
			if dst == tile {
				continue
			}
			if _, err := n.SendData(tile, dst, src.NextBlock()); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
	}
	if !n.Drain(200000) {
		t.Fatal("burst did not drain")
	}
	grown := cap(n.flitStage)
	if grown <= stageMinCap {
		t.Fatalf("burst only grew flitStage to cap %d; raise the load so the shrink path is exercised", grown)
	}
	// Two full idle intervals: the first check may still see burst-era
	// peaks, the second sees peak 0 and must release down to the floor.
	n.Run(2 * stageShrinkInterval)
	if c := cap(n.flitStage); c > stageMinCap {
		t.Errorf("flitStage cap %d after idle intervals, want <= %d (was %d at peak)", c, stageMinCap, grown)
	}
	if c := cap(n.creditStage); c > stageMinCap {
		t.Errorf("creditStage cap %d after idle intervals, want <= %d", c, stageMinCap)
	}
	if c := cap(n.niCreditStage); c > stageMinCap {
		t.Errorf("niCreditStage cap %d after idle intervals, want <= %d", c, stageMinCap)
	}
}

// TestShrinkStaged covers the shrink policy itself.
func TestShrinkStaged(t *testing.T) {
	small := make([]stagedCredit, 0, stageMinCap)
	if got := shrinkStaged(small, 0); cap(got) != stageMinCap {
		t.Errorf("slice at the floor was reallocated to cap %d", cap(got))
	}
	busy := make([]stagedCredit, 0, 1024)
	if got := shrinkStaged(busy, 300); cap(got) != 1024 {
		t.Errorf("busy slice (peak*4 >= cap) was shrunk to cap %d", cap(got))
	}
	idle := make([]stagedCredit, 0, 1024)
	if got := shrinkStaged(idle, 10); cap(got) != stageMinCap {
		t.Errorf("idle slice shrunk to cap %d, want the %d floor", cap(got), stageMinCap)
	}
	warm := make([]stagedCredit, 0, 1024)
	if got := shrinkStaged(warm, 100); cap(got) != 200 {
		t.Errorf("warm slice shrunk to cap %d, want peak*2 = 200", cap(got))
	}
}
