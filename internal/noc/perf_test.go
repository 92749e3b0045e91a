package noc

import (
	"testing"

	"approxnoc/internal/compress"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// TestStepZeroAllocs is the alloc-budget gate on the simulator hot path:
// once the packet slabs and per-NI queues have warmed up, a
// control-packet steady state must drive Step without a single heap
// allocation: everything on the control path — packets, VC state, request
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
			// Warm up: identical bursts grow the packet slabs, NI queues and
			// per-source delivery queues to their steady-state sizes.
			for i := 0; i < 3; i++ {
				burst()
				if !n.Drain(100000) {
					t.Fatal("warmup burst did not drain")
				}
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
// once the packet pool is warm, a burst of data packets allocates
// nothing, under every scheme. The packet and its payload copy recycle,
// its flits are plain words, and delivery decodes into the network's one
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

// TestStageSlicesNeverGrow pins the staging bound New sizes the slices
// by: a cycle stages at most one flit per router output port or NI and
// one credit per input port, Routers()*Ports() in all. A saturating burst
// of data and control packets from every tile must never grow a slice
// past that preallocated capacity, while still staging some of each.
func TestStageSlicesNeverGrow(t *testing.T) {
	n, err := newBenchNet()
	if err != nil {
		t.Fatal(err)
	}
	bound := n.topo.Routers() * n.topo.Ports()
	m, _ := workload.ByName("ssca2")
	src := m.NewSource(5, 0.75)
	var flitPeak, creditPeak, niCreditPeak int
	step := func() {
		n.Step()
		flitPeak = max(flitPeak, len(n.flitStage))
		creditPeak = max(creditPeak, len(n.creditStage))
		niCreditPeak = max(niCreditPeak, len(n.niCreditStage))
		if cap(n.flitStage) != bound || cap(n.creditStage) != bound || cap(n.niCreditStage) != bound {
			t.Fatalf("cycle %d: stage capacities %d/%d/%d, want all %d",
				n.Now(), cap(n.flitStage), cap(n.creditStage), cap(n.niCreditStage), bound)
		}
	}
	for round := 0; round < 24; round++ {
		for tile := 0; tile < 32; tile++ {
			dst := (tile + round + 1) % 32
			if dst == tile {
				continue
			}
			if round%2 == 0 {
				_, err = n.SendData(tile, dst, src.NextBlock())
			} else {
				_, err = n.SendControl(tile, dst)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		step()
	}
	for i := 0; i < 200000 && !n.Quiescent(); i++ {
		step()
	}
	if !n.Quiescent() {
		t.Fatal("burst did not drain")
	}
	if flitPeak == 0 || creditPeak == 0 || niCreditPeak == 0 {
		t.Fatalf("peaks %d/%d/%d: the burst staged nothing on some slice", flitPeak, creditPeak, niCreditPeak)
	}
	t.Logf("stage peaks of %d: flits %d, credits %d, NI credits %d", bound, flitPeak, creditPeak, niCreditPeak)
}
