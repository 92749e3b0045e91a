package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"approxnoc/internal/compress"
	"approxnoc/internal/experiments"
	"approxnoc/internal/noc"
	"approxnoc/internal/topology"
	"approxnoc/internal/traffic"
	"approxnoc/internal/value"
	"approxnoc/internal/workload"
)

// simJobs is the experiment runner's worker-pool width (Config.Jobs).
const simJobs = 2

// simJob is one simulated run of a grid: a benchmark's value model under
// one scheme, as a bursty trace replay (Fig. 9) or at a fixed pattern and
// rate (Fig. 12).
type simJob struct {
	model     workload.Model
	scheme    compress.Scheme
	synthetic bool
	pattern   traffic.Pattern
	rate      float64
}

// simRow is what the experiment drivers return for one run, flattened so
// Fig. 9 and Fig. 12 rows compare and store alike.
type simRow struct {
	Benchmark string  `json:"benchmark"`
	Scheme    string  `json:"scheme"`
	Pattern   string  `json:"pattern,omitempty"`
	Rate      float64 `json:"rate,omitempty"`
	Latency   float64 `json:"latency_cycles"`
	Quality   float64 `json:"quality,omitempty"`
}

// simGrid is one sim workload: the runs the figure makes, in its order,
// and the public driver that makes them.
type simGrid struct {
	// cycles is the injection window of every run. The timed unit is one
	// whole figure, so it is sized for about five passes in the driver's
	// ten-second window on the two-CPU reference box rather than at the
	// 30 000 the CLI defaults to; the traffic regime does not depend on it.
	cycles int
	drain  bool
	jobs   func() ([]simJob, error)
	figure func(cfg experiments.Config) ([]simRow, error)
}

var fig9Grid = simGrid{
	cycles: 4000,
	drain:  true,
	jobs: func() ([]simJob, error) {
		var jobs []simJob
		for _, m := range workload.Benchmarks() {
			for _, s := range compress.AllSchemes() {
				jobs = append(jobs, simJob{model: m, scheme: s})
			}
		}
		return jobs, nil
	},
	figure: func(cfg experiments.Config) ([]simRow, error) {
		rows, err := experiments.Fig9(cfg)
		out := make([]simRow, len(rows))
		for i, r := range rows {
			out[i] = simRow{Benchmark: r.Benchmark, Scheme: r.Scheme.String(), Latency: r.TotalLat, Quality: r.Quality}
		}
		return out, err
	},
}

const saturationBenchmark = "streamcluster"

var saturationRates = []float64{0.4, 0.6}

var saturationGrid = simGrid{
	cycles: 4000,
	jobs: func() ([]simJob, error) {
		m, err := workload.ByName(saturationBenchmark)
		if err != nil {
			return nil, err
		}
		var jobs []simJob
		for _, p := range []traffic.Pattern{traffic.UniformRandom, traffic.Transpose} {
			for _, s := range compress.AllSchemes() {
				for _, rate := range saturationRates {
					jobs = append(jobs, simJob{model: m, scheme: s, synthetic: true, pattern: p, rate: rate})
				}
			}
		}
		return jobs, nil
	},
	figure: func(cfg experiments.Config) ([]simRow, error) {
		pts, err := experiments.Fig12(cfg, []string{saturationBenchmark}, saturationRates)
		out := make([]simRow, len(pts))
		for i, p := range pts {
			out[i] = simRow{Benchmark: p.Benchmark, Scheme: p.Scheme.String(), Pattern: p.Pattern.String(), Rate: p.Rate, Latency: p.Latency}
		}
		return out, err
	},
}

func (g *simGrid) config(o *runOpts) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed = o.seed
	cfg.Jobs = simJobs
	cfg.Cycles = g.cycles
	if o.quick {
		cfg.Cycles = 200
	}
	return cfg
}

// simNet is one run built and ready to step.
type simNet struct {
	net *noc.Network
	inj *traffic.Injector
}

// build constructs the network and injector of one run from public
// pieces, with the seeds and traffic shape experiments.Fig9 and Fig12
// derive from the Config. It has to restate that arithmetic because the
// drivers return rows, not statistics, and cannot be stepped from
// outside; every run checks that the two agree on every row, so a drift
// shows as a failure, not as a wrong number.
func (j *simJob) build(cfg experiments.Config) (simNet, error) {
	topo, err := topology.NewCMesh(cfg.Width, cfg.Height, cfg.Concentration)
	if err != nil {
		return simNet{}, err
	}
	factory, err := compress.FactoryFor(j.scheme, topo.Tiles(), cfg.ErrorThreshold)
	if err != nil {
		return simNet{}, err
	}
	net, err := noc.New(topo, cfg.NoC, factory)
	if err != nil {
		return simNet{}, err
	}
	var tcfg traffic.Config
	if j.synthetic {
		m := j.model
		m.DataRatio = 0.25
		tcfg = traffic.Config{
			Pattern: j.pattern, FlitRate: j.rate, DataRatio: m.DataRatio,
			Source: m.NewSource(cfg.Seed*31337+11, cfg.ApproxRatio),
			Seed:   cfg.Seed*101 + uint64(j.scheme)*13 + uint64(j.pattern),
		}
	} else {
		m := j.model
		blockFlits := float64(1 + 64/cfg.NoC.FlitBytes)
		tcfg = traffic.Config{
			Pattern:   traffic.UniformRandom,
			FlitRate:  m.InjectionRate * (m.DataRatio*blockFlits + (1 - m.DataRatio)),
			DataRatio: m.DataRatio,
			Source:    m.NewSource(cfg.Seed*1000003+7, cfg.ApproxRatio),
			Seed:      cfg.Seed*7919 + uint64(j.scheme),
			Bursty:    true, BurstLen: m.BurstLen, BurstGap: m.BurstGap,
		}
	}
	inj, err := traffic.New(net, tcfg)
	return simNet{net: net, inj: inj}, err
}

// simStats is what one stepped run showed.
type simStats struct {
	net   noc.NetStats
	codec compress.OpStats
	power noc.PowerEvents
	steps int64 // Network.Step calls, drain included
}

// stepTimes collects the host time of every Network.Step of one worker.
type stepTimes struct {
	buf *spanBuf
	ns  []int32
}

// run steps the network through the injection window, and the drain if
// the grid has one, exactly as traffic.Run does. With st set it spans
// every Injector.Tick and Network.Step.
func (s simNet) run(cycles int, drain bool, job int, clk clock, st *stepTimes) simStats {
	steps := int64(0)
	var parent uint64
	t0 := clk.now()
	if st != nil {
		parent = st.buf.open(spSimRun, t0, uint64(job))
	}
	step := func() {
		if st == nil {
			s.net.Step()
		} else {
			t0 := clk.now()
			s.net.Step()
			t1 := clk.now()
			st.buf.add(spStep, t0, t1, parent, uint64(job), 1)
			st.ns = append(st.ns, clampNs(t1-t0))
		}
		steps++
	}
	for i := 0; i < cycles; i++ {
		if st == nil {
			s.inj.Tick()
		} else {
			a := clk.now()
			s.inj.Tick()
			st.buf.add(spTick, a, clk.now(), parent, uint64(job), 1)
		}
		step()
	}
	if drain {
		for i := 0; i < cycles*10 && !s.net.Quiescent(); i++ {
			step()
		}
	}
	if st != nil {
		st.buf.close(parent, spSimRun, t0, clk.now())
	}
	return simStats{net: s.net.Stats(), codec: s.net.CodecStats(), power: s.net.Power(), steps: steps}
}

// eachJob runs fn(0..n-1) on simJobs workers, as the experiment runner
// does; worker is the index of the goroutine, for per-worker state.
func eachJob(n int, fn func(worker, job int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < simJobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				fn(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// stepped is what the pass this program steps itself showed: per run for
// the row checks, summed for the metrics.
type stepped struct {
	runs   []simStats
	net    noc.NetStats
	codec  compress.OpStats
	power  noc.PowerEvents
	steps  int64
	wall   time.Duration
	stepNs []int32 // host time of every Step, traced pass only
}

// stepAll steps every built run on simJobs workers. With tr set it spans
// every Tick and Step. Drained runs must deliver every packet they sent.
func stepAll(nets []simNet, jobs []simJob, cycles int, drain bool, tr *tracer, fails *failLog) stepped {
	clk := newClock()
	times := make([]*stepTimes, simJobs)
	if tr != nil {
		clk = tr.clock
		for w := range times {
			times[w] = &stepTimes{buf: tr.buf(), ns: make([]int32, 0, len(jobs)*cycles)}
		}
	}
	p := stepped{runs: make([]simStats, len(jobs))}
	start := time.Now()
	eachJob(len(jobs), func(w, k int) {
		p.runs[k] = nets[k].run(cycles, drain, k, clk, times[w])
	})
	p.wall = time.Since(start)
	for k, s := range p.runs {
		p.net.PacketsSent += s.net.PacketsSent
		p.net.PacketsDelivered += s.net.PacketsDelivered
		p.net.DataDelivered += s.net.DataDelivered
		p.net.NotifDelivered += s.net.NotifDelivered
		p.net.FlitsInjected += s.net.FlitsInjected
		p.net.SumQueueLat += s.net.SumQueueLat
		p.net.SumNetLat += s.net.SumNetLat
		p.net.SumDecodeLat += s.net.SumDecodeLat
		p.codec.Add(s.codec)
		p.power.Add(s.power)
		p.steps += s.steps
		if drain && s.net.PacketsDelivered != s.net.PacketsSent {
			fails.addf("run %d (%s under %v): %d of %d packets undelivered after the drain",
				k, jobs[k].model.Name, jobs[k].scheme, s.net.PacketsSent-s.net.PacketsDelivered, s.net.PacketsSent)
		}
	}
	for _, t := range times {
		if t != nil {
			p.stepNs = append(p.stepNs, t.ns...)
		}
	}
	return p
}

// runSim is one run of a sim workload. Both modes build every network
// (the set-up), then step every run of the grid themselves: that pass
// warms the process and yields the statistics the figure drivers do not
// return. A timed run then regenerates the figure through
// internal/experiments until the window is used; a traced run spans the
// stepped pass instead and adds a Jobs 1 / Jobs 2 pair and the layers in
// isolation.
func runSim(o *runOpts, name string, g simGrid) (*result, error) {
	fails := &failLog{}
	cfg := g.config(o)
	jobs, err := g.jobs()
	if err != nil {
		return nil, err
	}
	var nets []simNet
	setups, err := timeSetups(o.setupReps(), func() (err error) {
		nets = make([]simNet, len(jobs))
		for k := range jobs {
			if nets[k], err = jobs[k].build(cfg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	memStart := markMem()
	pass := stepAll(nets, jobs, cfg.Cycles, g.drain, tr, fails)
	attempted := int64(pass.net.PacketsSent)
	modelled := map[string]float64{
		"sim_pkt_latency_cycles": pass.net.AvgPacketLatency(),
		"compression_ratio":      pass.codec.CompressionRatio(),
		"data_quality":           pass.codec.DataQuality(),
	}
	simCycles := float64(len(jobs) * cfg.Cycles)

	// figurePass regenerates the figure through the public driver and
	// holds its rows to the stepped pass and to the first pass's rows.
	var want []simRow
	figurePass := func(c experiments.Config) (time.Duration, error) {
		start := time.Now()
		rows, err := g.figure(c)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		if tr != nil {
			end := tr.now()
			tr.buf().add(spFigurePass, end-int64(wall), end, 0, uint64(c.Jobs), 1)
		}
		if want != nil {
			if !slices.Equal(rows, want) {
				fails.addf("figure rows changed between two passes of one seed")
			}
			return wall, nil
		}
		want = rows
		if len(rows) < len(jobs) {
			return 0, fmt.Errorf("experiments returned %d rows for %d runs", len(rows), len(jobs))
		}
		for k := range jobs {
			if lat := pass.runs[k].net.AvgPacketLatency(); rows[k].Latency != lat {
				fails.addf("run %d: experiments reports %v cycles, the stepped run %v: benchmark/simwl.go no longer builds what internal/experiments builds", k, rows[k].Latency, lat)
			}
		}
		checkGolden(o, name, golden{Metrics: modelled, Rows: rows}, fails)
		return wall, nil
	}

	var metrics map[string]float64
	if !o.traced {
		var cps, walls, allocs, bytes []float64
		for used := time.Duration(0); used < time.Duration(o.seconds*float64(time.Second)) && (!o.quick || len(walls) == 0); {
			mem := markMem()
			wall, err := figurePass(cfg)
			if err != nil {
				return nil, err
			}
			mallocs, b, gcs := mem.since()
			used += wall
			walls = append(walls, wall.Seconds()*1e6)
			cps = append(cps, simCycles/wall.Seconds())
			allocs = append(allocs, mallocs/simCycles)
			bytes = append(bytes, b/simCycles)
			o.logf("%s pass %d: %d runs x %d cycles in %.3fs, %d gc cycles", name, len(walls)-1, len(jobs), cfg.Cycles, wall.Seconds(), gcs)
		}
		o.logf("%s spread (IQR/median) over %d passes: sim_cycles_per_s %.2f%%, allocs_per_op %.2f%%", name, len(walls), 100*iqrShare(cps), 100*iqrShare(allocs))
		_, slowQuartile := quartiles(walls)
		metrics = map[string]float64{
			"setup_s":            median(setups),
			"sim_cycles_per_s":   median(cps),
			"records_per_s":      median(cps) / simCycles * float64(pass.net.DataDelivered),
			"lat_p50_us":         median(walls),
			"lat_p99_us":         slowQuartile, // a handful of passes supports no higher percentile
			"allocs_per_op":      median(allocs),
			"alloc_bytes_per_op": median(bytes),
		}
		for k, v := range modelled {
			metrics[k] = v
		}
	} else {
		wall2, err := figurePass(cfg)
		if err != nil {
			return nil, err
		}
		serial := cfg
		serial.Jobs = 1
		wall1, err := figurePass(serial)
		if err != nil {
			return nil, err
		}
		if metrics, err = simLayers(o, cfg, jobs, tr, &attempted, fails); err != nil {
			return nil, err
		}
		slices.Sort(pass.stepNs)
		_, _, gcs := memStart.since()
		steps := float64(pass.steps)
		codecCounters(metrics, pass.codec)
		metrics["noc.step_ns"] = quantileNs(pass.stepNs, 0.5)
		metrics["noc.flits_per_cycle"] = float64(pass.net.FlitsInjected) / steps
		metrics["noc.avg_queue_lat_cycles"] = pass.net.AvgQueueLatency()
		metrics["noc.avg_net_lat_cycles"] = pass.net.AvgNetLatency()
		metrics["noc.avg_decode_lat_cycles"] = pass.net.AvgDecodeLatency()
		metrics["noc.vc_allocs_per_cycle"] = float64(pass.power.VCAllocs) / steps
		metrics["noc.switch_allocs_per_cycle"] = float64(pass.power.SwitchAllocs) / steps
		metrics["noc.buffer_writes_per_cycle"] = float64(pass.power.BufferWrites) / steps
		metrics["noc.notif_share"] = float64(pass.net.NotifDelivered) / float64(pass.net.PacketsDelivered)
		metrics["experiments.jobs_speedup"] = wall1.Seconds() / wall2.Seconds()
		metrics["runtime.gc_cycles"] = float64(gcs)
		metrics["runtime.heap_sys_mb"] = heapSysMB()
		metrics["trace.overhead_share"] = 1 - wall2.Seconds()/pass.wall.Seconds()
		o.logf("%s traced: figure pass %.3fs at Jobs 2, %.3fs at Jobs 1, stepped pass with spans %.3fs", name, wall2.Seconds(), wall1.Seconds(), pass.wall.Seconds())
		if err := tr.write(o.spec.tracePath(name), name, o.seed); err != nil {
			return nil, err
		}
	}
	return &result{attempted: attempted, failed: fails.n, metrics: metrics, failures: fails.msgs}, nil
}

// simLayers times, in isolation and on blocks of the grid's own value
// models, the layers a simulated run goes through: SendData on an idle
// network, the five schemes' codecs, the mask and match logic.
func simLayers(o *runOpts, cfg experiments.Config, jobs []simJob, tr *tracer, attempted *int64, fails *failLog) (map[string]float64, error) {
	phase := o.phaseDur() / 2
	recs, err := sendDataLayer(cfg, jobs, o.perModel()/8, tr)
	if err != nil {
		return nil, err
	}
	fabs, err := newFabrics(compress.AllSchemes())
	if err != nil {
		return nil, err
	}
	iso, _, at := encodeDecodeFor(fabs, recs, 0, phase, tr, fails)
	transferLayer(fabs, recs, at, phase, tr, fails)
	encAllocs, decAllocs := codecAllocs(fabs, recs, at, min(256, len(recs)))
	okShare := approxLayer(recs, phase, tr)
	hitShare, evictions := tcamLayer(recs, phase, tr)
	*attempted += iso.blocks

	m := layerMetrics(o.spec, tr)
	m["compress.encode_allocs"] = encAllocs
	m["compress.decode_allocs"] = decAllocs
	m["approx.mask_ok_share"] = okShare
	m["tcam.hit_share"] = hitShare
	m["tcam.evictions"] = float64(evictions)
	return m, nil
}

// sendDataLayer times Network.SendData alone: blocks from the grid's
// value models are queued at the NIs of one idle network per scheme,
// which is never stepped. It returns those blocks as records for
// the codec layers.
func sendDataLayer(cfg experiments.Config, jobs []simJob, perModel int, tr *tracer) ([]record, error) {
	seen := map[string]bool{}
	var blocks []*value.Block
	buf := tr.buf()
	for _, j := range jobs {
		if seen[j.model.Name] {
			continue
		}
		seen[j.model.Name] = true
		src := j.model.NewSource(cfg.Seed*1000003+7, cfg.ApproxRatio)
		t0 := tr.now()
		for i := 0; i < perModel; i++ {
			blocks = append(blocks, src.NextBlock())
		}
		buf.add(spNextBlock, t0, tr.now(), 0, 0, perModel)
	}
	recs := genRecords(cfg.Seed, blocks, false)
	for _, scheme := range compress.AllSchemes() {
		net, err := (&simJob{model: jobs[0].model, scheme: scheme}).build(cfg)
		if err != nil {
			return nil, err
		}
		for i := range recs {
			t0 := tr.now()
			_, err := net.net.SendData(recs[i].src, recs[i].dst, recs[i].blk)
			buf.add(spSendData, t0, tr.now(), 0, uint64(i), 1)
			if err != nil {
				return nil, err
			}
		}
	}
	return recs, nil
}
