package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/sched"
	"magis/internal/tensor"
)

// optimizeIterations is the fixed expansion count of every search in the
// optimize workload: with no time budget, a search does the same work and
// reaches the same plan on every run, so speed and quality are gated
// separately.
const optimizeIterations = 4

// search is one entry of the optimize workload's fixed set.
type search struct {
	w    *models.Workload
	mem  bool // MemoryUnderLatency; otherwise LatencyUnderMemory
	base *opt.State
	o    opt.Options
}

// optimizeSet builds the fixed set at reduced batch: the paper's
// topologies (ResNet, BERT, a GPT-style LM, ViT, UNet, UNet++) plus
// randomly wired NASNet cells, whose complex wiring is where
// memory-aware scheduling is weakest. The 528-node cell is fixed; the
// seed draws the wiring of three small cells and the order of the
// searches in a round. About half run under MemoryUnderLatency (limit
// 1.10× baseline latency), the rest under LatencyUnderMemory (limit 0.80×
// baseline peak).
func optimizeSet(seed int64, m *cost.Model) []*search {
	r := rand.New(rand.NewSource(seed))
	set := []*search{
		{w: models.ResNet50Config(4, 64, []int{2, 2, 2, 2}), mem: true},
		{w: models.UNetConfig(2, 64, 16, 3), mem: true},
		{w: models.UNetPPConfig(2, 64, 8, 3), mem: true},
		{w: models.RandomNASNet(1, 24, 32, 64, 16), mem: true},
		{w: models.TransformerLM("BERT-small", 4, 64, 128, 4, 4, 1000, tensor.TF32, false)},
		{w: models.TransformerLM("GPT-small", 4, 64, 128, 4, 4, 1000, tensor.BF16, true)},
		{w: models.ViTBase(2, 32, 16)},
	}
	for i := 0; i < 3; i++ {
		set = append(set, &search{w: models.RandomNASNet(100+r.Int63n(1<<20), 4, 8, 16, 2), mem: true})
	}
	r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	for _, s := range set {
		s.base = opt.Baseline(s.w.G, m)
		s.o = opt.Options{MaxIterations: optimizeIterations, TimeBudget: -1, Workers: 1}
		if s.mem {
			s.o.Mode = opt.MemoryUnderLatency
			s.o.LatencyLimit = 1.10 * s.base.Latency
		} else {
			s.o.Mode = opt.LatencyUnderMemory
			s.o.MemLimit = int64(0.80 * float64(s.base.PeakMem))
		}
	}
	return set
}

// checkBest re-derives what a search reported about its best state: the
// graphs and the schedule are valid, and the peak re-simulates to the
// reported value.
func checkBest(name string, st *opt.State) error {
	if err := graph.Validate(st.G); err != nil {
		return fmt.Errorf("%s: best graph invalid: %w", name, err)
	}
	if err := graph.Validate(st.EvalG); err != nil {
		return fmt.Errorf("%s: best evaluation graph invalid: %w", name, err)
	}
	if err := st.Sched.Validate(st.EvalG); err != nil {
		return fmt.Errorf("%s: best schedule invalid: %w", name, err)
	}
	if p := sched.Simulate(st.EvalG, st.Sched).Peak; p != st.PeakMem {
		return fmt.Errorf("%s: reported peak %d re-simulates to %d", name, st.PeakMem, p)
	}
	return nil
}

func runOptimize(ctx context.Context, cfg runCfg) (*report, error) {
	m := cost.NewModel(cost.RTX3090())
	// Set-up builds the graphs and their baselines and warms the search
	// code with one short search of the first graph of the fixed list
	// (not of the seeded order, so every seed sets up the same work).
	set, setupS, err := setupMedian(func() ([]*search, error) {
		set := optimizeSet(cfg.seed, m)
		warm := set[0]
		for _, s := range set {
			if s.w.Name == "ResNet-50" {
				warm = s
			}
		}
		o := warm.o
		o.MaxIterations = 1
		_, err := opt.OptimizeCtx(ctx, warm.w.G, m, o)
		return set, err
	}, func([]*search) {})
	if err != nil {
		return nil, err
	}
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	var (
		acc       optAcc
		firstBest = make([]*opt.State, len(set))
		units     []outcome // one per timed round
		roundUntr []float64
		roundTr   []float64
		start     = time.Now()
	)
	// A traced run alternates untraced and traced rounds after the first,
	// which warms the process and is left out of the overhead comparison.
	minRounds := 3
	if cfg.tr != nil {
		minRounds = 5
	}
	for round := 0; round < minRounds || time.Since(start) < cfg.window; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var tr *tracer
		if round%2 == 1 {
			tr = cfg.tr
		}
		roundID, endRound := tr.begin("optimize.round", 0, 0)
		t0 := time.Now()
		for i, s := range set {
			rep.attempted++
			_, end := tr.begin("opt.OptimizeCtx", roundID, int64(i+1))
			var res *opt.Result
			if tr != nil {
				res, err = acc.run(ctx, s.w.G, m, s.o)
			} else {
				res, err = opt.OptimizeCtx(ctx, s.w.G, m, s.o)
			}
			end()
			if err != nil || res.Best == nil {
				rep.failed++
				rep.mismatch("%s: search failed: %v", s.w.Name, err)
				continue
			}
			if round == 0 {
				firstBest[i] = res.Best
				if err := checkBest(s.w.Name, res.Best); err != nil {
					rep.mismatch("%v", err)
				}
			} else if fb := firstBest[i]; fb != nil && (fb.PeakMem != res.Best.PeakMem || !sameLatency(fb.Latency, res.Best.Latency)) {
				rep.mismatch("%s: round %d reached peak %d latency %v, round 0 reached %d %v",
					s.w.Name, round, res.Best.PeakMem, res.Best.Latency, fb.PeakMem, fb.Latency)
			}
		}
		d := time.Since(t0).Seconds()
		endRound()
		if round == 0 {
			continue // the first round warms the process: checked, not timed
		}
		units = append(units, outcome{lat: d, settled: true})
		if tr != nil {
			roundTr = append(roundTr, d)
		} else {
			roundUntr = append(roundUntr, d)
		}
	}

	var memR, latR []float64
	plans := map[string]string{}
	for i, s := range set {
		b := firstBest[i]
		if b == nil {
			continue
		}
		plans[s.w.Name+fmt.Sprintf("/n%d", s.w.G.Len())] = fmt.Sprintf("peak %.4f latency %.4f",
			float64(b.PeakMem)/float64(s.base.PeakMem), b.Latency/s.base.Latency)
		if s.mem {
			memR = append(memR, float64(b.PeakMem)/float64(s.base.PeakMem))
		} else {
			latR = append(latR, b.Latency/s.base.Latency)
		}
	}
	// A round of the fixed set is this workload's unit of work.
	round := median(latencies(units, cfg.window.Seconds()))
	rep.accounting = map[string]any{"plans_vs_baseline": plans}
	rep.e2e["setup_s"] = setupS
	rep.e2e["p50_s"] = round
	rep.e2e["tail_s"] = tail(units)
	rep.e2e["goodput_rps"] = float64(len(set)) / round
	rep.e2e["ok_share"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	rep.e2e["mem_ratio"] = geomean(memR)
	rep.e2e["lat_ratio"] = geomean(latR)
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	if cfg.tr != nil {
		rep.layer["trace.overhead_share"] = median(roundTr) / median(roundUntr)
		acc.report(rep.layer)
		est := median(acc.estRatios)
		in := replayIn{acc: &acc}
		for i, s := range set {
			in.graphs = append(in.graphs, s.w.G)
			in.docs = append(in.docs, nil)
			in.bests = append(in.bests, firstBest[i])
			// Reference execution of the larger graphs takes minutes;
			// the small NASNet cells stand in for them.
			in.verify = append(in.verify, s.w.G.Len() < 150)
		}
		if err := replay(ctx, cfg, m, rep, in); err != nil {
			return nil, err
		}
		// This workload's own searches, not the replay's server, say how
		// far the admission estimate is off.
		rep.layer["serve.est_ratio"] = est
	}
	return rep, nil
}

// optAcc accumulates the search-layer numbers of traced OptimizeCtx
// calls: the phase counts and times from Result.Stats, and the heap
// allocations and GC CPU share around each call.
type optAcc struct {
	calls      int
	wall       time.Duration
	st         opt.Stats
	allocs     uint64
	bytes      uint64
	gcCPU, cpu float64
	estRatios  []float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// run is OptimizeCtx measured. Searches measured here run with one
// worker, so the phase times add up within the call's wall time.
func (a *optAcc) run(ctx context.Context, g *graph.Graph, m *cost.Model, o opt.Options) (*opt.Result, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0 := readCPU()
	t := time.Now()
	res, err := opt.OptimizeCtx(ctx, g, m, o)
	d := time.Since(t)
	gc1, cpu1 := readCPU()
	runtime.ReadMemStats(&after)
	if err != nil {
		return res, err
	}
	a.calls++
	a.wall += d
	s := res.Stats
	a.st.Trans += s.Trans
	a.st.Simul += s.Simul
	a.st.Filtered += s.Filtered
	a.st.TransTime += s.TransTime
	a.st.SchedTime += s.SchedTime
	a.st.SimulTime += s.SimulTime
	a.st.HashTime += s.HashTime
	a.allocs += after.Mallocs - before.Mallocs
	a.bytes += after.TotalAlloc - before.TotalAlloc
	a.gcCPU += gc1 - gc0
	a.cpu += cpu1 - cpu0
	if est := opt.EstimateSearchTime(g.Len(), o); est > 0 {
		a.estRatios = append(a.estRatios, d.Seconds()/est.Seconds())
	}
	return res, nil
}

func (a *optAcc) report(layer map[string]float64) {
	wall := float64(a.wall)
	share := func(d time.Duration) float64 { return float64(d) / wall }
	evals := float64(a.st.Simul)
	layer["opt.evals"] = evals / float64(a.calls)
	layer["opt.filtered_share"] = float64(a.st.Filtered) / float64(a.st.Trans)
	layer["opt.trans_share"] = share(a.st.TransTime)
	layer["opt.sched_share"] = share(a.st.SchedTime)
	layer["opt.simul_share"] = share(a.st.SimulTime)
	layer["opt.hash_share"] = share(a.st.HashTime)
	layer["opt.untimed_share"] = 1 - share(a.st.TransTime+a.st.SchedTime+a.st.SimulTime+a.st.HashTime)
	layer["opt.allocs_per_eval"] = float64(a.allocs) / evals
	layer["opt.bytes_per_eval"] = float64(a.bytes) / evals
	layer["opt.gc_cpu_share"] = a.gcCPU / a.cpu
}
