package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"magis/internal/cost"
	"magis/internal/ftree"
	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/ingest"
	"magis/internal/opt"
	"magis/internal/plancache"
	"magis/internal/refexec"
	"magis/internal/rules"
	"magis/internal/sched"
	"magis/internal/sim"
	"magis/internal/verify"
)

// replayIn is what a workload hands the replay pass: its own graphs and
// documents, the best states it found for them (nil where it has none),
// which graphs to verify, and its own requests and /metrics so the serve
// numbers cover the workload's traffic too.
type replayIn struct {
	graphs []*graph.Graph
	docs   [][]byte
	bests  []*opt.State
	verify []bool
	sent   []*sent
	met    serveMetrics
	acc    *optAcc
}

// replayIterations is the fixed expansion count of searches the replay
// pass runs itself.
const replayIterations = 4

// replay is the traced run's per-layer pass: it calls each module's
// public functions on the workload's graphs and documents, one span per
// call (repeated inside the span where a call is too fast to clock), and
// records the time and heap allocations per call.
func replay(ctx context.Context, cfg runCfg, m *cost.Model, rep *report, in replayIn) error {
	tr, layer := cfg.tr, rep.layer
	per := map[string][]span{}
	do := func(name string, reps int, fn func()) {
		per[name] = append(per[name], tr.measure(name, reps, fn))
	}
	var sites float64
	for i, g := range in.graphs {
		if err := ctx.Err(); err != nil {
			return err
		}
		doc := in.docs[i]
		if doc == nil {
			var buf bytes.Buffer
			if err := graphio.Save(&buf, g, nil); err != nil {
				return err
			}
			doc = buf.Bytes()
		}
		do("graph.wlhash", 20, func() { g.WLHash() })
		do("graph.clone", 20, func() { g.Clone() })
		do("graph.reach", 5, func() { graph.NewReachIndex(g) })
		var order sched.Schedule
		do("sched.dp", 1, func() { order = (&sched.Scheduler{}).ScheduleGraph(g) })
		var prof *sched.MemProfile
		do("sched.simulate", 20, func() { prof = sched.Simulate(g, order) })
		do("sim.run", 10, func() { sim.Run(g, order, sim.Config{Model: m}) })
		var ft *ftree.Tree
		do("ftree.build", 1, func() { ft = ftree.Build(g, prof.Hotspots, ftree.Options{}) })
		cover := ft.EnabledCover()
		do("rules.apply", 1, func() {
			rc := &rules.Context{Hot: prof.Hotspots, Cover: cover, MaxSites: 8, UseHotFilter: true}
			for _, r := range rules.All() {
				sites += float64(len(r.Apply(g, rc)))
			}
		})
		var dg *graph.Graph
		var derr error
		do("ingest.decode", 3, func() { dg, _, derr = ingest.Decode(bytes.NewReader(doc), ingest.Limits{}) })
		if derr != nil {
			return fmt.Errorf("replay: decode: %w", derr)
		}
		var perr error
		do("ingest.preflight", 3, func() { perr = ingest.Preflight(dg, opt.Options{}, ingest.Limits{}) })
		if perr != nil {
			return fmt.Errorf("replay: preflight: %w", perr)
		}
		if b := in.bests[i]; b != nil && b.FT != nil {
			do("ftree.materialize", 1, func() { b.FT.Materialize(b.G) })
		}
		if in.verify[i] {
			mg := g
			if b := in.bests[i]; b != nil && b.FT != nil {
				var err error
				if mg, err = b.FT.Materialize(b.G); err != nil {
					return fmt.Errorf("replay: materialize: %w", err)
				}
			}
			do("verify.check", 1, func() { verify.Check(g, mg, 1) })
			do("refexec.run", 1, func() { refexec.Run(g, order, 1) })
		}
	}
	layer["rules.sites"] = sites / float64(len(in.graphs))
	for name, scale := range map[string]float64{
		"graph.wlhash": 1e6, "graph.clone": 1e6, "graph.reach": 1e6,
		"sched.dp": 1e3, "sched.simulate": 1e6, "sim.run": 1e6,
		"ftree.build": 1e3, "ftree.materialize": 1e3, "rules.apply": 1e3,
		"ingest.decode": 1e3, "ingest.preflight": 1e3,
	} {
		layer[name+unitSuffix(scale)] = scale * meanSeconds(per[name])
		layer[name+".allocs"] = meanAllocs(per[name])
	}
	// One verification pass over the workload's graphs: what a cold
	// sight of each costs the cache admission path.
	layer["verify.check_s"] = sumSeconds(per["verify.check"])
	layer["refexec.run_s"] = sumSeconds(per["refexec.run"])

	// The two smallest graphs go through the plan cache directly and then
	// through a fresh cached server: cold, hit, then a near miss.
	small := smallest(in.graphs, 2)
	var items []*poolItem
	for _, i := range small {
		g := in.graphs[i]
		it := &poolItem{name: fmt.Sprintf("replay-%d", i), g: g, base: opt.Baseline(g, m), mode: "mem", limit: 0.10}
		var buf bytes.Buffer
		if err := graphio.Save(&buf, g, nil); err != nil {
			return err
		}
		it.doc = buf.Bytes()
		items = append(items, it)
	}
	rejected, err := replayCache(ctx, cfg, m, rep, items, in.acc)
	if err != nil {
		return err
	}
	stepSent, stepMet, err := replayServe(ctx, cfg, m, items)
	if err != nil {
		return err
	}
	serveLayers(layer, append(append([]*sent(nil), in.sent...), stepSent...), replayBudget, in.met, stepMet)
	layer["plancache.put_rejected"] += float64(rejected)
	return nil
}

const replayBudget = time.Minute

func unitSuffix(scale float64) string {
	if scale == 1e6 {
		return "_us"
	}
	return "_ms"
}

func meanSeconds(ss []span) float64 {
	var sum float64
	for _, s := range ss {
		sum += s.seconds()
	}
	return sum / float64(len(ss))
}

func sumSeconds(ss []span) float64 {
	var sum float64
	for _, s := range ss {
		sum += s.seconds()
	}
	return sum
}

func meanAllocs(ss []span) float64 {
	var sum float64
	for _, s := range ss {
		sum += float64(s.Allocs)
	}
	return sum / float64(len(ss))
}

// smallest returns the indexes of the k graphs with the fewest nodes.
func smallest(gs []*graph.Graph, k int) []int {
	idx := make([]int, len(gs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return gs[idx[a]].Len() < gs[idx[b]].Len() })
	return idx[:min(k, len(idx))]
}

// replayCache times the plan cache's public calls on a fresh cache:
// Put (which verifies before admitting), Get of the admitted entry, and
// Near for the same graph under another iteration count. It returns how
// many plans verification refused.
func replayCache(ctx context.Context, cfg runCfg, m *cost.Model, rep *report, items []*poolItem, acc *optAcc) (int, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("replay-cache-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	c, err := plancache.Open(plancache.Config{Dir: dir})
	if err != nil {
		return 0, err
	}
	tr := cfg.tr
	var put, get, near []span
	rejected := 0
	for _, it := range items {
		o := it.options(replayIterations, replayBudget)
		res, err := acc.run(ctx, it.g, m, o)
		if err != nil {
			return 0, fmt.Errorf("replay: search %s: %w", it.name, err)
		}
		fp := plancache.FingerprintFor(m, o)
		var perr error
		put = append(put, tr.measure("plancache.put", 1, func() { perr = c.Put(it.g, fp, res.Best) }))
		if errors.Is(perr, plancache.ErrRejected) {
			rejected++
		} else if perr != nil {
			return 0, fmt.Errorf("replay: put %s: %w", it.name, perr)
		}
		get = append(get, tr.measure("plancache.get", 5, func() { c.Get(it.g, fp) }))
		o2 := it.options(replayIterations+2, replayBudget)
		fp2 := plancache.FingerprintFor(m, o2)
		near = append(near, tr.measure("plancache.near", 5, func() { c.Near(it.g, fp2) }))
	}
	rep.layer["plancache.put_s"] = meanSeconds(put)
	rep.layer["plancache.get_ms"] = 1e3 * meanSeconds(get)
	rep.layer["plancache.near_ms"] = 1e3 * meanSeconds(near)
	rep.layer["plancache.get.allocs"] = meanAllocs(get)
	return rejected, nil
}

// replayServe sends the small graphs through a fresh cached server in
// three settled phases — cold, exact repeat (hit), another iteration
// count (near miss) — so every workload reports every request class.
func replayServe(ctx context.Context, cfg runCfg, m *cost.Model, items []*poolItem) ([]*sent, serveMetrics, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("replay-serve-%d", os.Getpid()))
	h, err := startHarness(m, dir, 1, 8)
	if err != nil {
		return nil, nil, err
	}
	defer h.close()
	all := func(int) bool { return true }
	var out []*sent
	for _, iters := range []int{replayIterations, replayIterations, replayIterations + 2} {
		var arrs []arrival
		for i, it := range items {
			arrs = append(arrs, arrival{item: i, body: it.body(iters, replayBudget.String(), "")})
		}
		ss, err := h.settleAll(ctx, items, arrs, cfg.tr, all)
		if err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
		out = append(out, ss...)
	}
	var met serveMetrics
	if err := h.get(ctx, cfg.tr, "serve.metrics", 0, "/metrics", &met); err != nil {
		return nil, nil, err
	}
	return out, met, nil
}
