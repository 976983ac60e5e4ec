package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/graphio"
	"magis/internal/ingest"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/plancache"
	"magis/internal/serve"
	"magis/internal/tensor"
)

// poolItem is one miniature topology the serve workloads submit.
type poolItem struct {
	name string
	// doc is the graph document sent in the request's graph field; nil
	// for the named model.
	doc   []byte
	model string
	scale float64
	// g is the graph the server searches: the ingested document, or the
	// named model built the way the server builds it.
	g     *graph.Graph
	base  *opt.State
	mode  string // "mem" or "latency"
	limit float64
}

// servePool builds the request pool: miniature versions of the paper's
// topologies as graph documents, plus the named mlp model. It keeps the
// graphs that show today's defects: a ResNet-mini whose verified cache
// admission costs about a hundred times its search, and the
// RandomNASNet(1,4,8,16,2) cell whose plan verification refuses, so its
// repeats never hit. The seed draws the wiring of one more NASNet cell.
func servePool(seed int64, m *cost.Model) ([]*poolItem, error) {
	r := rand.New(rand.NewSource(seed))
	type def struct {
		name  string
		w     *models.Workload
		mode  string
		limit float64
	}
	defs := []def{
		{"resnet-mini", models.ResNet50Config(1, 32, []int{1, 1, 1, 1}), "mem", 0.10},
		{"nasnet-1", models.RandomNASNet(1, 4, 8, 16, 2), "mem", 0.10},
		{"nasnet-seeded", models.RandomNASNet(100+r.Int63n(1<<20), 4, 8, 16, 2), "mem", 0.10},
		{"unet-mini", models.UNetConfig(1, 32, 4, 2), "mem", 0.10},
		{"unetpp-mini", models.UNetPPConfig(1, 32, 4, 2), "latency", 0.80},
		{"bert-mini", models.TransformerLM("BERT-mini", 2, 16, 32, 2, 2, 100, tensor.TF32, false), "mem", 0.10},
		{"gpt-mini", models.TransformerLM("GPT-mini", 2, 16, 32, 2, 2, 100, tensor.TF32, true), "mem", 0.10},
	}
	var pool []*poolItem
	for _, d := range defs {
		var buf bytes.Buffer
		if err := graphio.Save(&buf, d.w.G, nil); err != nil {
			return nil, fmt.Errorf("encode %s: %w", d.name, err)
		}
		g, _, err := ingest.Decode(bytes.NewReader(buf.Bytes()), ingest.Limits{})
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", d.name, err)
		}
		pool = append(pool, &poolItem{name: d.name, doc: buf.Bytes(), g: g, mode: d.mode, limit: d.limit})
	}
	const mlpScale = 0.001
	w, err := models.ByName("mlp", mlpScale)
	if err != nil {
		return nil, err
	}
	pool = append(pool, &poolItem{name: "mlp", model: "mlp", scale: mlpScale, g: w.G, mode: "mem", limit: 0.10})
	for _, it := range pool {
		it.base = opt.Baseline(it.g, m)
	}
	return pool, nil
}

// body renders the exact request bytes for one submission.
func (it *poolItem) body(iterations int, budget, deadline string) []byte {
	b, err := json.Marshal(serve.OptimizeRequest{
		Model: it.model, Scale: it.scale, Graph: it.doc,
		Mode: it.mode, Limit: it.limit, Budget: budget,
		Deadline: deadline, Iterations: iterations,
	})
	if err != nil {
		panic(err) // the fields above always marshal
	}
	return b
}

// options mirrors the search options the server derives for a request
// (serve's searchOptions), with one worker: the search is deterministic
// across worker counts, so a direct search must reach the same plan.
func (it *poolItem) options(iterations int, budget time.Duration) opt.Options {
	o := opt.Options{TimeBudget: budget, Workers: 1, MaxIterations: iterations}
	if it.mode == "latency" {
		o.Mode = opt.LatencyUnderMemory
		o.MemLimit = int64(it.limit * float64(it.base.PeakMem))
	} else {
		o.Mode = opt.MemoryUnderLatency
		o.LatencyLimit = it.base.Latency * (1 + it.limit)
	}
	return o
}

// harness is an in-process server reached over loopback HTTP.
type harness struct {
	srv      *serve.Server
	hs       *http.Server
	url      string
	client   *http.Client
	cacheDir string
	done     chan struct{}
}

func startHarness(m *cost.Model, cacheDir string, workers, queue int) (*harness, error) {
	cfg := serve.Config{Model: m, Workers: workers, QueueDepth: queue}
	h := &harness{cacheDir: cacheDir, done: make(chan struct{})}
	if cacheDir != "" {
		c, err := plancache.Open(plancache.Config{Dir: cacheDir})
		if err != nil {
			return nil, err
		}
		cfg.Cache = c
	}
	h.srv = serve.New(cfg)
	h.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Drain(context.Background())
		return nil, err
	}
	h.url = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: h.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln)
	}()
	// At most two connections: load comes from no more busy goroutines
	// than the host has CPUs.
	h.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
	return h, nil
}

func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	<-h.done
	h.srv.Drain(ctx)
	h.client.CloseIdleConnections()
	if h.cacheDir != "" {
		os.RemoveAll(h.cacheDir)
	}
}

// jobView is the part of /jobs/{id} the benchmark reads.
type jobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
	Result   *struct {
		PeakMemBytes int64   `json:"peak_mem_bytes"`
		LatencySec   float64 `json:"latency_sec"`
		Iterations   int     `json:"iterations"`
		Cache        string  `json:"cache"`
		Degraded     bool    `json:"degraded"`
	} `json:"result"`
	Reason string `json:"reason"` // rejections only
}

// sent is one request as the benchmark saw it.
type sent struct {
	arr     arrival
	it      *poolItem
	due     time.Time
	late    time.Duration
	postDur time.Duration
	status  int
	view    jobView
	err     error
}

// iterations is the request's fixed expansion count.
func (s *sent) iterations() int {
	var req serve.OptimizeRequest
	if err := json.Unmarshal(s.arr.body, &req); err != nil {
		panic(err) // the benchmark wrote these bytes itself
	}
	return req.Iterations
}

func settledState(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled" || s == "shed"
}

// class is the server's label for a settled job (hit, warm, shared, or
// miss for a plain search); requests the server never labelled read
// "none".
func (s *sent) class() string {
	switch {
	case s.status != http.StatusAccepted || s.view.State != "done":
		return "none"
	case s.view.Result != nil && s.view.Result.Cache != "":
		return s.view.Result.Cache
	}
	return "miss"
}

// outcome is the request's latency from its scheduled send time to the
// server's finished stamp; only a done job is settled.
func (s *sent) outcome() outcome {
	if s.status != http.StatusAccepted || s.view.State != "done" || s.view.Finished == nil {
		return outcome{}
	}
	return outcome{lat: s.view.Finished.Sub(s.due).Seconds(), settled: true}
}

func (h *harness) post(ctx context.Context, tr *tracer, req int64, body []byte) (int, jobView, error) {
	_, end := tr.begin("serve.POST", 0, req)
	defer end()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+"/optimize", bytes.NewReader(body))
	if err != nil {
		return 0, jobView{}, err
	}
	resp, err := h.client.Do(hreq)
	if err != nil {
		return 0, jobView{}, err
	}
	defer resp.Body.Close()
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v, err
}

func (h *harness) get(ctx context.Context, tr *tracer, name string, req int64, path string, v any) error {
	_, end := tr.begin(name, 0, req)
	defer end()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// drive sends the schedule open loop from two sender goroutines and
// returns once every request is posted. traced selects the requests whose
// calls are recorded as spans.
func (h *harness) drive(ctx context.Context, pool []*poolItem, arrs []arrival, tr *tracer, traced func(int) bool) []*sent {
	out := make([]*sent, len(arrs))
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrs) || ctx.Err() != nil {
					return
				}
				s := &sent{arr: arrs[i], it: pool[arrs[i].item], due: start.Add(arrs[i].at)}
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
				}
				s.late = time.Since(s.due)
				var t *tracer
				if traced(i) {
					t = tr
				}
				t0 := time.Now()
				s.status, s.view, s.err = h.post(ctx, t, int64(i+1), s.arr.body)
				s.postDur = time.Since(t0)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// settle polls every accepted job until it settles or limit passes.
// Polling starts after the arrival window, so the poller never competes
// with the work it measures: latencies come from the server's own stamps.
func (h *harness) settle(ctx context.Context, ss []*sent, limit time.Duration, tr *tracer, traced func(int) bool) {
	deadline := time.Now().Add(limit)
	for {
		pending := 0
		for i, s := range ss {
			if s == nil || s.status != http.StatusAccepted || settledState(s.view.State) {
				continue
			}
			var t *tracer
			if traced(i) {
				t = tr
			}
			var v jobView
			if err := h.get(ctx, t, "serve.poll", int64(i+1), "/jobs/"+s.view.ID, &v); err == nil {
				s.view = v
			}
			if !settledState(s.view.State) {
				pending++
			}
		}
		if pending == 0 || time.Now().After(deadline) || ctx.Err() != nil {
			return
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// serveMetrics is the part of /metrics the benchmark reads.
type serveMetrics map[string]any

func (m serveMetrics) count(keys ...string) float64 {
	var n float64
	for _, k := range keys {
		if v, ok := m[k].(float64); ok {
			n += v
		}
	}
	return n
}

func (m serveMetrics) cacheStat(k string) float64 {
	c, _ := m["cache"].(map[string]any)
	v, _ := c[k].(float64)
	return v
}

var rejectedKeys = []string{
	"rejected_full", "rejected_draining", "rejected_invalid", "rejected_cost",
	"rejected_breaker", "rejected_deadline", "rejected_too_large", "rejected_ingest",
	"rejected_bomb", "rejected_client_rate", "rejected_client_share", "rejected_client_queue",
}

// kind is one (pool item, iteration count) request shape; weight is how
// many of the equally drawn slots it takes.
type kind struct {
	item       string
	iterations int
	weight     int
}

// serveSpec is one serve workload's traffic.
type serveSpec struct {
	cache   bool
	workers int // jobs the server runs at once
	queue   int
	rate    float64 // arrivals per second, evenly spaced
	budget  string  // generous: never binds
	// deadline is the client deadline, empty for none.
	deadline string
	kinds    []kind
	// prefill lists the items set-up sends once and waits for: the cache
	// already knows them when the window opens.
	prefill []string
	// settle bounds the wait for the last jobs after the window.
	settle time.Duration
}

// serveCacheSpec runs below capacity against a cache that already holds
// the plans of five topologies, as a server that has been running would;
// set-up pays their cold admissions, ResNet-mini's included, whose
// verification costs about a hundred times its search. In the window a
// NASNet cell and the mlp model are new: their first sight is a cold miss
// that pays verified admission inline, and their repeats hit. nasnet-1's
// plan fails verification, so it never hits; it takes three slots, as
// the share of traffic that pays a refused admission on every request.
// unet-mini is also requested with another iteration count: the same
// graph with another budget is a near miss, so the warm path runs too.
var serveCacheSpec = serveSpec{
	cache: true, workers: 2, queue: 64, rate: 8, budget: "60s",
	kinds: []kind{
		{"resnet-mini", 6, 1}, {"nasnet-1", 6, 3}, {"nasnet-seeded", 6, 1},
		{"unet-mini", 6, 1}, {"unet-mini", 8, 1},
		{"unetpp-mini", 6, 1}, {"bert-mini", 6, 1}, {"gpt-mini", 6, 1}, {"mlp", 6, 1},
	},
	prefill: []string{"resnet-mini", "unet-mini", "unetpp-mini", "bert-mini", "gpt-mini"},
	settle:  60 * time.Second,
}

// serveOverloadSpec sends every pool item equally often at about one and
// a half times what the server can search, with no
// cache. The queue is deep enough that the client deadline, not queue
// slots, bounds the backlog: the EDF queue sheds what cannot make its
// deadline, and searches the deadline truncates answer degraded.
var serveOverloadSpec = serveSpec{
	workers: 1, queue: 64, rate: 8, budget: "60s", deadline: "2s",
	kinds: []kind{
		{"resnet-mini", 12, 1}, {"nasnet-1", 12, 1}, {"nasnet-seeded", 12, 1},
		{"unet-mini", 12, 1}, {"unetpp-mini", 12, 1}, {"bert-mini", 12, 1},
		{"gpt-mini", 12, 1}, {"mlp", 12, 1},
	},
	settle: 30 * time.Second,
}

func runServeCache(ctx context.Context, cfg runCfg) (*report, error) {
	return runServe(ctx, cfg, serveCacheSpec)
}

func runServeOverload(ctx context.Context, cfg runCfg) (*report, error) {
	return runServe(ctx, cfg, serveOverloadSpec)
}

func itemIndex(pool []*poolItem, name string) int {
	for i, it := range pool {
		if it.name == name {
			return i
		}
	}
	panic("perfbench: no pool item " + name)
}

// requests draws the workload's schedule over the pool: every kind slot
// equally often, in a seeded order.
func (sp serveSpec) requests(seed int64, window time.Duration, pool []*poolItem) []arrival {
	var slots []kind
	for _, k := range sp.kinds {
		for i := 0; i < k.weight; i++ {
			slots = append(slots, k)
		}
	}
	return schedule(seed, sp.rate, window, func(r *rand.Rand, n int) []arrival {
		out := make([]arrival, n)
		for i, c := range balanced(r, n, len(slots)) {
			k := slots[c]
			item := itemIndex(pool, k.item)
			out[i] = arrival{item: item, body: pool[item].body(k.iterations, sp.budget, sp.deadline)}
		}
		return out
	})
}

// kind returns the first kind of the named item.
func (sp serveSpec) kind(item string) kind {
	for _, k := range sp.kinds {
		if k.item == item {
			return k
		}
	}
	panic("perfbench: no kind for " + item)
}

type serveEnv struct {
	pool []*poolItem
	h    *harness
	// prefilled are set-up's requests: checked like the rest, but not
	// measured.
	prefilled []*sent
}

func runServe(ctx context.Context, cfg runCfg, sp serveSpec) (*report, error) {
	m := cost.NewModel(cost.RTX3090())
	n := 0
	env, setupS, err := setupMedian(func() (*serveEnv, error) {
		pool, err := servePool(cfg.seed, m)
		if err != nil {
			return nil, err
		}
		dir := ""
		if sp.cache {
			n++
			dir = filepath.Join(cfg.dir, fmt.Sprintf("cache-%d-%d", os.Getpid(), n))
		}
		h, err := startHarness(m, dir, sp.workers, sp.queue)
		if err != nil {
			return nil, err
		}
		// Warm-up: one request for a graph outside the pool (no pool
		// topology, so no pool request can warm-start from it) exercises
		// the HTTP, ingest and search paths.
		var buf bytes.Buffer
		err = graphio.Save(&buf, models.MLP(8, 16, 32, 10, 2).G, nil)
		if err == nil {
			warm := &poolItem{name: "warm-up", doc: buf.Bytes(), mode: "mem", limit: 0.10}
			_, err = h.settleAll(ctx, []*poolItem{warm}, []arrival{{body: warm.body(1, "10s", "")}}, nil, never)
		}
		var pre []*sent
		if err == nil {
			pre, err = prefill(ctx, h, pool, sp)
		}
		if err != nil {
			h.close()
			return nil, err
		}
		return &serveEnv{pool: pool, h: h, prefilled: pre}, nil
	}, func(e *serveEnv) { e.h.close() })
	if err != nil {
		return nil, err
	}
	defer env.h.close()
	pool, h := env.pool, env.h

	arrs := sp.requests(cfg.seed, cfg.window, pool)
	// A traced run traces every other request; the untraced ones between
	// them give the tracing overhead.
	traced := func(i int) bool { return cfg.tr != nil && i%2 == 1 }
	ss := h.drive(ctx, pool, arrs, cfg.tr, traced)
	h.settle(ctx, ss, sp.settle, cfg.tr, traced)
	var met serveMetrics
	if err := h.get(ctx, cfg.tr, "serve.metrics", 0, "/metrics", &met); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	rep.attempted = len(ss)
	var (
		units      []outcome
		memR, latR []float64
		acct       = map[string]map[string]int{}
		// plans collects each item's served quality per class.
		plans = map[string][]float64{}
	)
	note := func(class, what string) {
		if acct[class] == nil {
			acct[class] = map[string]int{}
		}
		acct[class][what]++
	}
	for _, s := range ss {
		u := s.outcome()
		units = append(units, u)
		c := s.class()
		it := s.it
		switch {
		case s.err != nil:
			note(c, "sent")
			note(c, "failed")
			rep.failed++
		case s.status != http.StatusAccepted:
			note("refused", s.view.Reason)
			// Deliberate overload answers (429, 422 deadline, 503 breaker)
			// are the service working; anything else is a failure.
			if s.status != http.StatusTooManyRequests && s.status != http.StatusUnprocessableEntity && s.status != http.StatusServiceUnavailable {
				rep.failed++
			}
		case s.view.State == "done":
			note(c, "sent")
			note(c, "succeeded")
			r := s.view.Result
			if r == nil {
				rep.mismatch("job %s done without a result", s.view.ID)
				continue
			}
			if r.Degraded {
				note(c, "degraded")
			}
			ratio := float64(r.PeakMemBytes) / float64(it.base.PeakMem)
			if it.mode == "latency" {
				ratio = r.LatencySec / it.base.Latency
				latR = append(latR, ratio)
			} else {
				memR = append(memR, ratio)
			}
			plans[it.name+"/"+it.mode+"/"+c] = append(plans[it.name+"/"+it.mode+"/"+c], ratio)
		case s.view.State == "shed":
			note(c, "sent")
			note(c, "shed")
		default:
			note(c, "sent")
			note(c, "failed")
			rep.failed++
		}
	}
	vsBase := map[string]float64{}
	for k, xs := range plans {
		vsBase[k] = geomean(xs)
	}
	rep.accounting = map[string]any{"requests": acct, "plans_vs_baseline": vsBase}
	lat := latencies(units, (cfg.window + sp.settle).Seconds())
	settled := 0
	for _, u := range units {
		if u.settled {
			settled++
		}
	}
	rep.e2e["setup_s"] = setupS
	rep.e2e["p50_s"] = median(lat)
	rep.e2e["tail_s"] = tail(units)
	// Every answer is goodput, degraded ones included: the server settles
	// a deadline-truncated search at its deadline with its best-so-far
	// plan, and whether that lands just before or just after the
	// deadline, or completes its last expansion first, is a race that
	// moved a stricter count by a third between runs. The degraded share
	// is reported apart.
	rep.e2e["goodput_rps"] = float64(settled) / busySpan(ss).Seconds()
	rep.e2e["ok_share"] = float64(settled) / float64(len(ss))
	rep.e2e["mem_ratio"] = geomean(memR)
	rep.e2e["lat_ratio"] = geomean(latR)
	rep.e2e["peak_rss_mb"] = peakRSSMB()

	var acc optAcc
	budget, _ := time.ParseDuration(sp.budget)
	bests := checkServed(ctx, rep, append(append([]*sent(nil), env.prefilled...), ss...), m, budget, &acc)

	if cfg.tr != nil {
		var trLat, untrLat []float64
		for i, x := range lat {
			if traced(i) {
				trLat = append(trLat, x)
			} else {
				untrLat = append(untrLat, x)
			}
		}
		rep.layer["trace.overhead_share"] = median(trLat) / median(untrLat)
		acc.report(rep.layer)
		in := replayIn{sent: ss, met: met, acc: &acc}
		for _, it := range pool {
			in.graphs = append(in.graphs, it.g)
			in.docs = append(in.docs, it.doc)
			in.bests = append(in.bests, bests[it])
			in.verify = append(in.verify, true)
		}
		if err := replay(ctx, cfg, m, rep, in); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// busySpan is the time from the first scheduled send to the last
// answer: the span over which the workload's goodput is delivered.
func busySpan(ss []*sent) time.Duration {
	var first, last time.Time
	for _, s := range ss {
		if first.IsZero() || s.due.Before(first) {
			first = s.due
		}
		end := s.due.Add(s.postDur)
		if s.view.Finished != nil && s.view.Finished.After(end) {
			end = *s.view.Finished
		}
		if end.After(last) {
			last = end
		}
	}
	return last.Sub(first)
}

// prefill sends each prefill item once and waits until all are admitted
// to the cache.
func prefill(ctx context.Context, h *harness, pool []*poolItem, sp serveSpec) ([]*sent, error) {
	var arrs []arrival
	for _, name := range sp.prefill {
		i := itemIndex(pool, name)
		arrs = append(arrs, arrival{item: i, body: pool[i].body(sp.kind(name).iterations, sp.budget, sp.deadline)})
	}
	return h.settleAll(ctx, pool, arrs, nil, never)
}

func never(int) bool { return false }

// settleAll sends arrs, waits for every job, and fails unless each one
// ended done.
func (h *harness) settleAll(ctx context.Context, pool []*poolItem, arrs []arrival, tr *tracer, traced func(int) bool) ([]*sent, error) {
	ss := h.drive(ctx, pool, arrs, tr, traced)
	h.settle(ctx, ss, time.Minute, tr, traced)
	for _, s := range ss {
		if s == nil {
			return nil, ctx.Err()
		}
		if s.status != http.StatusAccepted || s.view.State != "done" {
			return nil, fmt.Errorf("request for %s ended %d %q %s", s.it.name, s.status, s.view.State, s.view.Error)
		}
	}
	return ss, nil
}

// checkServed checks served results against independent computations:
// every plain miss equals a direct OptimizeCtx of the same graph and
// options, and every hit equals the result that filled its entry.
// It returns one directly searched best state per pool item, for the
// replay pass.
func checkServed(ctx context.Context, rep *report, ss []*sent, m *cost.Model, budget time.Duration, acc *optAcc) map[*poolItem]*opt.State {
	type key struct {
		it         *poolItem
		iterations int
	}
	keyOf := func(s *sent) key { return key{s.it, s.iterations()} }
	bests := map[*poolItem]*opt.State{}
	type fill struct {
		at      time.Time
		peak    int64
		latency float64
	}
	fills := map[key][]fill{}
	direct := map[key]*opt.Result{}
	for _, s := range ss {
		if s == nil || s.class() == "none" || s.view.Result == nil || s.view.Result.Degraded {
			continue
		}
		r := s.view.Result
		k := keyOf(s)
		switch s.class() {
		case "miss", "warm", "shared":
			fills[k] = append(fills[k], fill{*s.view.Finished, r.PeakMemBytes, r.LatencySec})
		}
		if s.class() != "miss" {
			continue
		}
		d, ok := direct[k]
		if !ok {
			var err error
			d, err = acc.run(ctx, k.it.g, m, k.it.options(k.iterations, budget))
			if err != nil {
				rep.mismatch("direct search of %s: %v", k.it.name, err)
				continue
			}
			direct[k] = d
			bests[k.it] = d.Best
		}
		if d.Best.PeakMem != r.PeakMemBytes || !sameLatency(d.Best.Latency, r.LatencySec) || d.Stats.Iterations != r.Iterations {
			rep.mismatch("job %s (%s, %d iterations): served peak %d latency %v iterations %d, direct search reached %d %v %d",
				s.view.ID, k.it.name, k.iterations, r.PeakMemBytes, r.LatencySec, r.Iterations,
				d.Best.PeakMem, d.Best.Latency, d.Stats.Iterations)
		}
	}
	for _, s := range ss {
		if s == nil || s.class() != "hit" {
			continue
		}
		k := keyOf(s)
		fs := fills[k]
		sort.Slice(fs, func(i, j int) bool { return fs[i].at.Before(fs[j].at) })
		var src *fill
		for i := range fs {
			if s.view.Started != nil && !fs[i].at.After(*s.view.Started) {
				src = &fs[i]
			}
		}
		r := s.view.Result
		switch {
		case src == nil:
			rep.mismatch("hit %s (%s) has no earlier result that could have filled its entry", s.view.ID, k.it.name)
		case src.peak != r.PeakMemBytes || !sameLatency(src.latency, r.LatencySec):
			rep.mismatch("hit %s (%s): served peak %d latency %v, its entry was filled with %d %v",
				s.view.ID, k.it.name, r.PeakMemBytes, r.LatencySec, src.peak, src.latency)
		}
	}
	return bests
}

// serveLayers derives the serve and plancache per-layer numbers from the
// job views and /metrics.
func serveLayers(layer map[string]float64, ss []*sent, budget time.Duration, mets ...serveMetrics) {
	by := map[string]struct{ post, wait, run, lat []float64 }{}
	var est, late []float64
	for _, s := range ss {
		if s == nil {
			continue
		}
		late = append(late, float64(s.late.Nanoseconds())/1e6)
		c := s.class()
		if c == "none" || s.view.Started == nil {
			continue
		}
		e := by[c]
		e.post = append(e.post, float64(s.postDur.Nanoseconds())/1e6)
		e.wait = append(e.wait, s.view.Started.Sub(s.view.Created).Seconds())
		run := s.view.Finished.Sub(*s.view.Started).Seconds()
		e.run = append(e.run, run)
		e.lat = append(e.lat, s.outcome().lat)
		by[c] = e
		if c == "miss" {
			o := s.it.options(s.iterations(), budget)
			o.Workers = 0
			if e := opt.EstimateSearchTime(s.it.g.Len(), o); e > 0 {
				est = append(est, run/e.Seconds())
			}
		}
	}
	for _, c := range []string{"hit", "warm", "miss"} {
		e := by[c]
		layer["serve.post_ms."+c] = median(e.post)
		layer["serve.queue_wait_s."+c] = median(e.wait)
		layer["serve.run_s."+c] = median(e.run)
	}
	layer["serve.hit_p50_ms"] = 1e3 * median(by["hit"].lat)
	layer["serve.hit_p90_ms"] = 1e3 * percentile(by["hit"].lat, 90)
	layer["serve.warm_p50_s"] = median(by["warm"].lat)
	layer["serve.cold_p50_s"] = median(by["miss"].lat)
	layer["serve.est_ratio"] = median(est)
	layer["gen.late_p99_ms"] = percentile(late, 99)
	for _, k := range []string{"serve.shed", "serve.degraded", "serve.rejected", "serve.shared", "plancache.put_rejected"} {
		layer[k] = 0
	}
	for _, met := range mets {
		layer["serve.shed"] += met.count("shed_expired", "shed_evicted")
		layer["serve.degraded"] += met.count("degraded")
		layer["serve.rejected"] += met.count(rejectedKeys...)
		layer["serve.shared"] += met.count("flight_shared")
		layer["plancache.put_rejected"] += met.cacheStat("put_rejected")
	}
}
