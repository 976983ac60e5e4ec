// Package serve is the supervised service front-end for long-running
// MAGIS searches: an HTTP API over a bounded job queue with admission
// control, per-job panic isolation, a stall watchdog, and crash-safe
// drain built on the search checkpoints of internal/opt.
//
// Operational posture:
//
//   - Admission is non-blocking and resource-aware: every request is
//     priced up-front (graph size, search budget, plan-cache class) and
//     admitted against a concurrent-cost budget; a full queue or an
//     exhausted budget rejects with 429 and a backlog-derived Retry-After
//     hint before any work starts; a draining server rejects with 503.
//   - Client deadlines ride into an earliest-deadline-first queue: jobs
//     whose deadline becomes unmeetable are shed before they occupy a
//     worker, and a search truncated by its deadline settles done with the
//     best-so-far plan explicitly marked degraded (internal/robust picks
//     the strongest servable tier).
//   - A per-workload circuit breaker (model|scale|mode) opens after
//     repeated failures, rejecting that workload for a cooloff and then
//     admitting a single half-open probe — a poison graph cannot
//     monopolize workers while healthy traffic starves.
//   - Every job runs under opt.Guard, so a panicking search marks one job
//     failed instead of killing the process.
//   - A watchdog cancels jobs that stop making expansion progress for a
//     stall window; a stalled job with a checkpoint is re-admitted once to
//     resume from its last snapshot.
//   - Drain (SIGTERM in cmd/magis-serve) stops admission, cancels
//     in-flight searches — each writes a final checkpoint on the way out —
//     and waits for the workers. A restarted server pointed at the same
//     checkpoint directory re-admits those jobs and resumes them.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"magis/internal/cost"
	"magis/internal/fsatomic"
	"magis/internal/graph"
	"magis/internal/ingest"
	"magis/internal/models"
	"magis/internal/opt"
	"magis/internal/plancache"
)

// Config configures a Server. Model is required; everything else has
// serviceable defaults.
type Config struct {
	// Model prices every search (required).
	Model *cost.Model
	// QueueDepth bounds the number of admitted-but-not-running jobs
	// (default 8). Beyond it, /optimize returns 429.
	QueueDepth int
	// Workers is the number of jobs run concurrently (default 1; each
	// search parallelizes internally via its own Workers option).
	Workers int
	// DefaultBudget is the search budget when a request omits one
	// (default 10s); MaxBudget caps what a request may ask for
	// (default 5m).
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// CheckpointDir enables crash-safe jobs: each search checkpoints into
	// <dir>/<job-id>.ckpt, and Start re-admits any checkpoints found there
	// (jobs interrupted by a previous drain or crash). Empty disables
	// checkpointing, stall resume, and restart recovery.
	CheckpointDir string
	// CheckpointEveryN is the snapshot flush cadence in expansions
	// (0 = the opt default).
	CheckpointEveryN int
	// StallWindow is how long a running job may go without completing an
	// expansion before the watchdog cancels it (default 30s; negative
	// disables the watchdog). StallPoll is the scan interval (default
	// StallWindow/4).
	StallWindow time.Duration
	StallPoll   time.Duration
	// Cache, when set, serves verified plans from the persistent plan
	// cache: exact hits answer without running a search, near misses
	// warm-start the search, and concurrent identical requests share one
	// in-flight search. Resumed jobs bypass the cache entirely, so the
	// kill-resume determinism guarantee is unchanged. Nil disables
	// caching.
	Cache *plancache.Cache
	// AdmitBudget bounds the total estimated service time (see
	// opt.EstimateSearchTime) held by admitted-but-unsettled jobs: beyond
	// it /optimize rejects with 429 even when queue slots remain, so a few
	// enormous cold searches cannot promise more work than the server can
	// deliver. Default 2×(QueueDepth+Workers)×DefaultBudget. An otherwise
	// idle server always admits one job regardless of its size.
	AdmitBudget time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// workload's circuit breaker (default 3; negative disables breakers).
	// BreakerCooloff is how long an open breaker rejects its workload
	// before admitting a half-open probe (default 30s).
	BreakerThreshold int
	BreakerCooloff   time.Duration
	// FailModel, when non-empty, makes every search of the named model fail
	// (fault injection for the chaos soak: a deterministic poison workload
	// that must trip its breaker without starving healthy traffic).
	FailModel string
	// FS is the filesystem checkpoints, recovery, and storage probes go
	// through; nil means the real OS. The chaos harness injects faults here
	// (internal/errfs) — note the plan cache carries its own FS in its own
	// Config.
	FS fsatomic.FS
	// MemBudget, when positive, runs every search under the opt memory
	// governor (opt.Options.MemBudget): past the budget the search sheds
	// frontier state and, if still over, stops with its best-so-far.
	MemBudget int64
	// StorageThreshold is the consecutive persistence-fault count that
	// flips storage health to degraded (default 3; negative disables the
	// machine). StorageCooloff is how long degraded holds before a
	// recovery probe (default 30s). While degraded, jobs run uncached and
	// uncheckpointed with a degraded_storage label instead of erroring.
	StorageThreshold int
	StorageCooloff   time.Duration
	// CheckpointGCAge and CheckpointGCMax bound restart recovery's
	// retention of orphaned checkpoints: snapshots older than the age
	// (default 24h) or beyond the count cap (default 64, oldest first) are
	// garbage-collected instead of re-admitted. Negative disables the
	// respective bound.
	CheckpointGCAge time.Duration
	CheckpointGCMax int
	// MaxBody bounds the /optimize request body in bytes (default 8 MiB).
	// Oversized bodies reject with 413 before the JSON decoder runs.
	MaxBody int64
	// Ingest bounds direct graph submissions (see internal/ingest); zero
	// fields take ingest.DefaultLimits. Only consulted when a request
	// carries a graph.
	Ingest ingest.Limits
	// ClientRate / ClientBurst configure the per-client request token
	// bucket (requests per second / bucket size). Zero rate disables it;
	// burst defaults to 8 when a rate is set.
	ClientRate  float64
	ClientBurst int
	// ClientShare is one client's fair-share fraction of AdmitBudget in
	// (0,1]: the estimated service time a single client identity may hold
	// concurrently. Zero disables per-client cost isolation.
	ClientShare float64
	// ClientQueue caps how many queued (not yet running) jobs one client
	// identity may hold. Zero disables the cap.
	ClientQueue int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 10 * time.Second
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 5 * time.Minute
	}
	if c.StallWindow == 0 {
		c.StallWindow = 30 * time.Second
	}
	if c.StallPoll <= 0 {
		c.StallPoll = c.StallWindow / 4
		if c.StallPoll <= 0 {
			c.StallPoll = time.Second
		}
	}
	if c.AdmitBudget <= 0 {
		c.AdmitBudget = 2 * time.Duration(c.QueueDepth+c.Workers) * c.DefaultBudget
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = 30 * time.Second
	}
	if c.StorageThreshold == 0 {
		c.StorageThreshold = 3
	}
	if c.StorageCooloff <= 0 {
		c.StorageCooloff = 30 * time.Second
	}
	if c.CheckpointGCAge == 0 {
		c.CheckpointGCAge = 24 * time.Hour
	}
	if c.CheckpointGCMax == 0 {
		c.CheckpointGCMax = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.ClientRate > 0 && c.ClientBurst <= 0 {
		c.ClientBurst = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the service. Create with New, wire Handler into an HTTP
// server, call Start, and Drain on shutdown.
type Server struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int64

	queue    *jobQueue
	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool
	inFlight atomic.Int64
	met      metrics

	// costInUse is the admission budget spent: estimated cost units
	// (milliseconds of predicted service time) held by jobs admitted but
	// not yet settled.
	costInUse atomic.Int64
	// brk isolates repeatedly failing workloads: one gate per
	// model|scale|mode key.
	brk *gates
	// storage is the persistence health gate, the single key ""; fsys is
	// the filesystem all serve-owned persistence goes through.
	storage *gates
	fsys    fsatomic.FS
	// wlStats memoizes per-(model, scale) workload facts for admission
	// estimates.
	wlMu    sync.Mutex
	wlStats map[string]*wlStats
	// clients is the per-client fairness ledger (rate, fair-share cost,
	// counters); a zero-configured ledger tracks nothing.
	clients *clientLedger

	// runSearch executes one job's search; replaced by tests to control
	// timing without real optimization work.
	runSearch searchFn

	// hitLat/missLat sample per-job service latency by cache outcome for
	// the /metrics percentiles.
	hitLat  latRing
	missLat latRing
}

// New builds a Server; call Start to launch its workers.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		jobs:    make(map[string]*job),
		wlStats: make(map[string]*wlStats),
		met:     newMetrics(),
	}
	s.queue = newJobQueue(s.cfg.QueueDepth, s.cfg.ClientQueue)
	s.clients = newClientLedger(s.cfg)
	s.stop = make(chan struct{})
	s.brk = newGates(s.cfg.BreakerThreshold, s.cfg.BreakerCooloff)
	s.storage = newGates(s.cfg.StorageThreshold, s.cfg.StorageCooloff)
	s.fsys = fsatomic.Or(s.cfg.FS)
	s.runSearch = s.searchJob
	return s
}

// Start launches the worker pool and the stall watchdog, and — when a
// checkpoint directory is configured — re-admits jobs a previous
// incarnation left checkpointed. It returns the number of recovered jobs.
func (s *Server) Start() int {
	recovered := s.recoverCheckpoints()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.StallWindow > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return recovered
}

// Drain stops admission, cancels every in-flight search (each writes its
// final checkpoint on the way out), marks still-queued jobs cancelled, and
// waits for the workers — or for ctx, whichever ends first.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.stop)
		// Settle everything still queued before closing the queue, so the
		// workers see closed-and-empty and exit instead of popping work.
		s.flushQueue()
		s.queue.close()
		// Running searches stop and checkpoint; a job popped but not yet
		// started settles cancelled when its worker gets to it.
		s.mu.Lock()
		for _, j := range s.jobs {
			j.interrupt(reasonDrain)
		}
		s.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Anything admitted in the instant between the draining check and
		// the workers exiting is cancelled, not silently stranded.
		s.flushQueue()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// OptimizeRequest is the /optimize POST body.
type OptimizeRequest struct {
	// Model names the workload (see internal/models.Names).
	Model string `json:"model"`
	// Graph, when present, submits an untrusted graph document (the
	// graphio file envelope) instead of naming a built-in model. It is
	// decoded and validated by internal/ingest — structural limits, dtype
	// and shape bounds, search-cost preflight — before any search work is
	// priced. Mutually exclusive with Model.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Client declares the caller's identity for per-client fairness
	// (rate limits, fair-share cost, queue occupancy). The X-Magis-Client
	// header is the fallback; empty means the shared anonymous identity.
	Client string `json:"client,omitempty"`
	// Scale is the batch-size scale factor in (0,1] (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Mode is "mem" (minimize memory under a latency limit, the default)
	// or "latency" (minimize latency under a memory limit).
	Mode string `json:"mode,omitempty"`
	// Limit is the constraint: allowed latency overhead for mode "mem"
	// (default 0.10), memory ratio vs baseline for mode "latency".
	Limit float64 `json:"limit,omitempty"`
	// Budget is the search time budget as a Go duration string
	// (default Config.DefaultBudget, capped at Config.MaxBudget).
	Budget string `json:"budget,omitempty"`
	// Deadline is how long the client will wait for the answer, as a Go
	// duration string measured from admission. The queue is
	// earliest-deadline-first; a job whose deadline becomes unmeetable is
	// shed instead of run, and a search truncated by its deadline returns
	// the verified best-so-far plan marked degraded. Empty means no
	// deadline (never shed, never degraded).
	Deadline string `json:"deadline,omitempty"`
	// Workers is the search's parallel evaluation width (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Iterations caps the number of search expansions (0 = budget-bound
	// only). Useful for smoke tests and fixed-work benchmark jobs.
	Iterations int `json:"iterations,omitempty"`
	// Verify numerically verifies the optimized plan (arena-safe
	// execution plus output cross-check against the unoptimized graph)
	// before the job settles; a failed verification fails the job.
	Verify bool `json:"verify,omitempty"`
	// VerifySeed seeds the verification inputs (default 0 stream).
	VerifySeed uint64 `json:"verify_seed,omitempty"`
}

// normalize validates the request and resolves defaults, returning the
// search budget and the client deadline (0 = none) measured from now.
func (r *OptimizeRequest) normalize(cfg Config) (time.Duration, time.Duration, error) {
	if len(r.Graph) > 0 {
		// Direct graph submission: the graph document is the workload.
		if r.Model != "" {
			return 0, 0, fmt.Errorf("request carries both graph and model: pick one")
		}
		if r.Scale != 0 && r.Scale != 1 {
			return 0, 0, fmt.Errorf("invalid scale %v: scale applies to named models only", r.Scale)
		}
		r.Scale = 1
	} else {
		known := false
		for _, n := range models.Names() {
			if strings.EqualFold(r.Model, n) {
				known = true
				break
			}
		}
		if !known {
			return 0, 0, fmt.Errorf("unknown model %q (want %s)", r.Model, strings.Join(models.Names(), "|"))
		}
		if r.Scale == 0 {
			r.Scale = 1
		}
		if r.Scale < 0 || r.Scale > 1 {
			return 0, 0, fmt.Errorf("invalid scale %v: must be in (0,1]", r.Scale)
		}
	}
	switch r.Mode {
	case "":
		r.Mode = "mem"
	case "mem", "latency":
	default:
		return 0, 0, fmt.Errorf("unknown mode %q: want mem or latency", r.Mode)
	}
	if r.Limit == 0 {
		r.Limit = 0.10
	}
	if r.Limit < 0 {
		return 0, 0, fmt.Errorf("invalid limit %v: must be >= 0", r.Limit)
	}
	if r.Workers < 0 {
		return 0, 0, fmt.Errorf("invalid workers %d: must be >= 0", r.Workers)
	}
	// Clamp to the cores actually available: workers is client-supplied,
	// and an absurd value would both oversubscribe the search and drive the
	// per-expansion admission estimate toward zero — a client-controlled
	// bypass of the cost budget and the deadline-feasibility check.
	if max := runtime.GOMAXPROCS(0); r.Workers > max {
		r.Workers = max
	}
	if r.Iterations < 0 {
		return 0, 0, fmt.Errorf("invalid iterations %d: must be >= 0", r.Iterations)
	}
	budget := cfg.DefaultBudget
	if r.Budget != "" {
		d, err := time.ParseDuration(r.Budget)
		if err != nil {
			return 0, 0, fmt.Errorf("invalid budget %q: %v", r.Budget, err)
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("invalid budget %q: must be positive", r.Budget)
		}
		budget = d
	}
	if budget > cfg.MaxBudget {
		budget = cfg.MaxBudget
	}
	var wait time.Duration
	if r.Deadline != "" {
		d, err := time.ParseDuration(r.Deadline)
		if err != nil {
			return 0, 0, fmt.Errorf("invalid deadline %q: %v", r.Deadline, err)
		}
		if d <= 0 {
			return 0, 0, fmt.Errorf("invalid deadline %q: must be positive", r.Deadline)
		}
		wait = d
	}
	return budget, wait, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	j, no := s.admit(w, r)
	if no != nil {
		s.refuse(w, j, no)
		return
	}
	s.cfg.Logf("serve: admitted %s (%s, client %s, budget %v, class %s, est %v)",
		j.id, j.wlName, j.client, j.budget, j.class, j.estServe)
	w.Header().Set("Location", "/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, s.jobView(j))
}

// admit runs a request through the admission gates, cheapest first, and
// queues the job. On refusal it returns why, along with the job admission
// had built so far (nil before newJob) for refuse to hand back.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (*job, *refusal) {
	client := ""
	no := func(code int, reason, counter string, retry int, format string, args ...any) *refusal {
		return &refusal{code: code, reason: reason, counter: counter, retry: retry,
			client: client, msg: fmt.Sprintf(format, args...)}
	}
	if s.draining.Load() {
		return nil, no(http.StatusServiceUnavailable, "draining", "rejected_draining", 0,
			"draining: not admitting new jobs")
	}

	// The body is untrusted: bound its size before the decoder allocates
	// anything, and reject unknown fields so a typo'd request fails loudly
	// instead of silently running with defaults.
	var req OptimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			return nil, no(http.StatusRequestEntityTooLarge, "too-large", "rejected_too_large", 0,
				"request body exceeds %d bytes", s.cfg.MaxBody)
		case strings.Contains(err.Error(), "unknown field"):
			return nil, no(http.StatusBadRequest, "unknown-field", "rejected_invalid", 0, "bad request body: %v", err)
		default:
			return nil, no(http.StatusBadRequest, "syntax", "rejected_invalid", 0, "bad request body: %v", err)
		}
	}

	var err error
	if client, err = resolveClient(req.Client, r.Header.Get("X-Magis-Client")); err != nil {
		return nil, no(http.StatusBadRequest, "client", "rejected_invalid", 0, "invalid client identity: %v", err)
	}
	budget, wait, err := req.normalize(s.cfg)
	if err != nil {
		return nil, no(http.StatusBadRequest, "invalid", "rejected_invalid", 0, "%v", err)
	}

	// Per-client rate limit: the cheapest gate, charged before any
	// per-request pricing or ingestion work runs on the client's behalf.
	if ok, after := s.clients.allow(client, time.Now()); !ok {
		return nil, no(http.StatusTooManyRequests, "client-rate", "rejected_client_rate", after,
			"client %q over its request rate: retry later", client)
	}

	// Untrusted graph ingestion: strict decode under structural limits,
	// then the search-cost preflight. Everything here is bounded by
	// Config.Ingest, so a hostile document is refused with a structured
	// reason before it can cost the server anything.
	var g *graph.Graph
	if len(req.Graph) > 0 {
		decoded, _, err := ingest.Decode(bytes.NewReader(req.Graph), s.cfg.Ingest)
		if err == nil {
			err = ingest.Preflight(decoded, opt.Options{Workers: req.Workers}, s.cfg.Ingest)
		}
		if err != nil {
			code, reason, counter := http.StatusBadRequest, "ingest", "rejected_ingest"
			if ie := ingest.AsError(err); ie != nil {
				code, reason = ie.HTTPStatus(), string(ie.Reason)
			}
			switch {
			case code == http.StatusRequestEntityTooLarge:
				counter = "rejected_too_large"
			case reason == string(ingest.ReasonSearchBomb):
				counter = "rejected_bomb"
			}
			return nil, no(code, reason, counter, 0, "graph rejected: %v", err)
		}
		g = decoded
	}

	// Circuit breaker: a workload that keeps failing is rejected outright
	// (except the half-open probe) so it cannot monopolize workers. A
	// request admitted here as the probe owns the half-open slot from this
	// point on; refuse and settle hand it back. Graph submissions key the
	// breaker by content hash, so a poison graph resubmitted verbatim
	// trips its own breaker.
	wlname := req.Model
	if g != nil {
		wlname = graphWorkloadName(g)
	}
	bkey := breakerKey(wlname, req.Scale, req.Mode)
	retry, ok, probe := s.brk.allow(bkey, time.Now())
	if !ok {
		return nil, no(http.StatusServiceUnavailable, "breaker", "rejected_breaker", int(retry/time.Second)+1,
			"workload %s is circuit-broken after repeated failures: retry later", bkey)
	}

	j := s.newJob(req, budget, client, g)
	j.probe = probe
	if wait > 0 {
		j.deadline = j.created.Add(wait)
	}
	if err := s.estimateJob(j); err != nil {
		return j, no(http.StatusBadRequest, "invalid", "rejected_invalid", 0, "%v", err)
	}

	// Doomed on arrival: the deadline cannot be met even if a worker were
	// free right now — shed at the door, before any queue slot is spent.
	if doomed(j, time.Now()) {
		return j, no(http.StatusUnprocessableEntity, "deadline", "rejected_deadline", 0,
			"deadline %v is below the minimum feasible service time %v", wait, j.minServe)
	}

	// Resource-aware admission: the job's estimated cost must fit both the
	// client's fair share and the global concurrent-cost budget. Reserve
	// first, check after — holdCost's serialized adds mean concurrent
	// arrivals cannot all read the same pre-reservation total and jointly
	// overshoot either budget. The one deliberate exception survives at
	// both levels: an otherwise idle server (or idle client) admits one
	// job regardless of size, so an oversized request degrades to
	// one-at-a-time service instead of permanent rejection.
	budgetUnits := costUnits(s.cfg.AdmitBudget)
	tot := s.holdCost(j)
	if share := s.clients.shareUnits; share > 0 && tot.clientHeld > share && tot.clientHeld != j.estUnits {
		return j, no(http.StatusTooManyRequests, "client-share", "rejected_client_share", retryBacklog,
			"client %q over its fair share (%dms held + %dms requested > %dms): retry later",
			client, tot.clientHeld-j.estUnits, j.estUnits, share)
	}
	if tot.total > budgetUnits && tot.total != j.estUnits {
		return j, no(http.StatusTooManyRequests, "budget", "rejected_cost", retryBacklog,
			"admission budget exhausted (%dms held + %dms requested > %dms): retry later",
			tot.total-j.estUnits, j.estUnits, budgetUnits)
	}

	// Non-blocking admission: a full queue sheds (expired first, then the
	// cheapest laxer victim for deadline-urgent work) or rejects before
	// any search starts, so overload never builds an unbounded backlog.
	// The cost hold already landed above: once queued, a worker may
	// settle (and release) the job at any moment. A per-client occupancy
	// rejection is the client's own doing and evicts nobody.
	switch s.admitQueued(j) {
	case pushClientFull:
		return j, no(http.StatusTooManyRequests, "client-queue", "rejected_client_queue", retryBacklog,
			"client %q holds its full queue allotment (%d): retry later", client, s.cfg.ClientQueue)
	case pushFull:
		return j, no(http.StatusTooManyRequests, "queue-full", "rejected_full", retryBacklog,
			"queue full (%d queued): retry later", s.cfg.QueueDepth)
	}
	s.count(client, "admitted")
	s.met.add("admitted_"+j.class.String(), 1)
	return j, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(j))
}

// handleHealthz reports liveness plus the load picture an orchestrator
// needs for readiness decisions: queue occupancy and in-flight work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.mu.Lock()
	total := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, code, map[string]any{
		"status":         status,
		"queue_depth":    s.queue.Len(),
		"queue_capacity": s.cfg.QueueDepth,
		"in_flight":      s.inFlight.Load(),
		"jobs":           total,
		"cost_in_use_ms": s.costInUse.Load(),
		"cost_budget_ms": costUnits(s.cfg.AdmitBudget),
		"breaker_open":   s.brk.openCount(),
		"storage":        storageState(s.storage),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"in_flight":      s.inFlight.Load(),
		"queue_depth":    int64(s.queue.Len()),
		"breaker_open":   int64(s.brk.openCount()),
		"cost_in_use_ms": s.costInUse.Load(),
		"cost_budget_ms": costUnits(s.cfg.AdmitBudget),
		"storage_state":  storageState(s.storage),
	}
	s.met.render(out, counterKeys)
	if s.clients.enabled() {
		out["clients"] = s.clients.snapshot()
	}
	if s.cfg.Cache != nil {
		s.met.render(out, cacheCounterKeys)
		out["cache"] = s.cfg.Cache.Stats()
		out["cache_hit_latency_sec"] = s.hitLat.percentiles()
		out["cache_miss_latency_sec"] = s.missLat.percentiles()
	}
	writeJSON(w, http.StatusOK, out)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpReject writes a structured rejection: the human-readable error plus
// a stable machine-readable reason code clients (and the hostile chaos
// harness) can branch on without parsing prose.
func httpReject(w http.ResponseWriter, code int, reason, msg string) {
	writeJSON(w, code, map[string]string{"error": msg, "reason": reason})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
