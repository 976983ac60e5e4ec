package serve

// How a request ends, each path written once: refuse turns a request
// away at admission, settle ends an admitted job, and the counter table
// declares every counter under its /metrics key. Every admitted job
// leaves through settle, which bumps exactly one terminal counter, so
//
//	admitted == completed + failed + cancelled + shed_expired + shed_evicted
//
// holds by construction.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// counterKeys is the counter table: every counter the server keeps,
// declared once under its /metrics key. /metrics renders all of it.
var counterKeys = []string{
	// Admission, by plan-cache class, and re-admission from a checkpoint.
	"admitted", "admitted_hit", "admitted_warm", "admitted_cold", "resumed",
	// Settles: the five terminal counters, plus degraded answers.
	"completed", "failed", "cancelled", "shed_expired", "shed_evicted", "degraded",
	// Refusals, one counter per gate.
	"rejected_full", "rejected_draining", "rejected_invalid", "rejected_cost",
	"rejected_breaker", "rejected_deadline", "rejected_too_large", "rejected_ingest",
	"rejected_bomb", "rejected_client_rate", "rejected_client_share", "rejected_client_queue",
	// Search supervision, persistence and the memory governor.
	"expansions", "stalled", "breaker_trips",
	"ckpt_quarantined", "storage_faults", "storage_degraded_jobs", "storage_recoveries",
	"checkpoints_gced", "governor_stops", "governor_evicted_states",
}

// cacheCounterKeys are the plan-cache outcomes, counted per job; /metrics
// reports them only when a cache is configured.
var cacheCounterKeys = []string{"cache_hits", "cache_misses", "cache_warm_starts", "flight_shared"}

// metrics holds one atomic per counter-table key. The map is built once
// by newMetrics and only read afterwards, so lookups take no lock.
type metrics map[string]*atomic.Int64

func newMetrics() metrics {
	m := make(metrics, len(counterKeys)+len(cacheCounterKeys))
	for _, keys := range [][]string{counterKeys, cacheCounterKeys} {
		for _, k := range keys {
			m[k] = new(atomic.Int64)
		}
	}
	return m
}

// add bumps a counter. A key missing from the table is a programming
// error, caught by TestCounterKeysDeclared.
func (m metrics) add(key string, n int64) {
	c, ok := m[key]
	if !ok {
		panic("serve: counter " + key + " is not in the counter table")
	}
	c.Add(n)
}

func (m metrics) get(key string) int64 { return m[key].Load() }

// render writes the counters of keys into out.
func (m metrics) render(out map[string]any, keys []string) {
	for _, k := range keys {
		out[k] = m.get(k)
	}
}

// count bumps a counter and, for the ones the fairness ledger also keeps
// per client, that client's own.
func (s *Server) count(client, key string) {
	s.met.add(key, 1)
	s.clients.count(client, key)
}

// retryBacklog asks refuse to derive Retry-After from the backlog left
// once the refused request's own reservation is handed back.
const retryBacklog = -1

// refusal is one admission gate turning a request away.
type refusal struct {
	code    int    // HTTP status
	reason  string // stable machine-readable reason code
	counter string // counter-table key
	retry   int    // Retry-After seconds; 0 = no header
	client  string // the identity charged, once resolved
	msg     string
}

// refuse turns a request away. j is the job admission had built for it,
// nil when a gate before newJob refused. Everything admission reserved is
// handed back first, so the backlog behind the Retry-After hint no longer
// counts this request.
func (s *Server) refuse(w http.ResponseWriter, j *job, no *refusal) {
	if j != nil {
		s.unadmit(j)
	}
	s.count(no.client, no.counter)
	if no.retry == retryBacklog {
		no.retry = s.retryAfter()
	}
	if no.retry > 0 {
		w.Header().Set("Retry-After", fmt.Sprint(no.retry))
	}
	httpReject(w, no.code, no.reason, no.msg)
}

// unadmit hands back what admission reserved for a job that will never
// run: its cost hold, its half-open breaker probe slot, and its job-table
// entry. Restart recovery uses it when the queue has no room.
func (s *Server) unadmit(j *job) {
	s.releaseCost(j)
	s.abandonProbe(j)
	s.forget(j)
}

// outcome is how an admitted job ends.
type outcome int

const (
	outDone outcome = iota
	outDegraded
	outFailed
	outCancelled
	outShedExpired
	outShedEvicted
)

// settle ends a job. err is the failure (failed, or degraded after an
// error) or the reason (cancelled); sum is the result payload (done,
// degraded). A job that is neither queued nor running has settled
// already, and settle leaves it alone.
//
// The breaker's verdict follows from the outcome: a plan served without
// error succeeds; a failure fails, unless the client's clock or a
// cancellation cut the search short; anything else carries no verdict
// and only hands back a held probe slot. Only a cancelled job keeps its
// checkpoint, because only it may resume.
func (s *Server) settle(j *job, o outcome, err error, sum *jobSummary) {
	state, key, msg := stateDone, "completed", ""
	switch o {
	case outFailed:
		state, key, msg = stateFailed, "failed", err.Error()
	case outCancelled:
		state, key, msg = stateCancelled, "cancelled", err.Error()
	case outShedExpired:
		state, key, msg = stateShed, "shed_expired", "shed: deadline cannot be met"
	case outShedEvicted:
		state, key, msg = stateShed, "shed_evicted", "shed: evicted under pressure for more urgent work"
	}
	j.mu.Lock()
	if j.state != stateQueued && j.state != stateRunning {
		j.mu.Unlock()
		return
	}
	j.state, j.err, j.summary = state, msg, sum
	j.finished = time.Now()
	j.mu.Unlock()

	s.met.add(key, 1)
	if o == outDegraded {
		s.met.add("degraded", 1)
	}
	bkey := breakerKey(j.wlName, j.req.Scale, j.req.Mode)
	clientCut := errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
	switch {
	case o == outDone || o == outDegraded && err == nil:
		s.brk.succeed(bkey, j.probe)
	case (o == outFailed || o == outDegraded) && !clientCut:
		// A workload that only ever limps home on a fallback tier must
		// still trip; a failed probe re-opens its gate.
		if s.brk.fail(bkey, time.Now()) || j.probe {
			s.met.add("breaker_trips", 1)
			s.cfg.Logf("serve: breaker opened for %s", bkey)
		}
	default:
		s.abandonProbe(j)
	}
	s.releaseCost(j)

	detail := msg
	if o == outDegraded {
		detail = "degraded to " + sum.DegradedTier
		if err != nil {
			detail += " after error: " + err.Error()
		}
	}
	if o != outCancelled {
		s.removeCheckpoint(j)
	} else if s.checkpointExists(j) {
		detail += "; checkpoint retained for resume"
	}
	if detail != "" {
		detail = ": " + detail
	}
	s.cfg.Logf("serve: %s %s%s", j.id, state, detail)
}
