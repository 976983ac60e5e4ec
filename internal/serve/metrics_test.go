package serve

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"magis/internal/opt"
	"magis/internal/plancache"
)

// jsonShape reduces a decoded JSON value to its shape: objects keep their
// keys with each value's shape, everything else becomes its JSON type.
func jsonShape(v any) any {
	switch v := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(v))
		for k, e := range v {
			out[k] = jsonShape(e)
		}
		return out
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case []any:
		return "array"
	default:
		return "null"
	}
}

// TestMetricsAndHealthzShape pins the key set and the JSON type of every
// value /metrics and /healthz report, with and without a plan cache and
// per-client fairness. Operators, the chaos harnesses and the benchmark
// read these keys by name, so a refactor of how the counters are kept
// must leave this shape unchanged.
func TestMetricsAndHealthzShape(t *testing.T) {
	const n, s = "number", "string"
	base := map[string]any{
		"admitted": n, "admitted_hit": n, "admitted_warm": n, "admitted_cold": n,
		"completed": n, "failed": n, "cancelled": n, "stalled": n, "resumed": n,
		"expansions": n, "degraded": n, "shed_expired": n, "shed_evicted": n,
		"rejected_full": n, "rejected_draining": n, "rejected_invalid": n,
		"rejected_cost": n, "rejected_breaker": n, "rejected_deadline": n,
		"rejected_too_large": n, "rejected_ingest": n, "rejected_bomb": n,
		"rejected_client_rate": n, "rejected_client_share": n, "rejected_client_queue": n,
		"breaker_trips": n, "breaker_open": n, "ckpt_quarantined": n,
		"in_flight": n, "queue_depth": n, "cost_in_use_ms": n, "cost_budget_ms": n,
		"storage_state": s, "storage_faults": n, "storage_degraded_jobs": n,
		"storage_recoveries": n, "checkpoints_gced": n,
		"governor_stops": n, "governor_evicted_states": n,
	}
	latency := map[string]any{"count": n, "p50": n, "p90": n, "p99": n}
	withCache := map[string]any{
		"cache_hits": n, "cache_misses": n, "cache_warm_starts": n, "flight_shared": n,
		"cache": map[string]any{
			"entries": n, "hits": n, "misses": n, "near_hits": n, "puts": n,
			"put_rejected": n, "put_errors": n, "quarantined": n,
			"quarantine_evicted": n, "collisions": n, "evictions": n, "flights_shared": n,
		},
		"cache_hit_latency_sec":  latency,
		"cache_miss_latency_sec": latency,
	}
	withClients := map[string]any{
		"clients": map[string]any{
			"anon": map[string]any{
				"admitted": n, "settled": n, "cost_held_ms": n, "jobs_unsettled": n,
				"rejected_rate": n, "rejected_share": n, "rejected_queue": n,
			},
		},
	}
	healthz := map[string]any{
		"status": s, "queue_depth": n, "queue_capacity": n, "in_flight": n, "jobs": n,
		"cost_in_use_ms": n, "cost_budget_ms": n, "breaker_open": n, "storage": s,
	}

	for _, tc := range []struct {
		name           string
		cache, clients bool
	}{
		{"plain", false, false},
		{"cache", true, false},
		{"fairness", false, true},
		{"cache+fairness", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Model: testModel(), StallWindow: -1}
			want := map[string]any{}
			for k, v := range base {
				want[k] = v
			}
			if tc.cache {
				cfg.Cache = testCache(t)
				for k, v := range withCache {
					want[k] = v
				}
			}
			if tc.clients {
				cfg.ClientQueue = 4
				for k, v := range withClients {
					want[k] = v
				}
			}
			srv := New(cfg)
			srv.runSearch = func(ctx context.Context, j *job) (*opt.Result, error) {
				return tinyResult(opt.StopConverged), nil
			}
			srv.Start()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer drainServer(t, srv)

			// One settled job puts the anonymous client in the ledger.
			code, body := post(t, ts, `{"model":"mlp"}`)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d %v", code, body)
			}
			waitFor(t, "job to settle", func() bool {
				_, v := get(t, ts, "/jobs/"+body["id"].(string))
				return v["state"] == stateDone
			})

			_, m := get(t, ts, "/metrics")
			if got := jsonShape(m); !reflect.DeepEqual(got, want) {
				t.Errorf("/metrics shape\n got %v\nwant %v", got, want)
			}
			_, h := get(t, ts, "/healthz")
			if got := jsonShape(h); !reflect.DeepEqual(got, healthz) {
				t.Errorf("/healthz shape\n got %v\nwant %v", got, healthz)
			}
		})
	}
}

// TestCounterKeysDeclared: metrics.add panics on a key missing from the
// counter table, so every key the package names literally — as the key
// argument of add, count or an admission refusal, or assigned to a
// variable named key or counter — must be declared there, as must the
// admitted_<class> key of every plan-cache class.
func TestCounterKeysDeclared(t *testing.T) {
	m := newMetrics()
	declared := func(where, key string) {
		if _, ok := m[key]; !ok {
			t.Errorf("%s: counter %q is not in the counter table", where, key)
		}
	}
	for _, c := range []plancache.Class{plancache.ClassCold, plancache.ClassWarm, plancache.ClassHit} {
		declared("admission class", "admitted_"+c.String())
	}
	for key := range clientKeys {
		declared("clientKeys", key)
	}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(e ast.Expr) {
		if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			key, _ := strconv.Unquote(lit.Value)
			declared(fset.Position(lit.Pos()).String(), key)
		}
	}
	keyArg := map[string]int{"add": 0, "count": 1, "no": 2}
	seen := 0
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name := ""
				switch f := n.Fun.(type) {
				case *ast.Ident:
					name = f.Name
				case *ast.SelectorExpr:
					name = f.Sel.Name
				}
				if i, ok := keyArg[name]; ok && i < len(n.Args) {
					check(n.Args[i])
					seen++
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && (id.Name == "key" || id.Name == "counter") && len(n.Rhs) == len(n.Lhs) {
						check(n.Rhs[i])
						seen++
					}
				}
			}
			return true
		})
	}
	if seen < 40 {
		t.Errorf("scanned only %d counter uses: the scan no longer matches how the package bumps counters", seen)
	}
}
