#!/usr/bin/env bash
# End-to-end overload/chaos soak for magis-serve: drive a live server
# through mixed seeded traffic (hot cache hits, warm starts, cold
# searches, deadline-laden requests, a poisoned workload) via
# `magis-bench soak`, then SIGKILL it mid-flight and require the
# restarted server to recover checkpointed work and stay consistent.
#
#   ./scripts/soak_chaos.sh            # normal run
#   RACE=1 ./scripts/soak_chaos.sh     # binaries built with -race
#   SOAK_JOBS=120 ./scripts/soak_chaos.sh
#
# Phases:
#   1. soak        magis-bench soak asserts the invariants end to end:
#                  breaker isolates the poison workload while healthy
#                  traffic serves; every job settles terminal; the queue
#                  conserves jobs; no unverified plan is mislabeled;
#                  cost ledger drains to zero; SLO floors hold
#   2. hard kill   SIGKILL mid-search; the restarted server recovers the
#                  checkpointed job, the books balance again, and a
#                  cached request still hits
PORT_BASE=20000
. "$(dirname "$0")/chaos_lib.sh"
SOAK_JOBS="${SOAK_JOBS:-60}"
SOAK_SEED="${SOAK_SEED:-1}"
POISON="vit"
CKDIR="$dir/ckpt"
CACHEDIR="$dir/plans"
SERVE_FLAGS=(-queue 8 -jobs 2
    -checkpoint-dir "$CKDIR" -cache-dir "$CACHEDIR"
    -checkpoint-every 5 -budget 5s -stall-window 30s
    -breaker-threshold 2 -breaker-cooloff 500ms
    -chaos-poison-model "$POISON")

BUILDFLAGS=()
[ "${RACE:-0}" = "1" ] && BUILDFLAGS+=(-race)
go build "${BUILDFLAGS[@]}" -o "$dir/magis-serve" ./cmd/magis-serve
go build "${BUILDFLAGS[@]}" -o "$dir/magis-bench" ./cmd/magis-bench

echo "== phase 1: mixed-traffic soak ($SOAK_JOBS submissions, seed $SOAK_SEED, poison $POISON)"
start_server
"$dir/magis-bench" -soak-url "$BASE" -soak-jobs "$SOAK_JOBS" \
    -soak-seed "$SOAK_SEED" -soak-poison "$POISON" soak

echo "== phase 2: SIGKILL mid-search, restart recovers and stays consistent"
long='{"model":"mlp","scale":0.05,"budget":"120s","iterations":5000,"workers":1}'
id="$(submit "$long")"
# SIGKILL only once the job's checkpoint is actually on disk.
for _ in $(seq 1 200); do
    [ -s "$CKDIR/$id.ckpt" ] && break
    sleep 0.1
done
[ -s "$CKDIR/$id.ckpt" ] || { echo "FAIL: job $id never checkpointed" >&2; exit 1; }
kill_server
start_server
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' >/dev/null \
    || { echo "FAIL: unhealthy after hard kill" >&2; exit 1; }
[ "$(metric .resumed)" -ge 1 ] \
    || { echo "FAIL: checkpointed job not recovered after SIGKILL" >&2; exit 1; }

# The recovered job must settle terminal and the books must balance.
for _ in $(seq 1 600); do
    depth="$(curl -fsS "$BASE/healthz" | jq -r .queue_depth)"
    flight="$(curl -fsS "$BASE/healthz" | jq -r .in_flight)"
    [ "$depth" = "0" ] && [ "$flight" = "0" ] && break
    sleep 0.5
done
[ "$depth" = "0" ] && [ "$flight" = "0" ] \
    || { echo "FAIL: recovered work never settled (depth=$depth in_flight=$flight)" >&2; exit 1; }
[ "$(curl -fsS "$BASE/healthz" | jq -r .cost_in_use_ms)" = "0" ] \
    || { echo "FAIL: admission cost leaked across restart" >&2; exit 1; }
jq -e '.admitted == (.completed + .failed + .cancelled + .shed_expired + .shed_evicted)' \
    <(curl -fsS "$BASE/metrics") >/dev/null \
    || { echo "FAIL: queue conservation violated after restart: $(curl -fsS "$BASE/metrics")" >&2; exit 1; }

# Cached plans still serve after the crash.
warm='{"model":"mlp","scale":0.01,"budget":"5s","iterations":10,"workers":1}'
wid="$(submit "$warm")"
for _ in $(seq 1 300); do
    state="$(curl -fsS "$BASE/jobs/$wid" | jq -r .state)"
    [ "$state" = "done" ] && break
    case "$state" in failed|cancelled|shed)
        echo "FAIL: post-restart job settled $state" >&2; exit 1 ;; esac
    sleep 0.1
done
[ "$state" = "done" ] || { echo "FAIL: post-restart job never finished" >&2; exit 1; }

stop_server

echo "OK: soak held all invariants through overload, poison, and SIGKILL"
