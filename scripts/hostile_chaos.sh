#!/usr/bin/env bash
# Adversarial hostile-traffic chaos for magis-serve: run the server with
# tight, production-style limits and attack it with `magis-bench hostile`
# — a malformed/hostile request corpus, a slow-loris connection, and a
# single-tenant flood against a well-behaved client — then spot-check the
# boundary behaviors (413, unknown-field 400) directly with curl.
#
#   ./scripts/hostile_chaos.sh            # normal run
#   RACE=1 ./scripts/hostile_chaos.sh     # binaries built with -race
#   FLOOD=400 ./scripts/hostile_chaos.sh
#
# Phases:
#   1. hostile     magis-bench hostile asserts the invariants end to end:
#                  every corpus attack is a structured 4xx (never 5xx,
#                  never admitted); the slow-loris client is evicted by
#                  the socket deadlines; during the flood the good
#                  client's success rate and p95 hold while the bully is
#                  throttled; afterwards a well-formed graph submission
#                  completes full-fidelity and every ledger drains
#   2. curl edge   direct boundary checks: -max-body enforces 413 with a
#                  machine-readable reason, a typo'd field is named in
#                  the 400, and per-client counters appear in /metrics
PORT_BASE=22000
. "$(dirname "$0")/chaos_lib.sh"
FLOOD="${FLOOD:-200}"
GOOD="${GOOD:-8}"
# Tight limits: small bodies, per-client rate/share/queue fairness, and
# aggressive socket deadlines so the slow-loris phase bites quickly.
SERVE_FLAGS=(-queue 16 -jobs 2
    -budget 5s -stall-window 30s
    -max-body 1MiB
    -read-header-timeout 2s -read-timeout 10s -write-timeout 30s -idle-timeout 30s
    -client-rate 20 -client-burst 10 -client-share 0.5 -client-queue 8)

BUILDFLAGS=()
[ "${RACE:-0}" = "1" ] && BUILDFLAGS+=(-race)
go build "${BUILDFLAGS[@]}" -o "$dir/magis-serve" ./cmd/magis-serve
go build "${BUILDFLAGS[@]}" -o "$dir/magis-bench" ./cmd/magis-bench

echo "== phase 1: adversarial harness (flood $FLOOD vs $GOOD good requests)"
start_server
"$dir/magis-bench" -hostile-url "$BASE" -hostile-flood "$FLOOD" \
    -hostile-good "$GOOD" hostile

echo "== phase 2: boundary spot checks with curl"
# 2a. A body past -max-body is a 413 with reason "too-large".
huge="$dir/huge.json"
{ printf '{"model":"mlp","budget":"'; head -c 2097152 /dev/zero | tr '\0' 'x'; printf '"}'; } > "$huge"
code="$(curl -s -o "$dir/resp413.json" -w '%{http_code}' -X POST --data-binary @"$huge" "$BASE/optimize")"
[ "$code" = "413" ] || { echo "FAIL: oversized body got $code, want 413" >&2; exit 1; }
jq -e '.reason == "too-large"' "$dir/resp413.json" >/dev/null \
    || { echo "FAIL: 413 without reason too-large: $(cat "$dir/resp413.json")" >&2; exit 1; }

# 2b. A typo'd field is a 400 that names the field.
code="$(curl -s -o "$dir/resp400.json" -w '%{http_code}' -X POST \
    -d '{"model":"mlp","bugdet":"5s"}' "$BASE/optimize")"
[ "$code" = "400" ] || { echo "FAIL: typo'd field got $code, want 400" >&2; exit 1; }
jq -e '.reason == "unknown-field" and (.error | contains("bugdet"))' "$dir/resp400.json" >/dev/null \
    || { echo "FAIL: 400 does not name the typo'd field: $(cat "$dir/resp400.json")" >&2; exit 1; }

# 2c. Per-client counters surfaced in /metrics, and the hostile phases
# left the rejection counters non-zero.
jq -e '.clients | has("bully") and has("good")' <(curl -fsS "$BASE/metrics") >/dev/null \
    || { echo "FAIL: per-client metrics missing: $(metric .clients)" >&2; exit 1; }
[ "$(metric .rejected_too_large)" -ge 1 ] \
    || { echo "FAIL: rejected_too_large not counted" >&2; exit 1; }
[ "$(metric .rejected_ingest)" -ge 1 ] \
    || { echo "FAIL: rejected_ingest not counted" >&2; exit 1; }
[ "$(metric .rejected_client_rate)" -ge 1 ] \
    || { echo "FAIL: rejected_client_rate not counted (flood never throttled?)" >&2; exit 1; }

stop_server

echo "OK: hostile traffic held all invariants (corpus, slow-loris, flood fairness, boundaries)"
