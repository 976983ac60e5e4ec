#!/usr/bin/env bash
# Chaos harness for the persistent plan cache: damage the cache on disk in
# every way a real deployment can (bit flips, truncation, junk floods,
# renamed keys, SIGKILL mid-run) and require the service to keep answering
# correctly — quarantining what it cannot trust, re-searching on miss, and
# never serving a tampered plan.
#
#   ./scripts/cache_chaos.sh
#
# Phases:
#   1. populate   two jobs optimize and admit their plans into the cache
#   2. exact hit  an identical request is served without search work
#   3. restart    entries persist across a clean restart
#   4. corruption flip/truncate/junk-flood the cache; restart quarantines
#                 the damage, the service re-searches and self-heals
#   5. hard kill  SIGKILL mid-search; a restarted server stays healthy and
#                 its cache still serves
PORT_BASE=18000
. "$(dirname "$0")/chaos_lib.sh"
CKDIR="$dir/ckpt"
CACHEDIR="$dir/plans"
SERVE_FLAGS=(-jobs 1 -checkpoint-dir "$CKDIR" -cache-dir "$CACHEDIR" -stall-window=-1s)

go build -o "$dir/magis-serve" ./cmd/magis-serve

JOB_A='{"model":"mlp","scale":0.01,"budget":"120s","iterations":12,"workers":1}'
JOB_B='{"model":"mlp","scale":0.02,"budget":"120s","iterations":12,"workers":1}'

echo "== phase 1: populate the cache"
start_server
resA="$(wait_done "$(submit "$JOB_A")")"
resB="$(wait_done "$(submit "$JOB_B")")"
echo "  A: $resA"
echo "  B: $resB"
[ "$(metric .cache.entries)" -eq 2 ] || { echo "FAIL: want 2 cache entries, have $(metric .cache.entries)" >&2; exit 1; }
peakA="$(jq -r .peak_mem_bytes <<<"$resA")"

echo "== phase 2: exact hit without search work"
hit="$(wait_done "$(submit "$JOB_A")")"
echo "  hit: $hit"
[ "$(jq -r .cache <<<"$hit")" = "hit" ] || { echo "FAIL: repeat request not served from cache" >&2; exit 1; }
[ "$(jq -r .iterations <<<"$hit")" -eq 0 ] || { echo "FAIL: cache hit ran search iterations" >&2; exit 1; }
[ "$(jq -r .peak_mem_bytes <<<"$hit")" = "$peakA" ] || { echo "FAIL: hit served a different plan" >&2; exit 1; }
jq -e '.cache_hit_latency_sec.count >= 1 and .cache_miss_latency_sec.count >= 1' \
    <(curl -fsS "$BASE/metrics") >/dev/null || { echo "FAIL: latency percentiles missing" >&2; exit 1; }

echo "== phase 3: clean restart keeps the cache"
stop_server
start_server
hit="$(wait_done "$(submit "$JOB_A")")"
[ "$(jq -r .cache <<<"$hit")" = "hit" ] || { echo "FAIL: entries did not survive the restart" >&2; exit 1; }

echo "== phase 4: corruption — flip, truncate, junk, renamed key"
stop_server
entries=("$CACHEDIR"/*.plan)
[ "${#entries[@]}" -eq 2 ] || { echo "FAIL: expected 2 entry files, found ${#entries[@]}" >&2; exit 1; }
# Flip one byte mid-file in entry 0 (checksum must catch it).
printf 'X' | dd of="${entries[0]}" bs=1 seek=200 conv=notrunc status=none
# Truncate entry 1 (a torn write that bypassed the atomic path).
truncate -s 33 "${entries[1]}"
# A healthy-looking file under a key it was never written for.
cp "${entries[0]}" "$CACHEDIR/00000000deadbeef-00000000deadbeef.plan"
# Flood of junk and an empty file.
for i in $(seq 1 8); do printf 'junk-%s' "$i" > "$CACHEDIR/junk$i-0000000000000000.plan"; done
: > "$CACHEDIR/0000000000000000-0000000000000000.plan"

start_server
quar="$(metric .cache.quarantined)"
[ "$quar" -ge 11 ] || { echo "FAIL: quarantined $quar files, want >= 11" >&2; exit 1; }
[ "$(metric .cache.entries)" -eq 0 ] || { echo "FAIL: damaged entries still indexed" >&2; exit 1; }
[ "$(ls "$CACHEDIR/quarantine" | wc -l)" -ge 11 ] || { echo "FAIL: quarantine dir not populated" >&2; exit 1; }

# The damaged request must re-search (never serve the tampered bytes)...
res="$(wait_done "$(submit "$JOB_A")")"
[ "$(jq -r .cache <<<"$res")" != "hit" ] || { echo "FAIL: served from a corrupted cache" >&2; exit 1; }
[ "$(jq -r .peak_mem_bytes <<<"$res")" = "$peakA" ] || { echo "FAIL: re-search found a different plan" >&2; exit 1; }
# ...and the fresh result self-heals the cache.
hit="$(wait_done "$(submit "$JOB_A")")"
[ "$(jq -r .cache <<<"$hit")" = "hit" ] || { echo "FAIL: cache did not self-heal after corruption" >&2; exit 1; }

echo "== phase 5: SIGKILL mid-search, restart stays healthy"
big='{"model":"mlp","scale":0.05,"budget":"120s","iterations":5000,"workers":1}'
submit "$big" >/dev/null
sleep 1
kill_server
start_server
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' >/dev/null || { echo "FAIL: unhealthy after hard kill" >&2; exit 1; }
hit="$(wait_done "$(submit "$JOB_A")")"
[ "$(jq -r .cache <<<"$hit")" = "hit" ] || { echo "FAIL: cache lost after hard kill" >&2; exit 1; }
stop_server

echo "OK: plan cache survived corruption, junk floods, renames, and SIGKILL"
