#!/usr/bin/env bash
# Chaos harness for resource exhaustion: inject every storage fault class
# a real deployment can hit (disk full, torn writes, fsync failures, fd
# exhaustion, rename failures) underneath a live magis-serve and require
# it to keep answering — degrading to uncached/uncheckpointed serving
# with labeled results, never a 5xx, never temp debris. Then starve the
# search itself with a tiny -mem-budget and require a graceful
# best-so-far stop, and prove the governor is a strict no-op when idle.
#
#   ./scripts/storage_chaos.sh
#
# Phases:
#   1. fault sweep   one server per fault class, all persistence failing:
#                    jobs settle done, serving degrades with labels,
#                    metrics count the faults, no temp files leak
#   2. hard kill     SIGKILL while the disk is "full"; a faultless
#                    restart recovers to healthy storage and caches again
#   3. governor      a search past -mem-budget sheds state and stops
#                    gracefully with reason mem-budget, best-so-far kept
#   4. bit-identity  an idle governor (huge budget) changes nothing:
#                    byte-identical results vs the governor-off run
PORT_BASE=19000
. "$(dirname "$0")/chaos_lib.sh"
CKDIR="$dir/ckpt"
CACHEDIR="$dir/plans"
SERVE_FLAGS=(-jobs 1 -checkpoint-dir "$CKDIR" -checkpoint-every 1 -cache-dir "$CACHEDIR" -stall-window=-1s)

go build -o "$dir/magis-serve" ./cmd/magis-serve
go build -o "$dir/magis" ./cmd/magis

wait_storage() { # expected storage state
    local want="$1" got=""
    for _ in $(seq 1 50); do
        got="$(curl -fsS "$BASE/healthz" | jq -r .storage)"
        [ "$got" = "$want" ] && return 0
        sleep 0.1
    done
    echo "FAIL: storage state is $got, want $want" >&2
    return 1
}


no_debris() { # no orphaned temp files may survive anywhere we persist
    local leaked
    leaked="$(find "$CKDIR" "$CACHEDIR" -name '*.tmp-*' 2>/dev/null | wc -l)"
    [ "$leaked" -eq 0 ] || {
        echo "FAIL: $leaked orphaned temp file(s) leaked:" >&2
        find "$CKDIR" "$CACHEDIR" -name '*.tmp-*' >&2
        return 1
    }
}

JOB='{"model":"mlp","scale":0.05,"iterations":2,"workers":1}'

echo "== phase 1: fault sweep — serving survives every storage fault class"
for spec in enospc@1+1 shortwrite@1+1 syncfail@1+1 renamefail@1+1 fdexhaust@1+1; do
    echo "  -- $spec"
    rm -rf "$CKDIR" "$CACHEDIR"
    start_server -chaos-storage-faults "$spec" -storage-threshold 1 -storage-cooloff 1h
    # The first job absorbs the fault: it must still answer (no 5xx, not
    # failed), and its fault trips the health machine.
    wait_done "$(submit "$JOB")" > /dev/null
    wait_storage degraded
    # Subsequent jobs are served degraded: real result, labeled, and no
    # persistence touched.
    job="$(wait_done "$(submit "$JOB")")"
    [ "$(jq -r .degraded_storage <<<"$job")" = "true" ] \
        || { echo "FAIL($spec): degraded job not labeled degraded_storage" >&2; exit 1; }
    [ "$(jq -r .peak_mem_bytes <<<"$job")" -gt 0 ] \
        || { echo "FAIL($spec): degraded job returned no result" >&2; jq . <<<"$job" >&2; exit 1; }
    [ "$(metric .storage_state)" = '"degraded"' ] || { echo "FAIL($spec): metrics not degraded" >&2; exit 1; }
    [ "$(metric .storage_faults)" -ge 1 ] || { echo "FAIL($spec): no storage faults counted" >&2; exit 1; }
    [ "$(metric .storage_degraded_jobs)" -ge 1 ] || { echo "FAIL($spec): no degraded jobs counted" >&2; exit 1; }
    no_debris
    stop_server
    no_debris
done

echo "== phase 2: SIGKILL under a full disk, faultless restart recovers"
rm -rf "$CKDIR" "$CACHEDIR"
start_server -chaos-storage-faults enospc@1+1 -storage-threshold 1 -storage-cooloff 1h
wait_done "$(submit "$JOB")" > /dev/null
wait_storage degraded
submit '{"model":"mlp","scale":0.05,"budget":"120s","iterations":5000,"workers":1}' >/dev/null
sleep 1
kill_server
no_debris
# The "disk" is healthy again: the restarted server must come back clean,
# serve with healthy storage, and persist plans once more.
start_server
curl -fsS "$BASE/healthz" | jq -e '.status == "ok" and .storage == "healthy"' >/dev/null \
    || { echo "FAIL: restart after ENOSPC kill is not healthy" >&2; exit 1; }
job="$(wait_done "$(submit "$JOB")")"
[ "$(jq -r .degraded_storage <<<"$job")" = "null" ] \
    || { echo "FAIL: healthy restart still labels jobs degraded" >&2; exit 1; }
[ "$(metric .cache.entries)" -ge 1 ] || { echo "FAIL: healthy restart does not cache plans" >&2; exit 1; }
no_debris
stop_server

echo "== phase 3: memory governor sheds and stops gracefully at -mem-budget"
out="$("$dir/magis" -model mlp -scale 0.05 -iters 400 -workers 1 -mem-budget 1KiB)"
grep -q "search stopped: mem-budget" <<<"$out" \
    || { echo "FAIL: governed search did not stop with reason mem-budget" >&2; echo "$out" >&2; exit 1; }
grep -q "^governor: " <<<"$out" \
    || { echo "FAIL: no governor status line" >&2; echo "$out" >&2; exit 1; }
grep -q "^best: " <<<"$out" \
    || { echo "FAIL: governed search returned no best-so-far plan" >&2; echo "$out" >&2; exit 1; }

echo "== phase 4: an idle governor is a bit-identical no-op"
run_fixed() { # mem-budget flag value ("" = off) -> result lines only
    "$dir/magis" -model mlp -scale 0.05 -iters 6 -workers 1 ${1:+-mem-budget "$1"} \
        | grep -E '^(best|result|fission):'
}
off="$(run_fixed "")"
idle="$(run_fixed 8GiB)"
[ "$off" = "$idle" ] || {
    echo "FAIL: idle governor changed the search result" >&2
    diff <(echo "$off") <(echo "$idle") >&2 || true
    exit 1
}
grep -q "^best: " <<<"$off" || { echo "FAIL: fixed-work run produced no result" >&2; exit 1; }

echo "OK: serving survived every storage fault class, recovered after ENOSPC+SIGKILL, and the governor stops gracefully without perturbing unconstrained runs"
