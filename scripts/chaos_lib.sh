# Shared prelude of the magis-serve chaos harnesses (cache_chaos.sh,
# soak_chaos.sh, storage_chaos.sh, hostile_chaos.sh). A harness sets
# PORT_BASE, its default port range, and sources this file first:
#
#   PORT_BASE=18000
#   . "$(dirname "$0")/chaos_lib.sh"
#
# It enters the repository root, skips the harness when jq is missing,
# and makes a scratch directory $dir that is removed on exit together
# with any server still running. The harness builds $dir/magis-serve and
# sets SERVE_FLAGS, the flags start_server passes on every start.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "SKIP: jq not installed" >&2; exit 0; }

PORT="${PORT:-$((PORT_BASE + RANDOM % 2000))}"
BASE="http://127.0.0.1:$PORT"
dir="$(mktemp -d)"
SRV=""
cleanup() {
    [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

start_server() { # [extra flags...]
    "$dir/magis-serve" -addr "127.0.0.1:$PORT" "${SERVE_FLAGS[@]}" "$@" >> "$dir/serve.log" 2>&1 &
    SRV=$!
    for _ in $(seq 1 100); do
        curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "FAIL: server did not come up (log tail follows)" >&2
    tail -20 "$dir/serve.log" >&2
    exit 1
}

stop_server() {
    kill -TERM "$SRV" 2>/dev/null || true
    wait "$SRV" 2>/dev/null || true
    SRV=""
}

kill_server() { # SIGKILL, no drain
    kill -9 "$SRV"; wait "$SRV" 2>/dev/null || true; SRV=""
}

metric() { curl -fsS "$BASE/metrics" | jq "$1"; }

submit() { # json body -> job id
    curl -fsS -X POST -d "$1" "$BASE/optimize" | jq -r .id
}

wait_done() { # job id -> prints the job's result object
    local id="$1" state
    for _ in $(seq 1 1200); do
        state="$(curl -fsS "$BASE/jobs/$id" | jq -r .state)"
        case "$state" in
            done) curl -fsS "$BASE/jobs/$id" | jq -c .result; return 0 ;;
            failed|cancelled|shed)
                echo "FAIL: job $id settled $state" >&2
                curl -fsS "$BASE/jobs/$id" >&2
                return 1 ;;
        esac
        sleep 0.1
    done
    echo "FAIL: timed out waiting for job $id" >&2
    return 1
}
