#!/usr/bin/env bash
# Compares a fresh BenchmarkCore_ run against the committed baseline
# (BENCH_core.json) and exits non-zero on regression: search throughput
# ("evals") dropping, or allocations per op ("allocs/op") growing, by more
# than THRESHOLD percent. This is the CI gate keeping the incremental
# evaluation work (ISSUE 7) from silently eroding.
#
#   ./scripts/bench_compare.sh                 # against BENCH_core.json
#   THRESHOLD=45 ./scripts/bench_compare.sh    # custom tolerance (percent)
#   ./scripts/bench_compare.sh other.json      # custom baseline file
#
# The threshold is deliberately wide: these are fixed-time benchmarks on
# shared CI hardware, so the gate is for step-function regressions (a lost
# fast path, an allocation leak), not single-digit noise. Benchmarks
# present on only one side are reported but never fail the gate, so adding
# a benchmark does not require refreshing the baseline in the same change;
# a run that compares no benchmark at all fails, since it checked nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_core.json}"
threshold="${THRESHOLD:-40}"
if [ ! -f "$baseline" ]; then
    echo "baseline $baseline not found" >&2
    exit 2
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
echo "running BenchmarkCore_ suite..."
./scripts/bench_core.sh "$tmp" >/dev/null

awk -v thr="$threshold" '
# Pull a quoted string field out of one JSON benchmark line.
function getstr(line, key,    k, s) {
    k = "\"" key "\":\""
    if (!index(line, k)) return ""
    s = substr(line, index(line, k) + length(k))
    return substr(s, 1, index(s, "\"") - 1)
}
# Pull a numeric metric out of one JSON benchmark line ("" when absent).
function getnum(line, key,    k, s) {
    k = "\"" key "\":"
    if (!index(line, k)) return ""
    s = substr(line, index(line, k) + length(k))
    if (match(s, /[,}]/)) s = substr(s, 1, RSTART - 1)
    return s + 0
}
/"name"/ {
    name = getstr($0, "name")
    if (name == "") next
    if (FILENAME == ARGV[1]) {
        base_evals[name] = getnum($0, "evals")
        base_allocs[name] = getnum($0, "allocs/op")
        in_base[name] = 1
    } else {
        cur_evals[name] = getnum($0, "evals")
        cur_allocs[name] = getnum($0, "allocs/op")
        in_cur[name] = 1
        order[n++] = name
    }
}
END {
    fails = 0
    compared = 0
    printf "%-48s %14s %14s %9s\n", "benchmark", "baseline", "current", "delta"
    for (i = 0; i < n; i++) {
        name = order[i]
        if (!in_base[name]) {
            printf "%-48s %14s %14s %9s\n", name, "-", "(new)", "skip"
            continue
        }
        compared++
        if (base_evals[name] != "" && cur_evals[name] != "") {
            d = 100 * (cur_evals[name] / base_evals[name] - 1)
            verdict = "ok"
            if (d < -thr) { verdict = "REGRESSION"; fails++ }
            printf "%-48s %14.1f %14.1f %+8.1f%% %s  (evals, min -%d%%)\n",
                name, base_evals[name], cur_evals[name], d, verdict, thr
        }
        if (base_allocs[name] != "" && cur_allocs[name] != "") {
            d = 100 * (cur_allocs[name] / base_allocs[name] - 1)
            verdict = "ok"
            if (d > thr) { verdict = "REGRESSION"; fails++ }
            printf "%-48s %14d %14d %+8.1f%% %s  (allocs/op, max +%d%%)\n",
                name, base_allocs[name], cur_allocs[name], d, verdict, thr
        }
    }
    for (name in in_base) {
        if (!in_cur[name])
            printf "%-48s %14s %14s %9s\n", name, "(baseline only)", "-", "skip"
    }
    if (!compared) {
        printf "\nno benchmark is on both sides: nothing was compared\n"
        exit 1
    }
    if (fails) {
        printf "\n%d regression(s) beyond +/-%d%%\n", fails, thr
        exit 1
    }
    printf "\nno regressions beyond +/-%d%%\n", thr
}
' "$baseline" "$tmp"
