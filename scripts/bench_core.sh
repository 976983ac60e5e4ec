#!/usr/bin/env bash
# Runs the BenchmarkCore_* microbenchmark suite with allocation reporting
# and writes the results as BENCH_core.json (or the path given as $1).
#
#   ./scripts/bench_core.sh              # BENCH_core.json, -benchtime=1x
#   BENCHTIME=5x ./scripts/bench_core.sh out.json
#
# The JSON is a flat array of {name, iterations, metrics} objects, one per
# benchmark line, with every reported unit (ns/op, B/op, allocs/op, evals,
# ...) as a metrics key — enough structure to diff across commits without
# needing benchstat.
#
# The suite runs with -cpu 1: on a host with more than one CPU, go test
# would otherwise append "-N" to every benchmark name, and a baseline
# recorded on one host would share no names with a run on another.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_core.json}"
benchtime="${BENCHTIME:-1x}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'BenchmarkCore_' -cpu 1 -benchmem -benchtime "$benchtime" ./... | tee "$tmp"

awk '
BEGIN { print "[" }
/^Benchmark/ {
    if (n++) printf ",\n"
    printf "  {\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", $1, $2
    m = 0
    for (i = 3; i + 1 <= NF; i += 2) {
        if (m++) printf ","
        printf "\"%s\":%s", $(i + 1), $i
    }
    printf "}}"
}
END { print "\n]" }
' "$tmp" > "$out"

echo "wrote $out"
