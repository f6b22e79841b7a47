#!/bin/sh
# Run the benchmark suite and record the results as BENCH_<date>.json in
# the repo root, so the perf trajectory accumulates across PRs.
#
# Usage: scripts/bench.sh [-pkg <go-package>] [go-test-bench-regexp]
#   BENCHTIME=2s scripts/bench.sh 'BenchmarkAblation.*'
#   scripts/bench.sh -pkg . 'BenchmarkAblation_(ValueLayout|CompositeIndex|JoinPlan)'
#
# -pkg restricts the run to one Go package (default "."): the query-
# engine ablations live in the root package and run in seconds, while
# the full default pattern also exercises the slower cluster benches —
# the filter lets CI (and a laptop) track the query engine without
# paying for the replication tier. OUT=<file> overrides the output
# filename (useful when recording more than one slice per day).
#
# The default pattern runs every benchmark, including the ablations
# that track the engine's perf levers across PRs:
#   BenchmarkAblation_PlanCache      — prepared-statement plan cache
#   BenchmarkAblation_OrderedIndex   — ordered index vs full scan on a
#                                      selective 100k-row range predicate
#   BenchmarkAblation_ValueLayout    — compact 32-byte Value: full-scan
#                                      aggregate + projection B/op
#   BenchmarkAblation_CompositeIndex — composite (2-col) index + index-
#                                      only COUNT vs full scan, 100k rows
#   BenchmarkAblation_JoinPlan       — index nested-loop vs cross-product
#                                      join on 1k×1k
#   BenchmarkRollup                  — the report's rollup: a 100k-row,
#                                      400-group COUNT/SUM/MAX through the
#                                      hash fold, ns/row (it replaces the
#                                      GroupPushdown and IndexFetch
#                                      ablations; older BENCH records
#                                      hold their figures)
#   BenchmarkAblation_HashJoin       — hash join vs cross product on an
#                                      unindexed 1k×1k equi-join
#   BenchmarkAblation_Arena          — arena/columnar result path on a
#                                      100k-row projection (allocs/op and
#                                      B/row ceilings; the per-row make
#                                      path is gone)
#   BenchmarkAblation_OpCache        — result cache hit (a repeated key)
#                                      vs miss (every key a first
#                                      sighting) on a parameterized
#                                      browse query
#   BenchmarkAblation_GroupCommit    — WAL group commit vs serial fsyncs
#                                      (parallel vs serial committers)
#   BenchmarkAblation_Failover       — token-checked read latency through
#                                      the replicated tier, 0 vs 1
#                                      replicas down
#   BenchmarkReplicatedPut           — archival write throughput at RF=1
#                                      vs RF=2 fan-out
#   BenchmarkRenderPKPage            — one 50-row primary-key browse
#                                      page through the webui handler:
#                                      search, column plan, streamed rows
set -eu

cd "$(dirname "$0")/.."

PKG="."
if [ "${1:-}" = "-pkg" ]; then
    PKG="$2"
    shift 2
fi
PATTERN="${1:-.}"
BENCHTIME="${BENCHTIME:-0.5s}"
DATE="$(date -u +%Y%m%d)"
OUT="${OUT:-BENCH_${DATE}.json}"
RAW="$(mktemp)"
LAT="$(mktemp)"
trap 'rm -f "$RAW" "$LAT"' EXIT

# No pipeline here: under plain sh `go test | tee` would exit with
# tee's status and a failed bench run would still record a green JSON.
go test -run 'xxx' -bench "$PATTERN" -benchtime "$BENCHTIME" -benchmem "$PKG" > "$RAW" 2>&1 || {
    cat "$RAW"
    echo "bench run failed" >&2
    exit 1
}
cat "$RAW"

# Allocation-regression guards, each skipped when the pattern filtered
# its benchmark out of this run. The arena result path exists to keep
# the large-projection hot path allocation-free: fail if the arena
# sub-benchmark crept back above the pinned allocs/op ceiling, or above
# the pinned bytes per returned row (24.3 recorded + 5%; 49.4 while
# stored-order rows were copied into the arena and the row-pointer
# slice was sized to the table). And a small result must cost bytes in
# proportion to its rows, not a slab: fail if the one-row prepared
# lookup exceeds the pinned B/op ceiling
# (5.9 KB recorded; 266 KB when every statement drew a 256 KiB chunk).
ARENA_ALLOC_CEILING="${ARENA_ALLOC_CEILING:-5000}"
awk -v allocs_ceiling="$ARENA_ALLOC_CEILING" -v row_ceiling=25.5 -v bytes_ceiling=32768 '
function metric(unit,   i) {
    for (i = 3; i < NF; i++) if ($(i+1) == unit) return $i
    return 0
}
function guard(value, unit, ceiling) {
    if (value + 0 > ceiling + 0) {
        printf "allocation regression: %s at %s %s exceeds ceiling %s\n", $1, value, unit, ceiling > "/dev/stderr"
        exit 1
    }
}
$1 ~ /^BenchmarkAblation_Arena\/arena/ {
    guard(metric("allocs/op"), "allocs/op", allocs_ceiling)
    guard(metric("B/row"), "B/row", row_ceiling)
}
$1 ~ /^BenchmarkAblation_PlanCache\/cache=on/ { guard(metric("B/op"), "B/op", bytes_ceiling) }
' "$RAW" || exit 1

# Per-query latency percentiles from the telemetry histograms: the
# easiabench -latency mode emits a JSON array of
# {name, count, mean_ns, p50_ns, p95_ns, p99_ns} that becomes the
# "latency" key of the record. LATENCY_N=0 skips the run.
LATENCY_N="${LATENCY_N:-2000}"
if [ "$LATENCY_N" -gt 0 ]; then
    go run ./cmd/easiabench -latency -latency-n "$LATENCY_N" > "$LAT" || {
        echo "latency run failed" >&2
        exit 1
    }
else
    printf '[]\n' > "$LAT"
fi

# Convert `go test -bench` text output into a JSON array of
# {name, iterations, ns_per_op, bytes_per_op, allocs_per_op}, then
# append the latency series.
awk -v date="$DATE" '
BEGIN { print "{"; printf "  \"date\": \"%s\",\n  \"benchmarks\": [\n", date; n = 0 }
/^Benchmark/ {
    name = $1; iters = $2; ns = ""; bytes = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, (ns == "" ? "null" : ns)
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { print "\n  ]," }
' "$RAW" > "$OUT"
printf '  "latency": ' >> "$OUT"
sed 's/^/  /; 1s/^  //' "$LAT" >> "$OUT"
printf '}\n' >> "$OUT"

echo "wrote $OUT"
