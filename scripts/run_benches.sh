#!/usr/bin/env bash
#===- scripts/run_benches.sh - Populate the perf trajectory ---------------===#
#
# Runs every benchmark binary in --json mode and splices the per-bench
# documents into machine-readable suite files at the repository root:
#
#   BENCH_observability.json
#     {"schema": "eel-bench/1", "suite": "observability",
#      "benches": [<one object per bench, see bench/BenchUtil.h>]}
#   BENCH_serve.json
#     {"schema": "eel-bench/1", "suite": "serve", "benches": [...]}
#       (the eel-serve edit-service latency/throughput/caching bench)
#   BENCH_scale.json
#     {"schema": "eel-bench/1", "suite": "scale", "benches": [...]}
#       (per-phase growth exponents from 1k to 8k routines, gated)
#
# Usage: scripts/run_benches.sh [build-dir]   (default: build)
#
# google-benchmark microbenchmarks are throttled with a small
# --benchmark_min_time so the suite finishes quickly; the headline tables
# each bench computes after RunSpecifiedBenchmarks (the numbers that land
# in the JSON) are unaffected by that knob.
#===------------------------------------------------------------------------===#

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
BENCH_DIR="$BUILD_DIR/bench"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

OBSERVABILITY_BENCHES=(
  bench_table1
  bench_indirect
  bench_cfg_stats
  bench_sharing
  bench_machdesc
  bench_active_memory
  bench_overhead
  bench_ablation
  bench_load
)

SERVE_BENCHES=(
  bench_serve
)

SCALE_BENCHES=(
  bench_scale
)

for B in "${OBSERVABILITY_BENCHES[@]}" "${SERVE_BENCHES[@]}" \
         "${SCALE_BENCHES[@]}"; do
  if [ ! -x "$BENCH_DIR/$B" ]; then
    echo "error: $BENCH_DIR/$B not built (cmake --build \"$BUILD_DIR\" -j)" >&2
    exit 1
  fi
done

for B in "${OBSERVABILITY_BENCHES[@]}" "${SERVE_BENCHES[@]}" \
         "${SCALE_BENCHES[@]}"; do
  echo "== $B"
  # A failing bench's FAIL: lines go to stderr; its table, captured below,
  # would die with TMP_DIR, so print it before exiting.
  "$BENCH_DIR/$B" --json="$TMP_DIR/$B.json" \
    --benchmark_min_time=0.05 > "$TMP_DIR/$B.log" || {
    STATUS=$?
    echo "error: $B exited with status $STATUS; its standard output:" >&2
    cat "$TMP_DIR/$B.log" >&2
    exit "$STATUS"
  }
done

# Splice the single-line per-bench documents into one suite envelope.
write_suite() {
  local SUITE="$1" OUT="$2"
  shift 2
  {
    printf '{"schema": "eel-bench/1", "suite": "%s", "benches": [' "$SUITE"
    local FIRST=1
    for B in "$@"; do
      [ "$FIRST" -eq 1 ] || printf ', '
      FIRST=0
      tr -d '\n' < "$TMP_DIR/$B.json"
    done
    printf ']}\n'
  } > "$OUT"

  # A malformed splice must fail loudly, not get committed.
  if [ -x "$BUILD_DIR/tools/json-check" ]; then
    "$BUILD_DIR/tools/json-check" --require-key benches "$OUT"
  fi
  echo "wrote $OUT"
}

write_suite observability "$REPO_ROOT/BENCH_observability.json" \
  "${OBSERVABILITY_BENCHES[@]}"
write_suite serve "$REPO_ROOT/BENCH_serve.json" "${SERVE_BENCHES[@]}"
write_suite scale "$REPO_ROOT/BENCH_scale.json" "${SCALE_BENCHES[@]}"

# Finish with the live control-plane round-trip: daemon + eel-stat over a
# real unix socket, every output mode validated.
"$REPO_ROOT/scripts/scrape_smoke.sh" "$BUILD_DIR"
