#!/usr/bin/env bash
# Refreshes every committed CI baseline in one pass:
#
#   * experiments_output/BENCH_baseline.json   — perf gate (counters exact, seconds ±10%)
#   * experiments_output/ANALYZE_baseline.json — analyzer suppressions
#   * experiments_output/ANN_recall_floor.json — IVF recall gate
#
# Run this when a PR intentionally moves performance, accepts an
# analyzer finding (or leaves baseline entries stale), or changes
# approximate-search quality; review and commit the resulting diffs —
# the reviewed diff IS the acceptance decision. The CI
# `baseline-refresh` job (workflow_dispatch) runs this script and
# uploads the diff as a patch artifact.
#
# The bench commands and BENCH_SCALE (default 0.002) must match what the
# CI perf-gate and ann-recall-gate jobs run — keep them in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${BENCH_SCALE:-0.002}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Perf gate.
cargo run --release --locked -p bench --bin counters_report -- \
    --scale "$SCALE" --json "$TMP/counters.json"
cargo run --release --locked -p bench --bin shard_scaling -- \
    --scale "$SCALE" --json "$TMP/shard.json"
cargo run --release --locked -p bench --bin serve_throughput -- \
    --scale "$SCALE" --json "$TMP/serve.json"
cargo run --release --locked -p bench --bin serve_fleet -- \
    --scale "$SCALE" --json "$TMP/fleet.json"
cargo run --release --locked -p bench --bin ann_recall -- \
    --scale "$SCALE" --json "$TMP/ann.json"
cargo run --release --locked -p bench --bin serve_ingest -- \
    --scale "$SCALE" --json "$TMP/ingest.json"
cargo run --locked -p xtask --bin compare_bench -- \
    --write-baseline experiments_output/BENCH_baseline.json \
    "$TMP/counters.json" "$TMP/shard.json" "$TMP/serve.json" "$TMP/fleet.json" \
    "$TMP/ann.json" "$TMP/ingest.json"

# Analyzer suppressions.
cargo run --locked -p xtask --bin analyze -- --write-baseline

# IVF recall floor, from the ann_recall report above.
cargo run --locked -p xtask --bin check_recall -- \
    --write-floor experiments_output/ANN_recall_floor.json "$TMP/ann.json"

echo "Refreshed BENCH_baseline.json, ANALYZE_baseline.json and" \
     "ANN_recall_floor.json — review and commit the diffs."
