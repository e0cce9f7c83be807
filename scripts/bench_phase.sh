#!/bin/sh
# Regenerate the tracked phase-kernel performance baseline.
#
# Runs the substrate microbenchmarks (full sample counts) and writes
# results/BENCH_phase.json: per-bench min/mean/max timings plus the
# derived current-vs-naive speedups for the clustering pipeline, the
# BIC sweep, and the k-means kernel. The same run appends a snapshot to
# the top-level BENCH.json perf trajectory (label it with
# MLPA_BENCH_LABEL, e.g. the PR name). See EXPERIMENTS.md, "Bench
# baseline workflow".
#
# Every run starts by calibrating the host in-process (the ~0.4 s probe
# in mlpa_obs::calibrate): both output files carry the calibration and
# host blocks, and every bench records a machine-normalized cost
# (mean_ns / probe_ns) next to its raw nanoseconds. The CI perf-gate
# job replays this in smoke mode and gates a fresh candidate snapshot
# against the committed BENCH.json with `mlpa-obs gate` on those
# normalized costs. Before recording a baseline worth gating against,
# check the host is quiet:
#
#   cargo run --release -p mlpa-obs --example calprobe
#
# and prefer a run whose reported dispersion stays under ~5%.
#
# Usage: scripts/bench_phase.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
out="${1:-results/BENCH_phase.json}"
# cargo runs bench binaries with the package dir as cwd; hand the
# binary absolute paths so the outputs land at the repo root.
case "$out" in
/*) ;;
*) out="$(pwd)/$out" ;;
esac

MLPA_BENCH_JSON="$out" MLPA_BENCH_TRAJECTORY="$(pwd)/BENCH.json" \
    cargo bench -p mlpa-bench --bench substrate_microbench
