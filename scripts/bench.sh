#!/usr/bin/env bash
# Benchmark driver: runs the criterion benches in quick mode (the
# vendored criterion shim is already sample-bounded; quick mode just
# trims the matrix subset via the benches' own constants) and then the
# kernel-vs-interpreter measurement (per-pair ns/nnz for both backends
# plus speedups).
#
# Usage: scripts/bench.sh [--full]
#   default: quick — small matrices, written to target/bench/BENCH_4.quick.json
#            (a sanity run; the committed BENCH_4.json is never touched)
#   --full:  the acceptance configuration (10k x 10k, 1M nnz), written to
#            BENCH_4.json at the repo root
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-quick}"

echo "==> criterion benches (quick mode)"
cargo bench -q -p sparse-bench --bench fig2_conversions
cargo bench -q -p sparse-bench --bench table4_morton

if [ "$MODE" = "--full" ]; then
    OUT=BENCH_4.json
    echo "==> kernel backend vs interpreter ($OUT)"
    cargo run -q --release -p sparse-bench --bin bench4 -- --out "$OUT"
else
    mkdir -p target/bench
    OUT=target/bench/BENCH_4.quick.json
    echo "==> kernel backend vs interpreter ($OUT)"
    cargo run -q --release -p sparse-bench --bin bench4 -- \
        --n 2000 --nnz 200000 --reps 3 --out "$OUT"
fi

echo "Wrote $OUT"
