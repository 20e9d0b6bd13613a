#!/usr/bin/env bash
# Benchmark driver: runs the criterion benches in quick mode (the
# vendored criterion shim is already sample-bounded; quick mode just
# trims the matrix subset via the benches' own constants) and then the
# kernel-vs-interpreter measurement (per-pair ns/nnz for both backends
# plus speedups) and the default-engine end-to-end measurement (every
# catalog pair, cold and warm, per-stage ledger split).
#
# Usage: scripts/bench.sh [--full]
#   default: quick — small inputs, written to target/bench/BENCH_4.quick.json
#            and target/bench/BENCH_E2E.quick.json (sanity runs; the
#            committed BENCH_*.json files are never touched)
#   --full:  the acceptance configurations (BENCH_4: 10k x 10k, 1M nnz;
#            BENCH_E2E: 1e4, 1e5 and 1e6 nnz), written to BENCH_4.json and
#            BENCH_E2E.json at the repo root
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
    echo "==> default engine end to end (BENCH_E2E.json)"
    cargo run -q --release -p sparse-bench --bin bench_e2e -- --full
else
    mkdir -p target/bench
    OUT=target/bench/BENCH_4.quick.json
    echo "==> kernel backend vs interpreter ($OUT)"
    cargo run -q --release -p sparse-bench --bin bench4 -- \
        --n 2000 --nnz 200000 --reps 3 --out "$OUT"
    echo "==> default engine end to end (target/bench/BENCH_E2E.quick.json)"
    cargo run -q --release -p sparse-bench --bin bench_e2e
fi
