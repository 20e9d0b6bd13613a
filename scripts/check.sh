#!/usr/bin/env bash
# Full local gate: release build, tests, and lint-clean clippy.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every crate's unit, integration and doc tests, not just the root
# package's; the focused suites below re-run the contracts by name.
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> no-panic gate: hardened crates deny unwrap/expect in non-test code"
# sparse-engine and sparse-formats carry crate-level
# #![deny(clippy::unwrap_used, clippy::expect_used)]; clippy.toml exempts
# #[cfg(test)] code. Any panicking escape hatch in production code fails
# this step. (The flags live in the crates, not on the command line,
# because trailing clippy flags leak into workspace-internal deps.)
cargo clippy -q -p sparse-engine -p sparse-formats --lib

echo "==> fault-injection suite (zero-panic execution contract)"
cargo test -q -p sparse-engine --test fault_injection
cargo test -q -p sparse-matgen corrupt

echo "==> observability suite (obs crate + span/counter/exposition contracts)"
# The sparse-obs unit tests (ring overflow accounting, histogram bucket
# edges, exposition formatting) plus the engine-level contracts: stage
# span coverage, exact counter semantics under faults and concurrency,
# and the metrics_text() snapshot (metric names are stable API).
cargo test -q -p sparse-obs
cargo test -q -p sparse-engine --test observability
cargo test -q -p sparse-engine --test concurrency

echo "==> differential suite (kernel/interpreter bit-identity)"
# Kernel level: every registered kernel against the interpreter. Engine
# level: all 37 catalog pairs through default engines under Backend::Auto
# and Backend::InterpreterOnly, against the container references — the
# evidence the default engine's kernel gate rests on.
cargo test -q -p sparse-synthesis --test differential
cargo test -q -p sparse-engine --test differential
cargo test -q -p sparse-engine --test backend

echo "==> cargo run --release --example lint_descriptor (static-analysis gate)"
# Lints every catalog descriptor and statically verifies every
# synthesizable conversion plan; exits nonzero on any error or warning.
cargo run --release --example lint_descriptor

echo "All checks passed."
