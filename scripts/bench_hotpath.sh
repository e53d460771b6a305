#!/usr/bin/env bash
# Build and run the hot-path benchmark gate. Writes BENCH_hotpath.json at
# the repo root and exits non-zero if the perf gate fails (see
# crates/bench/src/bin/hotpath.rs for the thresholds).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p iorch-bench --bin hotpath
exec ./target/release/hotpath
