#!/usr/bin/env bash
# Tier-1 verification: offline release build + the full test suite,
# plus formatting and lint gates (rustfmt, clippy with -D warnings).
# This is the gate every PR must keep green (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline
cargo clippy --workspace --offline --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
cargo test -q --offline
cargo test -q --offline --workspace

# `cargo test` compiles the examples but never runs them. Each example
# asserts what it prints, so run every one and fail on a non-zero exit.
cargo build --release --offline --examples
for ex in examples/*.rs; do
    name=$(basename "$ex" .rs)
    "target/release/examples/$name" > /dev/null || { echo "example $name failed"; exit 1; }
done

# The end-to-end benchmark is a separate cargo package built on the
# simulator's public API; its self-tests run here so an API change that
# breaks it fails tier 1 rather than the benchmark pipeline.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The convergence oracle (crash the control plane at every tick boundary
# of every fault scenario) is too heavy for the debug suite; its tests
# are #[ignore]d there and run here in release.
cargo test -q --offline -p iorch-bench --release --test convergence -- --include-ignored

# Cluster-wide convergence oracle: crash the controller and each node at
# every tick of the cluster fault scenarios (node_crash, net_partition),
# seeds {7, 42, 1337}; the recovered steady-state digest must be
# byte-identical to the no-extra-fault run's.
cargo test -q --offline -p iorch-bench --release --test cluster_convergence -- --include-ignored

# Policy-redesign byte-identity oracle: every plane expressed as a policy
# set must replay every tracedump scenario byte-identically to the frozen
# legacy plane, seed-swept (the exhaustive sweep is #[ignore]d in debug).
cargo test -q --offline -p iorch-bench --release --test policy_equivalence -- --include-ignored

# Declarative-runner smoke sweep: every named experiment runs at the
# smoke profile and every emitted JSON artifact must pass schema
# validation (required keys, finite numbers, nonzero sample counts).
# This includes the named-policy-set ablation: all seven sets must
# provision and complete the bursty run on one engine (the smoke
# profile skips the parameter ablations).
cargo build --release --offline -p iorch-bench --bin experiments
rm -rf target/exp-smoke
target/release/experiments run all --profile smoke --seed 42 --out target/exp-smoke --quiet
target/release/experiments validate target/exp-smoke

# The cluster family (part of `run all` above) doubles as a gate: it
# fails unless every (nodes, fault) cell converges to the no-fault
# steady state with zero duplicated ownership, and it regenerates
# BENCH_cluster.json at the repo root.
target/release/experiments validate BENCH_cluster.json

# Control-plane scaling gate: `run all` skips wall-clock (timing) specs,
# so the scale experiment runs by name here. It regenerates
# BENCH_scale.json (schema-validated below, like every other artifact)
# and fails unless the 1024-domain steady-state control tick stays
# within 4x of the 16-domain tick.
rm -rf target/exp-scale
target/release/experiments run scale --profile smoke --seed 42 --out target/exp-scale
target/release/experiments validate target/exp-scale
target/release/experiments validate BENCH_scale.json

# Golden-summary regression suite: byte-identical smoke artifacts across
# repeated runs and seeds {7, 42, 1337}, plus the live-telemetry
# non-interference contract (the exhaustive sweep is #[ignore]d in debug).
cargo test -q --offline -p iorch-bench --release --test experiment_determinism -- --include-ignored

# Timer-wheel differential oracle: the wheel scheduler must fire the
# exact same events in the exact same order as the frozen binary-heap
# engine, across randomized op scripts (run in release for seed volume).
cargo test -q --offline -p iorch-simcore --release --test scheduler_differential

# Hot-path perf gate: regenerates BENCH_hotpath.json at full measure and
# fails if any gated row (store write/read, watch fan-out, batched
# fan-out, control tick, scheduler churn) drops below its threshold.
scripts/bench_hotpath.sh

# The trace recorder must also build and pass with the instrumentation
# compiled out (the production hot-path configuration).
export RUSTFLAGS="${RUSTFLAGS:-} --cfg iorch_trace_off"
cargo build --release --offline --workspace
cargo test -q --offline --workspace

echo "tier1 OK"
