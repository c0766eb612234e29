#!/usr/bin/env bash
# Tier-1 CI entry point. Fully offline: the workspace has no external
# dependencies, so every step below runs without network access.
#
#   scripts/ci.sh          # the full gate
#   GGPU_THREADS=1 scripts/ci.sh   # force single-threaded sweeps
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt (check) =="
cargo fmt --all -- --check

echo "== clippy (-D warnings, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (rustdoc, warnings are errors) =="
# Catches intra-doc links to private, renamed or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== lint (static kernel verifier, warnings are denials) =="
# Gates on the shipped kernels AND the generated 1/8-CU netlists; the
# command fails (non-zero exit) on any deny-level finding and prints a
# one-line summary ("N programs, M denials") as its last line.
cargo run -q -p ggpu-lint -- --all-kernels --design 1 --design 8 --deny warn

echo "== build (release) =="
cargo build --workspace --release

echo "== test (workspace) =="
# NOTE: the root manifest is both the workspace and the `g-gpu` facade
# package, so a bare `cargo test` would only run the facade's tests.
cargo test --workspace -q

echo "== goldens under 1 and 4 campaign workers =="
# The fault-campaign golden leaves its worker count to GGPU_THREADS.
# Two counts hand trials to workers differently; the reports must not
# change.
GGPU_THREADS=1 cargo test -q --test golden
GGPU_THREADS=4 cargo test -q --test golden

echo "== smoke (event-driven simulator, ~2 s) =="
cargo run --release --example accelerator_vs_cpu 512

echo "== property suite (transactional transform engine, release) =="
# The journal claims, re-run under the optimizer: revert fidelity
# against content snapshots and rebase chains against one-shot replays,
# plus the beam-vs-greedy acceptance across all 12 Table-I versions.
# (The debug-mode run is part of the workspace tests above.)
cargo test --release -q -p gpuplanner --test prop_journal_equiv --test beam_vs_greedy

echo "== perfbench (unit tests, release) =="
# The reproduction benchmark is a package of its own outside the
# workspace, so the steps above never compile it; this one catches a
# library API change that would break the benchmark. `--locked` also
# fails the step when a library change would rewrite perfbench's
# Cargo.lock (for example a crate gaining or dropping a dependency).
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== ci green =="
