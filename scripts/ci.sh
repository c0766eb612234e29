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
# perfbench is a workspace of its own, so `--all` never reaches it.
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

echo "== clippy (-D warnings, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== no process-global state in library sources =="
# A `static` item or a `thread_local!` in a library outlives every
# session that fills it, so its contents and counters depend on what
# else ran in the process. Sessions own their caches instead.
if grep -rnE '\bstatic\s+(mut\s+)?[A-Z_][A-Z0-9_]*\s*:|thread_local!' crates/*/src src/; then
    echo "process-global state declared above; keep it in a session-owned value" >&2
    exit 1
fi

echo "== every declared dependency is used =="
# A package's [dependencies] entry on a workspace crate that no file
# under its src/ names is an edge nothing uses. Two such edges wait for
# the next benchmark change (ROADMAP item 2): dropping either rewrites
# perfbench/Cargo.lock, which the perfbench steps below build --locked.
unused_allowed=" ggpu-pnr->ggpu-synth ggpu-fault->ggpu-wal "
members=" $(sed -n 's/^name = "\(.*\)"$/\1/p' crates/*/Cargo.toml | tr '\n' ' ') "
unused=""
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    package=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    for dep in $(sed -n '/^\[dependencies\]/,/^\[/s/^\([A-Za-z0-9_-]*\)[ .=].*/\1/p' "$manifest"); do
        case "$members" in *" $dep "*) ;; *) continue ;; esac
        case "$unused_allowed" in *" $package->$dep "*) continue ;; esac
        if ! grep -rqw "${dep//-/_}" "$dir/src"; then
            unused="$unused $package->$dep"
        fi
    done
done
if [ -n "$unused" ]; then
    echo "declared but unused workspace dependencies:$unused" >&2
    exit 1
fi

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

echo "== Table III at the paper's sizes (release) =="
# tests/golden/table3_runstats.txt pins the 28 paper-size G-GPU
# RunStats and the 7 RISC-V cycle counts. Its test is ignored in
# debug builds (~20 s there, ~1.5 s optimized), so it runs here.
cargo test --release -q --test golden

echo "== smoke (event-driven simulator, ~2 s) =="
cargo run --release --example accelerator_vs_cpu 512

echo "== property suite (transactional transform engine, release) =="
# The journal claims, re-run under the optimizer: random apply/revert
# walks against content snapshots (a full unwind also restores the
# base's copy-on-write sharing) and rebase chains against one-shot
# replays. (The debug-mode run is part of the workspace tests above.)
cargo test --release -q -p gpuplanner --test prop_journal_equiv

echo "== STA memo property suite (release, raised case count) =="
# StaCache answers a design from its fingerprint alone, so nothing but
# that fingerprint keeps a transformed design from its base's timing:
# random plans on random designs, memoized reports and fmax against
# the full analyzer down to slack and fmax bits.
GGPU_PROP_CASES=20000 cargo test --release -q -p gpuplanner --test prop_sta_memo_equiv

echo "== fork property suite (release, raised case count) =="
# Gpu::launch_forked against fresh single-injection hardened launches
# on both backends: results, fault logs, typed errors and memory
# images. The workspace tests above run it at its default 48 cases.
GGPU_PROP_CASES=1000 cargo test --release -q -p ggpu-simt --test prop_fork

echo "== SoA equivalence property suite (release, raised case count) =="
# The SoA engine, its lane-uniform register set included, against the
# scalar engine: RunStats, memory images, typed errors and fault logs
# over random programs, templates and fault plans (~5 s of test time).
GGPU_PROP_CASES=2000 cargo test --release -q -p ggpu-simt --test prop_backend_equiv

echo "== absint soundness suite (release, raised case count) =="
# Randomized kernels on both backends with the trace oracle attached:
# address intervals, K010-K012 and branch uniformity against what the
# machine did. Rare shapes (a lane-mixing merge the solver must demote
# to varying) first show up past the default 128 cases.
GGPU_PROP_CASES=20000 cargo test --release -q -p ggpu-simt --test prop_absint_soundness

echo "== barrier soundness and liveness suite (release, raised case count) =="
# Random barrier programs on both backends: one with no K004, K005,
# K008 or K009 finding never splits at a barrier (a pinned kernel whose
# lanes differ only by the path they took runs first), and no single
# exec-mask, PC or register upset ends a launch in SchedulerStall
# (~5 s of test time).
GGPU_PROP_CASES=20000 cargo test --release -q -p ggpu-simt --test prop_lint_soundness

echo "== fault campaign suite (release, raised case count) =="
# The campaign-level fork equivalence (every forked trial against a
# fresh launch), the thread-count determinism of the reports and the
# no-panic fuzz (at 500 cases), under the optimizer.
GGPU_PROP_CASES=500 cargo test --release -q -p ggpu-fault

echo "== perfbench (unit tests, release) =="
# The reproduction benchmark is a package of its own outside the
# workspace, so the steps above never compile it; this one catches a
# library API change that would break the benchmark. `--locked` also
# fails the step when a library change would rewrite perfbench's
# Cargo.lock (for example a crate gaining or dropping a dependency).
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== perfbench (each workload once, release) =="
# Every op re-checks its outputs against the first op, and a supervised
# gen_flow run that degrades fails its op. The last line is the run's
# JSON record; the step fails unless every op was correct and none
# failed.
for workload in paper_repro fault_campaign gen_flow; do
    last=$(cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    echo "$workload: $last"
    case "$last" in
        *'"correct": true,'*'"failed": 0,'*) ;;
        *)
            echo "perfbench $workload: an op was wrong or failed" >&2
            exit 1
            ;;
    esac
done

echo "== ci green =="
