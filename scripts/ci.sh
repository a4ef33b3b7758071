#!/usr/bin/env bash
# Full local CI gate: build, tests, socket smoke, lints, formatting.
#
# Stages run in order and fail fast: the first failing command aborts the
# script and the ERR trap prints which named stage died, so a long log
# always ends with the culprit.
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_STAGE="(startup)"
stage() {
    CURRENT_STAGE="$1"
    echo "==== stage: $CURRENT_STAGE ===="
}
trap 'echo "FAILED in stage: $CURRENT_STAGE" >&2' ERR

stage "build"
cargo build --release

stage "tests (SIMNET_THREADS matrix)"
# Tier-1 tests run under both thread settings: SIMNET_THREADS feeds
# `DrainMode::Sharded { threads: 0, .. }` resolution, so =1 exercises
# the sequential fallback and =4 the parallel epoch loop. Digest
# equality between the two is what the sharded determinism tests check
# (simnet/tests/sharded.rs, visapp's load tests, the arbiter and DST
# suites); the root `default-members` lists every workspace crate, so
# `cargo test -q` runs them.
# Note: the chaos fault-injection scenarios (visapp `chaos_*` tests) run
# as part of `cargo test -q`; they used to be a dedicated stage, which
# ran the whole visapp suite a second time for nothing.
for t in 1 4; do
    SIMNET_THREADS=$t cargo test -q
done

stage "arbiter smoke"
# Saturation smoke: a 200-application arbiter storm must hold the
# arbiter invariant oracles (tier-ordered shedding, no eviction without
# a policing violation) and digest identically whichever way the
# sharded drain's `threads: 0` resolves.
cargo build --release -q -p adapt-bench
d1="$(SIMNET_THREADS=1 ./target/release/arbiter_smoke)"
d4="$(SIMNET_THREADS=4 ./target/release/arbiter_smoke)"
if [ "$d1" != "$d4" ]; then
    echo "arbiter_smoke: digest diverged: threads=1 $d1 != threads=4 $d4" >&2
    exit 1
fi
echo "arbiter_smoke: digest $d1 stable across SIMNET_THREADS={1,4}"

stage "socket smoke"
# Real-socket transport smoke: one adaptive session replayed over
# loopback TCP (and UDS where available; a UDS bind failure is a skip,
# not an error) must make exactly the same adaptive decisions as the
# pure-simnet run — and the decision digest must not depend on how the
# sharded drain resolves, so the same SIMNET_THREADS={1,4} matrix as the
# tier-1 tests applies.
s1="$(SIMNET_THREADS=1 ./target/release/socket_smoke)"
s4="$(SIMNET_THREADS=4 ./target/release/socket_smoke)"
if [ "$s1" != "$s4" ]; then
    echo "socket_smoke: decision digest diverged: threads=1 $s1 != threads=4 $s4" >&2
    exit 1
fi
echo "socket_smoke: decision digest $s1 stable across SIMNET_THREADS={1,4}"

stage "control-plane smoke"
# Live-reconfiguration smoke: the preference_flip example asserts the
# control plane end to end — an empty command schedule leaves the event
# stream byte-identical across reruns, a mid-run Command::Set flips the
# scheduler's choice in the same run with a matching audit event, and a
# pinned knob refuses the Set.
cargo run --release -q --example preference_flip

stage "clippy"
# The pre-obs shims (Trace::events/take/render, StatsHandle::with_mut,
# AdaptiveRuntime::configure/events, FaultPlan::loss/...) are deleted;
# -D deprecated keeps any future soft-deprecated entry point out of the
# workspace's own code from day one.
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets -- -D deprecated

stage "rustdoc"
# Rustdoc is part of the API surface: broken intra-doc links and bad
# doc examples fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

stage "fmt"
cargo fmt --check

# Simulation-test canary: the adapt-dst suite compiled with the planted
# dedup bug must find it, shrink it, and replay the committed repro.
# Opt-in because it rebuilds the workspace under a different cfg.
if [ "${CI_DST_CANARY:-0}" = "1" ]; then
    stage "dst canary"
    # Same two-point SIMNET_THREADS matrix as the tier-1 tests: the
    # explorer's every-16th-trial cross-check replays under the sharded
    # drain, so the canary must stay green whichever way `threads: 0`
    # resolves.
    for t in 1 4; do
        SIMNET_THREADS=$t RUSTFLAGS="--cfg dst_canary" cargo test -q --release -p adapt-dst
    done
fi

# Model-drift canary: the adapt-dst suite compiled with the planted
# latency spike must make the refine engine alarm, the explorer must
# capture and shrink the incident, and the committed model_drift repro
# must replay bit-for-bit (digest-pinned) under every drain mode.
if [ "${CI_DST_DRIFT:-0}" = "1" ]; then
    stage "dst drift canary"
    for t in 1 4; do
        SIMNET_THREADS=$t RUSTFLAGS="--cfg dst_drift" cargo test -q --release -p adapt-dst
    done
fi

# Coverage floor: opt-in, requires cargo-llvm-cov. The --workspace scope
# picks up every crates/* member automatically, adapt-transport included.
if [ "${CI_COV:-0}" = "1" ]; then
    stage "coverage floor"
    cargo llvm-cov --workspace -q --fail-under-lines "$(cat scripts/coverage_floor.txt)"
fi

# Benchmark regression gate: opt-in because it rebuilds and re-runs
# every BENCH_*.json generator (several minutes of wall time — the
# load sweep now climbs to 100k sessions and runs a sharded
# threads-vs-throughput curve; see DESIGN.md §14).
if [ "${CI_BENCH:-0}" = "1" ]; then
    stage "bench gate"
    scripts/bench_gate.sh
fi

echo "==== all stages passed ===="
