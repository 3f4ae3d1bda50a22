#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test run.
# Usage: ./ci.sh               the full gate
#        ./ci.sh --repeat N    only the timing-sensitive gates, N times as
#                              they are and N times pinned to one CPU
#                              (`taskset -c 0`), then a pass count per gate
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == --repeat ]]; then
    runs="${2:?usage: ./ci.sh --repeat N}"
    gates=(
        "gateway_scale --ci|cargo run --release -q -p proverguard-bench --bin gateway_scale -- --ci"
        "gateway_bench --ci|cargo run --release -q -p proverguard-bench --bin gateway_bench -- --ci"
        "--test reactor_gateway|cargo test -q --test reactor_gateway"
        "--test imagecache_concurrency|cargo test -q --test imagecache_concurrency"
    )
    echo "== build =="
    cargo build --release -q -p proverguard-bench --bin gateway_scale --bin gateway_bench
    cargo test -q --no-run --test reactor_gateway --test imagecache_concurrency
    log="$(mktemp)"
    declare -A passed
    for pin in "" "taskset -c 0"; do
        for ((run = 1; run <= runs; run++)); do
            for gate in "${gates[@]}"; do
                name="${gate%%|*}"
                label="$name${pin:+ ($pin)}"
                if $pin ${gate#*|} >"$log" 2>&1; then
                    passed[$label]=$((${passed[$label]:-0} + 1))
                else
                    echo "FAILED run $run: $label"
                    tail -n 20 "$log"
                fi
            done
        done
    done
    rm -f "$log"
    echo "== pass count per gate ($runs runs each) =="
    failed=0
    for pin in "" "taskset -c 0"; do
        for gate in "${gates[@]}"; do
            label="${gate%%|*}${pin:+ ($pin)}"
            echo "$label: ${passed[$label]:-0}/$runs"
            ((${passed[$label]:-0} == runs)) || failed=1
        done
    done
    exit "$failed"
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build --release =="
cargo build --release

echo "== tier-1: test =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== crypto tests, optimised (runtime-selected SHA-1 kernel vs portable reference) =="
cargo test --release -p proverguard-crypto

echo "== benchmark package tests (catches library API changes that break perfbench) =="
cargo test --release --manifest-path perfbench/Cargo.toml

echo "== attest pipeline conformance (segcache / imagecache / golden vectors / session model / in-place prover read) =="
cargo test -q --test segcache_coherence --test imagecache_coherence --test golden_vectors --test session_state_machine --test prover_inplace --test prover_alloc_guard

echo "== chaos soak (short deterministic gate) =="
cargo run --release -q -p proverguard-bench --bin fleet_soak -- --ci

echo "== telemetry trace report (phase table vs cycle model) =="
cargo run --release -q -p proverguard-bench --bin trace_report -- --ci

echo "== gateway bench (socket-free loopback gate) =="
cargo run --release -q -p proverguard-bench --bin gateway_bench -- --ci

echo "== segcache bench (incremental attestation gate, emits BENCH_segcache.json) =="
cargo run --release -q -p proverguard-bench --bin segcache_bench -- --ci

echo "== campaign soak (staged OTA rollout gate, emits BENCH_campaign.json) =="
cargo run --release -q -p proverguard-bench --bin campaign_soak -- --ci

echo "== toctou bench (epoch-log transient-malware gate, emits BENCH_toctou.json) =="
cargo run --release -q -p proverguard-bench --bin toctou_bench -- --ci

echo "== session bench (attested-session amortization + adversary gauntlet, emits BENCH_session.json) =="
cargo run --release -q -p proverguard-bench --bin session_bench -- --ci

echo "== gateway scale (event-driven reactor concurrency gate, emits BENCH_gateway_scale.json) =="
cargo run --release -q -p proverguard-bench --bin gateway_scale -- --ci

echo "== fleet verify bench (shared digest cache gate, emits BENCH_fleet_verify.json) =="
cargo run --release -q -p proverguard-bench --bin fleet_verify_bench -- --ci

echo "CI green."
