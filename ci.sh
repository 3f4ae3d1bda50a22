#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test run.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

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

echo "== attest pipeline conformance (segcache / imagecache / golden vectors / session model) =="
cargo test -q --test segcache_coherence --test imagecache_coherence --test golden_vectors --test session_state_machine

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
