#!/usr/bin/env bash
# The local CI gate: everything a PR must pass, in one command.
# Wraps the documentation gate (tools/check-docs.sh) and the workspace
# test suite. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> docs gate (incl. table-drift check)"
tools/check-docs.sh --tables

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> server integration tests (live TCP)"
cargo test -q -p dlr-server
cargo test -q --test server_e2e

echo "==> shutdown-race guard: serves_four_concurrent_sessions x20"
for _ in $(seq 20); do
    cargo test -q -p dlr-server --test server serves_four_concurrent_sessions
done

echo "==> cluster integration tests (2-replica fleet, routing/failover/epoch locality)"
cargo test -q -p dlr-cluster

echo "==> replica-restart guard: routed_load_survives_replica_restart x20"
for _ in $(seq 20); do
    cargo test -q -p dlr-cluster --test cluster routed_load_survives_replica_restart
done

echo "==> loadgen smoke run"
cargo run --release -q -p dlr-bench --bin loadgen -- --clients 2 --requests 5

echo "==> cluster smoke run (2 replicas, routed clients, mid-run replica restart)"
cargo run --release -q -p dlr-cli -- cluster --replicas 2 --keys 3 --clients 3 \
    --requests 8 --fault-ms 60 --downtime-ms 120

echo "==> kick-tires artifact run (tables + drift gate + trajectory parity)"
tools/kick-tires.sh

echo "==> repo benchmark smoke (every workload 2.5 s, replies verified, output schema)"
benchmark/run.sh --smoke

echo "ci OK"
