#!/usr/bin/env bash
# The repo benchmark: builds the release binary of this package from source
# (offline) and runs it from the repository root. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/dlr-benchmark" "$@"
