#!/usr/bin/env bash
# Documentation gate: rustdoc must build warning-free and every doctest
# must pass. Run from the repository root (CI runs this on every push).
#
# With --tables, additionally regenerates the measured EXPERIMENTS.md
# tables (A6/A7/A8/A9/L1/L2/L3) into out/ via `dlr artifact` and fails if any exact
# (op-count) cell disagrees with the committed docs — the table-drift
# gate. Timing cells (columns headed `(md)`) are machine-dependent and
# never compared.
set -euo pipefail
cd "$(dirname "$0")/.."

check_tables=0
for arg in "$@"; do
    case "$arg" in
        --tables) check_tables=1 ;;
        *) echo "usage: $0 [--tables]" >&2; exit 2 ;;
    esac
done

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo doc --document-private-items (dlr-math, dlr-curve, dlr-core, dlr-bls12, dlr-metrics, dlr-server)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --document-private-items \
    -p dlr-math -p dlr-curve -p dlr-core -p dlr-bls12 -p dlr-metrics -p dlr-server

echo "==> doctests"
cargo test --workspace --doc

if [ "$check_tables" -eq 1 ]; then
    echo "==> table-drift gate (EXPERIMENTS.md vs regenerated out/)"
    cargo run --release -q -p dlr-cli -- artifact --profile kick-tires --mode all
fi

echo "docs OK"
