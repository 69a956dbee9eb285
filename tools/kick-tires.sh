#!/usr/bin/env bash
# Kick-the-tires artifact run: from a clean checkout, offline, in minutes,
# smoke-verify every headline claim of EXPERIMENTS.md and regenerate the
# measured tables (A6 span fingerprint, A7 fixed-base parity, A8 multiexp
# crossover, A9 dynamic-batching ablation, L1 server load, L2
# high-concurrency ladder, L3 replica-fleet ladder) into out/. Exits
# nonzero if any regenerated op count disagrees with the committed docs.
#
# usage: tools/kick-tires.sh
#
# What it checks, in order:
#   1. the workspace builds in release mode (no network access needed);
#   2. `dlr artifact` regenerates A6/A7/A8/A9/L1/L2/L3 into out/ and
#      every exact (op-count) cell matches EXPERIMENTS.md — the
#      table-drift gate (L2 includes the 1024-concurrent-session rung
#      against the event-loop server with the adaptive batch window on;
#      A9 ablates batch=1 vs adaptive vs unbounded windows and gates the
#      deterministic batched-request counts; L3 sweeps 1/2/4 key-partitioned
#      replicas with routed clients and drift-gates the redirect counts);
#   3. the fresh A6/L1/L3 metrics JSON is op-identical to the committed
#      BENCH_PR2.json / BENCH_L1_PR12.json / BENCH_PR12.json baselines
#      (live run vs history; the A6 session runs one decrypt per period,
#      so it stays op-identical to PR2 across the op-profile boundary);
#   4. the committed PR7->PR8 server rebuild, the PR8->PR9 fleet
#      routing, and the PR9->PR10 batch executor each preserved the
#      workload's op-count fingerprint exactly (routing and batching
#      must be free at the op-count level), and the PR10->PR12 / PR8->
#      L1_PR12 period-fixed f moved only the declared fields (hpske.enc
#      count, g_op/g_pow under dec.p1.start) by the predicted amount;
#   5. negative controls: a deliberately perturbed dec.p2.respond op
#      count must make the comparator fail, within one op profile and
#      across the declared boundary, and so must a boundary delta that
#      disagrees with its prediction (the parity gate can fail);
#   6. the committed BENCH_PR1->PR12 trajectory itself holds op-count
#      parity within each report kind (`bench-compare.sh --all`).
#
# The full-length counterpart (all parameter sets, criterion benches,
# loadgen concurrency ladder) is tools/full.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

started=$(date +%s)
declare -a claims

step() { printf '\n==> %s\n' "$1"; }

step "release build (offline)"
cargo build --release -q -p dlr-cli -p dlr-bench
claims+=("release build: OK")

step "regenerate A6/A7/A8/A9/L1/L2/L3 tables + table-drift gate"
./target/release/dlr artifact --profile kick-tires --mode all
claims+=("table-drift gate (A6/A7/A8/A9/L1/L2/L3 vs EXPERIMENTS.md): OK")

step "live session vs committed BENCH_PR2.json (op-count parity)"
tools/bench-compare.sh BENCH_PR2.json out/A6.json
claims+=("live A6 session op-identical to BENCH_PR2.json: OK")

step "live loadgen vs committed BENCH_L1_PR12.json (op-count parity)"
tools/bench-compare.sh BENCH_L1_PR12.json out/L1.json
claims+=("live L1 loadgen op-identical to BENCH_L1_PR12.json: OK")

step "live fleet loadgen vs committed BENCH_PR12.json (op-count parity)"
tools/bench-compare.sh BENCH_PR12.json out/L3.json
claims+=("live fleet session op-identical to BENCH_PR12.json: OK")

step "PR7->PR8 server rebuild preserved the op-count fingerprint"
tools/bench-compare.sh BENCH_PR7.json BENCH_PR8.json
claims+=("event-loop rebuild op-identical to threaded server (PR7 vs PR8): OK")

step "PR8->PR9 fleet routing preserved the op-count fingerprint"
tools/bench-compare.sh BENCH_PR8.json BENCH_PR9.json
claims+=("2-replica routed fleet op-identical to single server (PR8 vs PR9): OK")

step "PR9->PR10 dynamic batching preserved the op-count fingerprint"
tools/bench-compare.sh BENCH_PR9.json BENCH_PR10.json
claims+=("adaptive batch executor op-identical to inline path (PR9 vs PR10): OK")

step "PR10->PR12 and PR8->L1_PR12 period-fixed f moved only the declared fields"
tools/bench-compare.sh BENCH_PR10.json BENCH_PR12.json
tools/bench-compare.sh BENCH_PR8.json BENCH_L1_PR12.json
claims+=("period-fixed f changed only hpske.enc count and G ops under dec.p1.start, as predicted (PR10 vs PR12, PR8 vs L1_PR12): OK")

step "negative controls: perturbed op counts must fail, inside a profile and across the boundary"
perturbed=$(mktemp /tmp/dlr-perturbed-XXXXXX.json)
# usage: must_reject BASELINE SPAN OP WHAT — bump one op count of the live
# fleet report and require the comparator to refuse it against BASELINE.
must_reject() {
    python3 - out/L3.json "$perturbed" "$2" "$3" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
bumped = 0
for s in doc["spans"]:
    if s["path"] == sys.argv[3]:
        s["ops"][sys.argv[4]] += 1
        bumped += 1
assert bumped == 1, f"expected one {sys.argv[3]} span, found {bumped}"
json.dump(doc, open(sys.argv[2], "w"))
PY
    if tools/bench-compare.sh "$1" "$perturbed" >/dev/null 2>&1; then
        rm -f "$perturbed"
        echo "FAIL: comparator accepted $4"
        exit 1
    fi
}
must_reject BENCH_PR12.json dec.p2.respond gt_pow "a perturbed dec.p2.respond op count"
must_reject BENCH_PR10.json dec.p2.respond gt_pow "a perturbed dec.p2.respond op count across the op-profile boundary"
must_reject BENCH_PR10.json dec.p1.start pairings "a pairing-count change inside the declared subtree"
must_reject BENCH_PR10.json dec.p1.start g_pow "a boundary delta that disagrees with its prediction"
rm -f "$perturbed"
claims+=("comparator rejects perturbed op counts inside a profile and across the declared boundary (negative controls): OK")

step "committed BENCH_PR1->PR12 trajectory parity"
tools/bench-compare.sh --all
claims+=("BENCH_PR* trajectory op-count parity: OK")

# Headline claims, re-read from the freshly generated CSVs so the
# summary reflects this run, not the committed docs.
p2_pairings=$(awk -F, '$1 == "dec.p2.respond" { print $7 }' out/A6.csv)
p1_pairings=$(awk -F, '$1 == "dec.p1.start" { print $7 }' out/A6.csv)
dec_gexp=$(awk -F, '$1 == "dec" { print $4 }' out/A6.csv)
a7_parity=$(awk -F, 'NR > 1 { printf "%s%s: %s", (NR > 2 ? ", " : ""), $1, $7 }' out/A7.csv)
l1_row=$(awk -F, 'NR == 2 { print $2 " requests, " $3 " verified, " $4 " failures" }' out/L1.csv)
l2_top=$(awk -F, 'END { print $1 " concurrent sessions, " $3 "/" $2 " verified, " $4 " failures, " $6 " client panics" }' out/L2.csv)
a9_top=$(awk -F, 'END { print $1 " @ " $2 " sessions: " $6 "/" $3 " batched, " $7 " flushes" }' out/A9.csv)
l3_top=$(awk -F, 'END { print $1 " replicas, " $4 "/" $3 " verified, " $5 " failures, " $7 " redirects" }' out/L3.csv)
[ "$p2_pairings" = "0" ] || { echo "FAIL: P2 did $p2_pairings pairings (claim: zero)"; exit 1; }
claims+=("P2 does zero pairings (all $p1_pairings on P1): OK")
claims+=("A7 fixed-base/generic parity ($a7_parity): OK")
claims+=("L1 load run clean ($l1_row): OK")
claims+=("L2 top rung clean ($l2_top): OK")
claims+=("A9 top ablation cell clean ($a9_top): OK")
claims+=("L3 fleet top rung clean ($l3_top): OK")

elapsed=$(( $(date +%s) - started ))
cat <<EOF

============================================================
 kick-tires PASSED in ${elapsed}s
============================================================
 claims checked:
EOF
for c in "${claims[@]}"; do printf '   - %s\n' "$c"; done
cat <<EOF
 tables written:
$(ls out/*.md out/*.csv out/*.json | sed 's/^/   - /')
 op-count parity verdict: IDENTICAL (live run vs committed docs
   and BENCH_PR* history; per-11-decrypt fingerprint: $p1_pairings pairings,
   $dec_gexp G-exp, timings machine-dependent)
============================================================
EOF
