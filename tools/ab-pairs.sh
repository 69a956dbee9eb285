#!/usr/bin/env bash
# Interleaved A/B pairs of the repo benchmark: a parent revision against the
# working tree, one seed per pair, alternating which side runs first, then
# each end-to-end metric of BENCHMARK.json summarised per side (median and
# quartiles), as a ratio, and as pairs won.
#
# usage: tools/ab-pairs.sh --parent REV --workload W[,W2...]
#                          [--pairs 10] [--seconds 20] [--first-seed 1]
#
# Pair i (0-based) runs `--workload W --seed FIRST+i --trace 0` on both
# sides; the parent goes first in even pairs, the change in odd ones. Both
# sides are exported copies (`git archive REV` for the parent, the tracked
# and untracked files of the working tree for the change) in one temp dir
# under ${TMPDIR:-/tmp}, each built into its own CARGO_TARGET_DIR there, so
# nothing in the repository is written (not even benchmark/Cargo.lock or
# benchmark/out/). The temp dir is removed on exit.
#
# Exits 1 if any run exits non-zero, reports "correct": false or a failed
# operation; 2 on bad usage. Prints per-run lines on stderr as it goes and
# the summary table on stdout.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '7,8p' "$0" | sed 's/^# //' >&2
    exit 2
}

parent="" workloads="" pairs=10 seconds=20 first_seed=1
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent="${2:?}"; shift 2 ;;
        --workload) workloads="${2:?}"; shift 2 ;;
        --pairs) pairs="${2:?}"; shift 2 ;;
        --seconds) seconds="${2:?}"; shift 2 ;;
        --first-seed) first_seed="${2:?}"; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$parent" ] && [ -n "$workloads" ] || usage
parent_rev="$(git rev-parse --verify "$parent^{commit}")"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab-pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent" "$tmp/change"
git archive "$parent_rev" | tar -x -C "$tmp/parent"
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
    | tar --null -T - -c | tar -x -C "$tmp/change"

for side in parent change; do
    echo "==> building benchmark ($side)" >&2
    (cd "$tmp/$side" && CARGO_TARGET_DIR="$tmp/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

results="$tmp/results.jsonl"
status=0
run_one() { # side workload pair seed
    local side="$1" wl="$2" pair="$3" seed="$4" line rc=0
    line="$(cd "$tmp/$side" && "$tmp/target-$side/release/dlr-benchmark" \
        --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>>"$tmp/$side.stderr" | tail -n 1)" || rc=$?
    echo "  $wl pair $pair seed $seed $side: exit $rc" >&2
    python3 - "$side" "$wl" "$pair" "$seed" "$rc" "$line" >>"$results" <<'EOF'
import json, sys
side, wl, pair, seed, rc, line = sys.argv[1:]
try:
    result = json.loads(line)
except ValueError:
    result = None
print(json.dumps({"side": side, "workload": wl, "pair": int(pair),
                  "seed": int(seed), "exit": int(rc), "result": result}))
EOF
}

IFS=',' read -r -a wls <<<"$workloads"
for wl in "${wls[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run_one "$side" "$wl" "$i" "$seed"
        done
    done
done

python3 - "$results" BENCHMARK.json "$parent_rev" <<'EOF' || status=1
import json, statistics, sys

rows = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))["end_to_end"]
bad = [r for r in rows
       if r["exit"] != 0 or not r["result"]
       or not r["result"].get("correct") or r["result"].get("failed", 0) != 0]
for r in bad:
    print(f"FAILED RUN: {r['workload']} pair {r['pair']} seed {r['seed']} "
          f"{r['side']}: exit {r['exit']}, result {json.dumps(r['result'])}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"parent {sys.argv[3][:12]} vs working tree")
for wl in dict.fromkeys(r["workload"] for r in rows):
    runs = {(r["side"], r["pair"]): r["result"] for r in rows
            if r["workload"] == wl and r["result"]}
    pairs = sorted({p for (_, p) in runs})
    print(f"\n{wl}: {len(pairs)} pairs")
    print(f"{'metric':<16}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
          f"{'ratio':>8}{'won':>7}  gap>IQR")
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        val = lambda side, p: runs[(side, p)]["metrics"][name]["value"]
        both = [p for p in pairs if ("parent", p) in runs and ("change", p) in runs
                and name in runs[("parent", p)]["metrics"]]
        if not both:
            continue
        a = [val("parent", p) for p in both]
        b = [val("change", p) for p in both]
        qa, qb = quartiles(a), quartiles(b)
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        gap = abs(qb[1] - qa[1]) > (qa[2] - qa[0])
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"{name:<16}{fmt(qa):>30}{fmt(qb):>30}{ratio:>8.3f}"
              f"{won:>4}/{len(both):<2}  {'yes' if gap else 'no'}")
sys.exit(1 if bad else 0)
EOF
exit "$status"
