#!/usr/bin/env bash
# Diff two harness --json reports (e.g. BENCH_PR1.json vs BENCH_PR2.json):
# per-span-path total_ns and self_ns deltas plus the op counts, failing
# with exit 1 if any span present in both reports disagrees on operation
# counts — op counts are the semantic fingerprint of a run, so a perf PR
# must move nanoseconds while keeping them bit-identical.
#
# One kind of difference is *declared* instead of forbidden: reports carry
# `meta.op_profile` (absent = "per-decrypt-f", every report before PR 12),
# and across the per-decrypt-f -> period-f boundary P1 builds the period's
# f = Enc'(a_1..l) once instead of once per decrypt. That moves exactly
# `hpske.enc` count and g_op/g_pow on `dec.p1.start`, its parent `dec` and
# its child `hpske.enc`, by an amount the dropped-encryption count
# predicts. Those fields are printed with predicted and observed deltas and
# must agree; every other field of every span (pairings, gt_*, everything
# under dec.p2.respond, dec.p1.finish, refresh.*) stays under strict parity.
#
# usage: tools/bench-compare.sh BASELINE.json CANDIDATE.json
#        tools/bench-compare.sh --all [BENCH.json ...]
#
# --all walks the committed BENCH_PR*.json trajectory (oldest to newest,
# or an explicit file list): compares every consecutive pair *of the same
# report kind* for op-count parity and prints a one-table summary of the
# headline numbers (dec.p1.start, enc span time, loadgen throughput)
# across the whole sequence. Session reports (harness --json) and loadgen
# reports run different workloads over the same span names, so op counts
# are only comparable within a kind; kind boundaries are announced and
# skipped. Exits 1 if any same-kind consecutive pair disagrees.
set -euo pipefail

report_kind() {
    python3 -c '
import json, sys
meta = json.load(open(sys.argv[1])).get("meta", {})
print("loadgen" if meta.get("component") == "dlr-loadgen" else "session")
' "$1"
}

if [ "${1:-}" = "--all" ]; then
    shift
    cd "$(dirname "$0")/.."
    if [ $# -gt 0 ]; then
        files=("$@")
    else
        # Sort by the numeric PR suffix, not lexically (PR10 > PR9).
        mapfile -t files < <(ls BENCH_PR*.json 2>/dev/null \
            | sed 's/^BENCH_PR\([0-9]*\)\.json$/\1 &/' | sort -n | cut -d' ' -f2)
    fi
    if [ "${#files[@]}" -lt 2 ]; then
        echo "--all needs at least two BENCH_*.json files, found ${#files[@]}" >&2
        exit 2
    fi

    status=0
    compared=0
    i=0
    while [ $((i + 1)) -lt "${#files[@]}" ]; do
        a="${files[$i]}" b="${files[$((i + 1))]}"
        ka="$(report_kind "$a")" kb="$(report_kind "$b")"
        if [ "$ka" = "$kb" ]; then
            echo "==> $a -> $b ($ka)"
            if ! "$0" "$a" "$b"; then
                status=1
            fi
            compared=$((compared + 1))
        else
            echo "==> $a -> $b: methodology change ($ka -> $kb), op counts not comparable — skipped"
        fi
        echo
        i=$((i + 1))
    done
    if [ "$compared" -eq 0 ]; then
        echo "--all compared no pairs (every consecutive pair crossed a methodology boundary)" >&2
        exit 2
    fi

    python3 - "${files[@]}" <<'PY'
import json
import sys

print("trajectory summary (oldest -> newest):")
header = f"{'report':<18} {'kind':<10} {'dec.p1.start':>14} {'enc span':>12} {'req/s':>8}"
print(header)
print("-" * len(header))

def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.2f} {unit}"
    return f"{ns} ns"

for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    spans = {s["path"]: s for s in doc.get("spans", [])}
    meta = doc.get("meta", {})
    kind = "loadgen" if meta.get("component") == "dlr-loadgen" else "session"
    p1s = fmt_ns(spans["dec.p1.start"]["total_ns"]) if "dec.p1.start" in spans else "-"
    enc = fmt_ns(spans["enc"]["total_ns"]) if "enc" in spans else "-"
    rps = meta.get("throughput_rps", "-")
    print(f"{path:<18} {kind:<10} {p1s:>14} {enc:>12} {rps:>8}")

print()
print("note: session and loadgen reports run different workloads over the")
print("same span names, so timings only trend within a kind; timings are")
print("machine-dependent, op-count parity within a kind is the gate.")
PY

    if [ "$status" -ne 0 ]; then
        echo "OP-COUNT MISMATCH somewhere in the trajectory (see above)" >&2
        exit 1
    fi
    echo "trajectory OK: op counts identical across all same-kind consecutive pairs ($compared compared)"
    exit 0
fi

if [ $# -ne 2 ]; then
    echo "usage: $0 BASELINE.json CANDIDATE.json" >&2
    echo "       $0 --all [BENCH.json ...]" >&2
    exit 2
fi

python3 - "$1" "$2" <<'PY'
import json
import sys

base_path, cand_path = sys.argv[1], sys.argv[2]
with open(base_path) as f:
    base = json.load(f)
with open(cand_path) as f:
    cand = json.load(f)

def spans_of(doc):
    return {s["path"]: s for s in doc.get("spans", [])}

base_spans, cand_spans = spans_of(base), spans_of(cand)
OPS = ("g_op", "g_pow", "gt_op", "gt_pow", "pairings")

def fmt_ns(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if abs(ns) >= div:
            return f"{ns / div:+.2f} {unit}"
    return f"{ns:+d} ns"

print(f"baseline : {base_path}")
print(f"candidate: {cand_path}")
base_batching = base.get("meta", {}).get("batching", "off")
cand_batching = cand.get("meta", {}).get("batching", "off")
if base_batching != cand_batching:
    # Server-side batching is a scheduling change, not a methodology
    # change: the fused batch engine must be counter-identical to the
    # inline path, so op-count parity is still enforced across it.
    print(f"note: server batching changed ({base_batching} -> {cand_batching}); "
          "batching must be free at the op-count level, parity still enforced")
print()
header = f"{'span':<28} {'count':>5} {'total_ns delta':>16} {'%':>8} {'self_ns delta':>16}"
print(header)
print("-" * len(header))

# The declared op-profile boundary (see the header): which fields may move
# across it, and what the move must look like.
LEGACY_PROFILE = "per-decrypt-f"
base_profile = base.get("meta", {}).get("op_profile", LEGACY_PROFILE)
cand_profile = cand.get("meta", {}).get("op_profile", LEGACY_PROFILE)
F_SUBTREE = ("dec", "dec.p1.start", "hpske.enc")  # parent, span, child
declared = set()
if (base_profile, cand_profile) == (LEGACY_PROFILE, "period-f"):
    declared = {(path, op) for path in F_SUBTREE for op in ("g_op", "g_pow")}
    declared.add(("hpske.enc", "count"))
elif base_profile != cand_profile:
    print(f"UNDECLARED op-profile change: {base_profile} -> {cand_profile}")
    sys.exit(1)

mismatches = []
for path in sorted(set(base_spans) | set(cand_spans)):
    b, c = base_spans.get(path), cand_spans.get(path)
    if b is None or c is None:
        which = "candidate only" if b is None else "baseline only"
        print(f"{path:<28} {'-':>5} {which:>16}")
        continue
    dt = c["total_ns"] - b["total_ns"]
    ds = c["self_ns"] - b["self_ns"]
    pct = 100.0 * dt / b["total_ns"] if b["total_ns"] else 0.0
    print(f"{path:<28} {c['count']:>5} {fmt_ns(dt):>16} {pct:>+7.1f}% {fmt_ns(ds):>16}")
    if b["count"] != c["count"] and (path, "count") not in declared:
        mismatches.append(f"{path}: count {b['count']} -> {c['count']}")
    for op in OPS:
        if b["ops"][op] != c["ops"][op] and (path, op) not in declared:
            mismatches.append(f"{path}: ops.{op} {b['ops'][op]} -> {c['ops'][op]}")

print()
if declared and all(p in base_spans and p in cand_spans for p in F_SUBTREE):
    # Every Enc' over G that dec.p1.start no longer runs is one hpske.enc
    # span, one G-mul and kappa G-exps fewer — in the span itself and in
    # its parent and child alike. kappa is read off the baseline: all of
    # dec.p1.start's G work there is those encryptions.
    dropped = base_spans["hpske.enc"]["count"] - cand_spans["hpske.enc"]["count"]
    start_ops = base_spans["dec.p1.start"]["ops"]
    kappa = start_ops["g_pow"] // start_ops["g_op"] if start_ops["g_op"] else 0
    print(f"declared op-profile change ({base_profile} -> {cand_profile}): "
          f"P1 builds f once per period, {dropped} Enc' over G (kappa = {kappa}) no longer run")
    if dropped < 0:
        mismatches.append(f"hpske.enc: count rose by {-dropped} across a boundary that only drops encryptions")
    for path in F_SUBTREE:
        for op, predicted in (("g_op", -dropped), ("g_pow", -dropped * kappa)):
            before, after = base_spans[path]["ops"][op], cand_spans[path]["ops"][op]
            print(f"  {path:<14} ops.{op:<6} {before:>7} -> {after:<7} "
                  f"predicted {predicted:+d}  observed {after - before:+d}")
            if after - before != predicted:
                mismatches.append(
                    f"{path}: ops.{op} {before} -> {after} (declared boundary predicts {predicted:+d})")
    print("  parity enforced on every other field of every span")
    print()
if mismatches:
    print("OP-COUNT MISMATCH (perf changes must not change semantics):")
    for m in mismatches:
        print(f"  {m}")
    sys.exit(1)
print("op counts identical across all shared spans"
      + (" outside the declared op-profile fields" if declared else ""))
PY
