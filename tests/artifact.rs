//! Integration tests for the artifact-harness tooling: the
//! `tools/bench-compare.sh --all` trajectory walk over the committed
//! `BENCH_PR*.json` reports must hold op-count parity and emit
//! well-formed delta output, and a perturbed op count anywhere in the
//! sequence must fail the walk; the one *declared* op-count change (the
//! PR10 → PR12 op-profile boundary) must pass with its predicted deltas
//! printed and fail on anything outside them.
//!
//! These run the real shell script via `bash` from the repository root
//! (integration tests execute with the package root as CWD).

use std::path::Path;
use std::process::{Command, Output};

fn bench_compare(args: &[&str]) -> Output {
    Command::new("bash")
        .arg("tools/bench-compare.sh")
        .args(args)
        .output()
        .expect("spawn tools/bench-compare.sh")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn trajectory_walk_holds_op_count_parity() {
    for f in ["BENCH_PR1.json", "BENCH_PR2.json", "BENCH_PR4.json", "BENCH_PR5.json"] {
        assert!(Path::new(f).exists(), "committed report {f} missing");
    }
    let out = bench_compare(&["--all"]);
    let text = stdout_of(&out);
    assert!(
        out.status.success(),
        "--all failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Verdict and per-pair delta tables are present and well-formed.
    assert!(text.contains("trajectory OK"), "missing verdict:\n{text}");
    assert!(
        text.contains("op counts identical across all shared spans"),
        "missing per-pair parity line:\n{text}"
    );
    assert!(
        text.contains("total_ns delta") && text.contains("self_ns delta"),
        "missing delta-table header:\n{text}"
    );
    // Same-kind pairs compared, methodology boundary skipped, not gated.
    assert!(
        text.contains("BENCH_PR1.json -> BENCH_PR2.json (session)"),
        "session pair not compared:\n{text}"
    );
    assert!(
        text.contains("BENCH_PR4.json -> BENCH_PR5.json (loadgen)"),
        "loadgen pair not compared:\n{text}"
    );
    assert!(
        text.contains("methodology change (session -> loadgen)"),
        "kind boundary not announced:\n{text}"
    );

    // The trajectory summary covers every committed report, oldest first.
    let summary = text
        .split("trajectory summary")
        .nth(1)
        .expect("summary section");
    let mut last = 0;
    for f in ["BENCH_PR1.json", "BENCH_PR2.json", "BENCH_PR4.json", "BENCH_PR5.json"] {
        let pos = summary.find(f).unwrap_or_else(|| panic!("{f} missing from summary:\n{text}"));
        assert!(pos > last, "{f} out of order in summary:\n{text}");
        last = pos;
    }
    // The loadgen rows carry the headline throughput trajectory.
    assert!(summary.contains("390.98"), "PR4 req/s missing:\n{text}");
    assert!(summary.contains("537.98"), "PR5 req/s missing:\n{text}");
}

#[test]
fn trajectory_walk_fails_on_perturbed_op_count() {
    let original = std::fs::read_to_string("BENCH_PR5.json").expect("read BENCH_PR5.json");
    let perturbed = original.replacen("\"pairings\": 20700", "\"pairings\": 20701", 1);
    assert_ne!(original, perturbed, "perturbation did not apply — baseline changed?");

    let dir = std::env::temp_dir().join(format!("dlr-artifact-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let bad = dir.join("BENCH_PR5_perturbed.json");
    std::fs::write(&bad, perturbed).expect("write perturbed report");

    let out = bench_compare(&["--all", "BENCH_PR4.json", bad.to_str().unwrap()]);
    let text = stdout_of(&out);
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        !out.status.success(),
        "--all must fail on an op-count drift:\n{text}"
    );
    assert!(
        text.contains("OP-COUNT MISMATCH"),
        "missing mismatch report:\n{text}"
    );
    assert!(
        text.contains("ops.pairings 20700 -> 20701"),
        "mismatch report must name the drifted op:\n{text}"
    );
}

/// `BENCH_PR12.json` with one op count of one span bumped by one, written
/// to a scratch file whose path is returned.
fn perturbed_pr12(tag: &str, span: &str, bump: fn(&mut dlr::curve::counters::OpsReport)) -> std::path::PathBuf {
    let text = std::fs::read_to_string("BENCH_PR12.json").expect("read BENCH_PR12.json");
    let mut report = dlr::metrics::Report::from_json(&text).expect("parse BENCH_PR12.json");
    bump(&mut report.spans.get_mut(span).expect("span present").ops);
    let path = std::env::temp_dir().join(format!("dlr-artifact-{}-{tag}.json", std::process::id()));
    std::fs::write(&path, report.to_json()).expect("write perturbed report");
    path
}

#[test]
fn declared_op_profile_boundary_moves_only_predicted_fields() {
    // PR10 (f re-encrypted per decrypt) -> PR12 (f once per period): the
    // comparator announces the boundary, prints predicted vs observed for
    // the declared fields, and still holds parity everywhere else.
    let out = bench_compare(&["BENCH_PR10.json", "BENCH_PR12.json"]);
    let text = stdout_of(&out);
    assert!(out.status.success(), "declared boundary must pass:\n{text}");
    assert!(
        text.contains("declared op-profile change (per-decrypt-f -> period-f)"),
        "boundary not announced:\n{text}"
    );
    // 6 clients x 50 decrypts, 17 share elements, kappa = 3: all but each
    // client's first decrypt drop their 17 encryptions.
    assert!(text.contains("4998 Enc' over G (kappa = 3) no longer run"), "{text}");
    assert!(
        text.contains("predicted -14994  observed -14994"),
        "predicted delta missing:\n{text}"
    );
    assert!(text.contains("parity enforced on every other field"), "{text}");

    // Negative controls across the boundary: a field outside the declared
    // set, a non-declared op inside the subtree, and a declared field that
    // disagrees with its prediction must each fail.
    type Bump = fn(&mut dlr::curve::counters::OpsReport);
    let cases: [(&str, &str, Bump, &str); 3] = [
        ("p2", "dec.p2.respond", |o| o.gt_pow += 1, "dec.p2.respond: ops.gt_pow"),
        ("pair", "dec.p1.start", |o| o.pairings += 1, "dec.p1.start: ops.pairings"),
        ("pred", "dec.p1.start", |o| o.g_pow += 1, "declared boundary predicts"),
    ];
    for (tag, span, bump, expect) in cases {
        let bad = perturbed_pr12(tag, span, bump);
        let out = bench_compare(&["BENCH_PR10.json", bad.to_str().unwrap()]);
        let text = stdout_of(&out);
        std::fs::remove_file(&bad).ok();
        assert!(!out.status.success(), "{tag}: perturbed report must fail:\n{text}");
        assert!(text.contains("OP-COUNT MISMATCH") && text.contains(expect), "{tag}:\n{text}");
    }

    // Inside one profile nothing is declared: the same g_pow bump that the
    // boundary would have to predict is a plain mismatch.
    let bad = perturbed_pr12("same", "dec.p1.start", |o| o.g_pow += 1);
    let out = bench_compare(&["BENCH_PR12.json", bad.to_str().unwrap()]);
    let text = stdout_of(&out);
    std::fs::remove_file(&bad).ok();
    assert!(!out.status.success(), "{text}");
    assert!(!text.contains("declared op-profile change"), "{text}");
}

#[test]
fn pairwise_compare_rejects_bad_usage() {
    let out = bench_compare(&["BENCH_PR4.json"]);
    assert_eq!(out.status.code(), Some(2), "one-file usage must exit 2");
    let out = bench_compare(&["--all", "BENCH_PR4.json"]);
    assert_eq!(out.status.code(), Some(2), "--all with one file must exit 2");
}
