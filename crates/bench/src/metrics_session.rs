//! An instrumented end-to-end DLR session producing a
//! [`dlr_metrics::Report`] — the data source behind `harness --json` and
//! the `dlr metrics` CLI subcommand.
//!
//! The session runs on the TOY parameter set (like the experiment tables)
//! and exercises both execution styles:
//!
//! * `trials` in-process protocol runs (`decrypt_local` / `refresh_local`)
//!   to populate the span registry with per-phase wall-clock time and
//!   operation counts;
//! * one transport-backed session per protocol over `run_pair` (the
//!   `driver` module, in-memory duplex channel) to collect wire-level
//!   statistics: frames, bytes and per-round latency at `P1`'s endpoint.

use dlr_core::params::SchemeParams;
use dlr_core::{dlr, driver};
use dlr_curve::{Group, Pairing, Toy};
use dlr_metrics::Report;
use dlr_protocol::runtime::run_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;

type E = Toy;
type Fr = <E as Pairing>::Scalar;

/// Run the instrumented session and return the collected report.
///
/// Resets the global span registry first, so the report covers exactly
/// this session. `trials` controls how many decrypt/refresh pairs feed
/// the span aggregates (wire statistics always come from one driver
/// session per protocol).
pub fn metrics_session(trials: u32) -> Report {
    dlr_metrics::reset();
    let mut r = StdRng::seed_from_u64(7);
    let params = SchemeParams::derive::<Fr>(16, 64);

    // Phase spans: keygen / encrypt / local protocol runs.
    let (pk, s1, s2) = dlr::keygen::<E, _>(params, &mut r);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);

    let mut p1 = dlr::Party1::new(pk.clone(), s1.clone());
    let mut p2 = dlr::Party2::new(pk.clone(), s2.clone());
    for _ in 0..trials {
        let got = dlr::decrypt_local(&mut p1, &mut p2, &ct, &mut r).expect("decrypt_local");
        assert_eq!(got, m, "instrumented session must still decrypt correctly");
        dlr::refresh_local(&mut p1, &mut p2, &mut r).expect("refresh_local");
    }

    // Wire statistics: one decrypt and one refresh over a real transport.
    let (mut d1, mut d2) = (
        dlr::Party1::new(pk.clone(), s1.clone()),
        dlr::Party2::new(pk.clone(), s2.clone()),
    );
    let ct2 = ct;
    let out = run_pair(
        move |t| {
            let mut rng = StdRng::seed_from_u64(8);
            let got = driver::p1_decrypt(&mut d1, &ct2, t, &mut rng).expect("p1_decrypt");
            driver::p1_shutdown(t).expect("p1_shutdown");
            got
        },
        move |t| {
            let mut rng = StdRng::seed_from_u64(9);
            driver::p2_serve_loop(&mut d2, t, &mut rng).expect("p2_serve_loop")
        },
    );
    assert_eq!(out.p1, m, "driver session must still decrypt correctly");
    let wire_decrypt = out.wire;

    let (mut r1, mut r2) = (
        dlr::Party1::new(pk.clone(), s1),
        dlr::Party2::new(pk, s2),
    );
    let out = run_pair(
        move |t| {
            let mut rng = StdRng::seed_from_u64(10);
            driver::p1_refresh(&mut r1, t, &mut rng).expect("p1_refresh");
            driver::p1_shutdown(t).expect("p1_shutdown");
        },
        move |t| {
            let mut rng = StdRng::seed_from_u64(11);
            driver::p2_serve_loop(&mut r2, t, &mut rng).expect("p2_serve_loop")
        },
    );
    // Capture only after the driver threads have joined, so their spans
    // (flushed at outermost exit on each worker thread) are included.
    let mut report = Report::capture()
        .with_meta("curve", "TOY")
        .with_meta("op_profile", dlr::OP_PROFILE)
        .with_meta("trials", &trials.to_string());
    report.push_wire("driver.decrypt", wire_decrypt);
    report.push_wire("driver.refresh", out.wire);

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_produces_complete_report() {
        let report = metrics_session(2);
        // Every taxonomy span that the session exercises must be present.
        for path in [
            "gen",
            "enc",
            "dec",
            "dec.p1.start",
            "dec.p2.respond",
            "dec.p1.finish",
            "refresh",
            "refresh.p1.start",
            "refresh.p2.respond",
            "refresh.p1.finish",
            "hpske.enc",
            "hpske.dec",
            "pss.gen",
            "pss.enc",
        ] {
            assert!(report.spans.contains_key(path), "missing span {path}");
        }
        // 2 local trials + 1 driver decrypt (counted on its own thread).
        assert_eq!(report.spans["dec"].count, 3);
        assert_eq!(report.spans["refresh"].count, 3);
        // Decryption does pairings on P1, and P2 never pairs (§1.1).
        assert!(report.spans["dec.p1.start"].ops.pairings > 0);
        assert_eq!(report.spans["dec.p2.respond"].ops.pairings, 0);
        // Wire rows: both protocols, non-trivial traffic, one round each.
        assert_eq!(report.wire.len(), 2);
        for row in &report.wire {
            assert!(row.stats.frames_sent >= 2, "{}", row.label); // request + shutdown
            assert_eq!(row.stats.frames_received, 1, "{}", row.label);
            assert!(row.stats.bytes_sent > 100, "{}", row.label);
            assert!(row.stats.bytes_received > 0, "{}", row.label);
            assert_eq!(row.stats.rounds(), 1, "{}", row.label);
        }
        // The export round-trips.
        let json = report.to_json();
        assert_eq!(dlr_metrics::Report::from_json(&json).unwrap(), report);
    }
}
