//! `replay_toy` / `replay_ss512`: precomputed `DecMsg1` frames against one
//! server over two open sessions. The generator does no curve work, so the
//! server (`P2`) is the bottleneck.

use crate::json::Value;
use crate::load::MAIN;
use crate::report::{self, Report};
use crate::wl::{self, KeyMaterial, Rates, ReplayConn, RunArgs, RunningServer};
use crate::{gen, micro};
use dlr_curve::{Pairing, SsParams};
use dlr_server::Keyring;
use std::sync::Arc;
use std::time::Instant;

pub const KEY_ID: &[u8] = b"replay";

/// Generator threads, each with one open session.
pub const CONNECTIONS: usize = 2;

pub struct Setup {
    pub server: RunningServer,
    pub clients: Vec<ReplayConn>,
}

/// Keygen, frame precompute, server spawn, and two sessions up to their
/// first verified reply.
pub fn setup<E: SsParams + Pairing>(seed: u64, frames: usize) -> Setup {
    let KeyMaterial { pk, share2, set } =
        wl::build_key::<E>(&mut gen::rng_for(seed, 1), KEY_ID, frames);
    let mut keyring = Keyring::new();
    keyring.insert(KEY_ID, pk, share2);
    let server = wl::spawn_server(keyring, wl::server_config());
    let set = Arc::new(set);
    let clients = (0..CONNECTIONS)
        .map(|i| ReplayConn::open(server.addr(), Arc::clone(&set), i * frames / CONNECTIONS))
        .collect();
    Setup { server, clients }
}

pub fn run<E: SsParams + Pairing>(
    name: &'static str,
    frames: usize,
    rates: Rates,
    args: RunArgs,
    origin: Instant,
) -> Report {
    let mut report = Report::new(name);
    let (
        setup_s,
        Setup {
            server,
            mut clients,
        },
    ) = wl::timed_setup(
        args,
        || setup::<E>(args.seed, frames),
        |old| {
            drop(old.clients);
            old.server.stop();
        },
    );
    if args.trace {
        micro::run::<E>(&mut report, args);
    }
    let outs = wl::run_phases(&mut clients, rates, args, origin);
    drop(clients);
    let stats = server.stop();

    report.count(&outs);
    wl::server_counters(&mut report, std::slice::from_ref(&stats));
    if args.trace {
        report::per_layer_from_phases(&mut report, &outs);
        report.set("cluster.redirects", 0.0);
        report.set("cluster.failovers", 0.0);
        crate::trace::write(name, &outs);
    } else {
        report::end_to_end(&mut report, &outs, setup_s);
    }
    report
        .detail
        .push(("frames".into(), (frames as u64).into()));
    report.detail.push((
        "rates_rps".into(),
        Value::Arr(vec![rates.lo.into(), rates.hi.into()]),
    ));
    report.detail.push((
        "phases".into(),
        Value::Arr(
            outs.iter()
                .map(|o| report::phase_json(o, &[(MAIN, "decrypt")]))
                .collect(),
        ),
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{self, Phase, Placement, Shape};
    use dlr_curve::Toy;
    use std::time::Duration;

    fn short_run(corrupt: bool, shape: Shape) -> Report {
        let KeyMaterial {
            pk,
            share2,
            mut set,
        } = wl::build_key::<Toy>(&mut gen::rng_for(3, 1), KEY_ID, 4);
        let mut keyring = Keyring::new();
        keyring.insert(KEY_ID, pk, share2);
        let server = wl::spawn_server(keyring, wl::server_config());
        if corrupt {
            let mut bytes = set.expected[2].to_vec();
            bytes[5] ^= 1;
            set.expected[2] = bytes.into();
        }
        // Opening verifies frame 0 only, so the corrupted reply is met in the run.
        let mut clients = vec![ReplayConn::open(server.addr(), Arc::new(set), 0)];
        let phase = Phase {
            name: "sat",
            shape,
            warm: Duration::from_millis(10),
            dur: Duration::from_millis(250),
            traced: false,
            placement: Placement::AwayFromServer,
        };
        let outs = load::run_rounds(&mut clients, &[phase], Instant::now(), 3);
        drop(clients);
        server.stop();
        let mut report = Report::new("test");
        report.count(&outs);
        report
    }

    #[test]
    fn a_clean_run_verifies_every_reply() {
        for shape in [Shape::Closed, Shape::Open { rate: 400.0 }] {
            let report = short_run(false, shape);
            assert!(report.attempted > 10);
            assert_eq!(report.failed, 0);
            assert_eq!(report.exit_code(), 0);
        }
    }

    /// Negative control: one corrupted expected byte must surface as a
    /// mismatch and a non-zero exit, or "every reply verified" means nothing.
    #[test]
    fn a_corrupted_expected_reply_is_reported_and_fails_the_run() {
        for shape in [Shape::Closed, Shape::Open { rate: 400.0 }] {
            let report = short_run(true, shape);
            assert!(report.failed > 0);
            assert!(!report.correct());
            assert_ne!(report.exit_code(), 0);
        }
    }
}
