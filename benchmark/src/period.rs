//! `period_ss512`: the paper's period model end to end. Two `P1` owners,
//! one key and one session each, loop {`PERIOD` full decrypts with a
//! plaintext check; one wire refresh} against a persistent keyring, so the
//! server commits and fsyncs a new share beside the other key's decrypts.
//! Client-bound by design: this is what a `P1` owner waits for.

use crate::json::Value;
use crate::load::{self, Client, Done, Marks, PhaseOut, Placement, Shape, MAIN, SECOND};
use crate::report::{self, Report, TAIL_Q};
use crate::wl::{self, RunArgs, RunningServer, MICRO_SHARE};
use crate::{gen, micro, sys};
use dlr_core::dlr::{self, Ciphertext, DecMsg2, Party1, RefMsg2};
use dlr_core::driver::{self, RequestTag};
use dlr_core::CoreError;
use dlr_curve::{Group, Pairing, SsParams};
use dlr_protocol::transport::TcpTransport;
use dlr_protocol::Transport;
use dlr_server::Keyring;
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::time::Instant;

/// `P1` owners: one key, one session, one generator thread each.
pub const OWNERS: usize = 2;
/// Decrypts between two refreshes (the period length).
pub const PERIOD: u64 = 10;
/// Pre-encrypted ciphertexts each owner cycles through.
const POOL: usize = 32;

pub fn key_id(i: usize) -> Vec<u8> {
    format!("period-{i}").into_bytes()
}

pub struct Owner<E: SsParams + Pairing> {
    p1: Party1<E>,
    transport: TcpTransport,
    pool: Vec<(Ciphertext<E>, E::Gt)>,
    rng: StdRng,
    ops: u64,
}

impl<E: SsParams + Pairing> Owner<E> {
    /// `p1_decrypt` step by step, so each layer boundary can be marked.
    fn decrypt(&mut self, marks: &mut Marks) -> Result<bool, CoreError> {
        let (ct, message) = &self.pool[(self.ops as usize) % self.pool.len()];
        let m1 = self.p1.dec_start(ct, &mut self.rng);
        marks.mark("core.dec_start");
        let frame = wl::request(RequestTag::Decrypt, &m1.to_bytes());
        marks.mark("core.encode");
        self.transport.send(frame)?;
        let reply = self.transport.recv()?;
        marks.mark("protocol.round");
        let m2 =
            DecMsg2::<E>::from_bytes(driver::parse_reply(&reply)?, &self.p1.public_key().params)?;
        marks.mark("core.decode");
        let recovered = self.p1.dec_finish(&m2)?;
        marks.mark("core.dec_finish");
        let ok = recovered == *message;
        marks.mark("verify");
        Ok(ok)
    }

    /// `p1_refresh` step by step; the server commits and persists the new
    /// share before it replies.
    fn refresh(&mut self, marks: &mut Marks) -> Result<bool, CoreError> {
        let m1 = self.p1.ref_start(&mut self.rng);
        marks.mark("core.ref_start");
        self.transport
            .send(wl::request(RequestTag::Refresh, &m1.to_bytes()))?;
        let reply = self.transport.recv()?;
        marks.mark("refresh.round");
        let m2 =
            RefMsg2::<E>::from_bytes(driver::parse_reply(&reply)?, &self.p1.public_key().params)?;
        self.p1.ref_finish(&m2)?;
        self.p1.ref_complete()?;
        marks.mark("core.ref_finish");
        Ok(true)
    }
}

impl<E: SsParams + Pairing> Client for Owner<E> {
    fn op(&mut self, marks: &mut Marks) -> Done {
        self.ops += 1;
        let (kind, result) = if self.ops.is_multiple_of(PERIOD + 1) {
            (SECOND, self.refresh(marks))
        } else {
            (MAIN, self.decrypt(marks))
        };
        Done {
            kind,
            ok: result.unwrap_or(false),
        }
    }
}

pub struct Setup<E: SsParams + Pairing> {
    server: RunningServer,
    owners: Vec<Owner<E>>,
    data_dir: PathBuf,
}

impl<E: SsParams + Pairing> Setup<E> {
    fn teardown(self) -> dlr_server::StatsSnapshot {
        drop(self.owners);
        let stats = self.server.stop();
        let _ = std::fs::remove_dir_all(&self.data_dir);
        stats
    }
}

/// Keygen, key load into a persistent keyring, ciphertext pool, server
/// spawn, and one verified decrypt per owner.
fn setup<E: SsParams + Pairing>(seed: u64) -> Setup<E> {
    let data_dir = crate::out_dir().join(format!("period-{}", std::process::id()));
    std::fs::create_dir_all(&data_dir).expect("create keyring directory");
    let mut keyring = Keyring::new();
    let mut parties = Vec::with_capacity(OWNERS);
    for i in 0..OWNERS {
        let mut rng = gen::rng_for(seed, 1 + i as u64);
        let (pk, share1, share2) = dlr::keygen::<E, _>(wl::params::<E>(), &mut rng);
        keyring.insert_persistent(
            &key_id(i),
            pk.clone(),
            share2,
            data_dir.join(format!("key-{i}.share")),
        );
        let pool = (0..POOL)
            .map(|_| {
                let message = E::Gt::random(&mut rng);
                (dlr::encrypt(&pk, &message, &mut rng), message)
            })
            .collect();
        parties.push((Party1::new(pk, share1), pool, rng));
    }
    let server = wl::spawn_server(keyring, wl::server_config());
    let owners = parties
        .into_iter()
        .enumerate()
        .map(|(i, (p1, pool, rng))| {
            let transport =
                wl::open_session(server.addr(), &key_id(i)).expect("open owner session");
            let mut owner = Owner {
                p1,
                transport,
                pool,
                rng,
                ops: 0,
            };
            assert!(
                owner.op(&mut Marks::new(false, Instant::now())).ok,
                "first decrypt did not verify"
            );
            owner
        })
        .collect();
    Setup {
        server,
        owners,
        data_dir,
    }
}

pub fn run<E: SsParams + Pairing>(name: &'static str, args: RunArgs, origin: Instant) -> Report {
    let mut report = Report::new(name);
    let (setup_s, mut live) =
        wl::timed_setup(args, || setup::<E>(args.seed), |old| drop(old.teardown()));
    if args.trace {
        micro::run::<E>(&mut report, args);
    }
    let plan = if args.trace {
        let each = (1.0 - MICRO_SHARE) / 2.0;
        vec![
            args.phase("loop", Shape::Closed, each, false, Placement::Spread),
            args.phase("loop.traced", Shape::Closed, each, true, Placement::Spread),
        ]
    } else {
        vec![args.phase("loop", Shape::Closed, 1.0, false, Placement::Spread)]
    };
    let outs: Vec<PhaseOut> = load::run_rounds(&mut live.owners, &plan, origin, args.seed);
    let stats = live.teardown();

    report.count(&outs);
    wl::server_counters(&mut report, std::slice::from_ref(&stats));
    let looped = &outs[0];
    if args.trace {
        let traced = &outs[1];
        report::closed_loop_layers(&mut report, looped, traced);
        report.set("load.lo_p95_us", looped.latency_us(MAIN, TAIL_Q).0.median);
        report.set("load.hi_p50_us", looped.latency_us(SECOND, 50.0).0.median);
        report.set("load.hi_p95_us", looped.latency_us(SECOND, TAIL_Q).0.median);
        report.set("gen.late_p99_us", looped.lateness_p99_us());
        report::span_metrics(&mut report, traced.spans());
        report.set("cluster.redirects", 0.0);
        report.set("cluster.failovers", 0.0);
        crate::trace::write(name, &outs);
    } else {
        // A closed loop that waits for its own pairings: latency is what a
        // P1 owner sees per decrypt, and the heavy case is the refresh.
        report.set("setup_s", setup_s);
        report.set("throughput_rps", looped.throughput(MAIN).median);
        report.set("cpu_us_per_req", looped.cpu_us_per_op(MAIN).median);
        let p50 = report::latency_metric(&mut report, looped, MAIN, 50.0);
        report.set("lat_p50_us", p50);
        let refresh = report::latency_metric(&mut report, looped, SECOND, 50.0);
        report.set("lat_hi_p50_us", refresh);
        report.set("peak_rss_mb", sys::peak_rss_mb());
    }
    report
        .detail
        .push(("period_decrypts".into(), PERIOD.into()));
    report
        .detail
        .push(("refreshes_committed".into(), stats.refreshes.into()));
    report.detail.push((
        "phases".into(),
        Value::Arr(
            outs.iter()
                .map(|o| report::phase_json(o, &[(MAIN, "decrypt"), (SECOND, "refresh")]))
                .collect(),
        ),
    ));
    report
}
