//! `fleet_churn_toy`: every operation is a whole session against a
//! two-replica fleet — routed open (connect + hello), one replay frame,
//! close — so accept, hello, keyring lookup, routing and teardown do the
//! work that steady-state replay bypasses.

use crate::json::Value;
use crate::load::{Client, Done, Marks, PhaseOut, MAIN};
use crate::report::{self, Report};
use crate::wl::{self, KeyMaterial, Rates, ReplaySet, RunArgs};
use crate::{gen, micro, sys};
use dlr_cluster::{Fleet, FleetConfig};
use dlr_core::driver::{self, RetryPolicy, Router, GENERATION_ANY};
use dlr_core::CoreError;
use dlr_curve::{Pairing, SsParams};
use dlr_protocol::transport::TcpTransport;
use dlr_protocol::Transport;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const REPLICAS: usize = 2;
pub const KEYS: usize = 8;
pub const FRAMES_PER_KEY: usize = 32;
/// Every 16th session of a client first poisons its route, so the
/// `NotMine` redirect path runs once per 16 sessions, exactly.
pub const POISON_EVERY: u64 = 16;
/// Generator threads, each with its own router.
const CLIENTS: usize = 2;

pub fn key_id(i: usize) -> Vec<u8> {
    format!("churn-{i}").into_bytes()
}

/// Open a raw connection to one replica, as `Router::open` asks.
pub fn connect(addr: &str) -> Result<Box<dyn Transport>, CoreError> {
    let stream = TcpStream::connect(addr).map_err(|e| CoreError::Transport(e.into()))?;
    let transport = TcpTransport::new(stream);
    transport.set_nodelay(true)?;
    transport.set_read_timeout(Some(Duration::from_secs(5)))?;
    Ok(Box::new(transport))
}

/// A router that surfaces a failure instead of retrying it away.
pub fn strict_router<E: SsParams + Pairing>(fleet: &Fleet<E>) -> Router {
    Router::new(
        fleet.topology().clone(),
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
    )
}

pub struct ChurnClient {
    router: Router,
    sets: Arc<Vec<ReplaySet>>,
    /// Per key, the address of the replica that does not own it.
    wrong: Arc<Vec<String>>,
    keys: Vec<u32>,
    sessions: u64,
}

impl ChurnClient {
    fn expected_redirects(&self) -> u64 {
        self.sessions / POISON_EVERY
    }
}

impl Client for ChurnClient {
    fn op(&mut self, marks: &mut Marks) -> Done {
        let seq = self.sessions as usize;
        self.sessions += 1;
        let key = self.keys[seq % self.keys.len()] as usize;
        let set = &self.sets[key];
        if self.sessions.is_multiple_of(POISON_EVERY) {
            self.router.seed_route(&set.key_id, &self.wrong[key]);
        }
        let opened = self.router.open(&set.key_id, GENERATION_ANY, &mut connect);
        marks.mark("cluster.open");
        let Ok((mut transport, _generation)) = opened else {
            return Done::FAILED; // connect errors and refusals are failures
        };
        let ok = wl::replay_round(transport.as_mut(), set, seq / KEYS, marks);
        let _ = driver::p1_shutdown(transport.as_mut());
        drop(transport);
        marks.mark("cluster.close");
        Done { kind: MAIN, ok }
    }
}

pub struct Setup<E: SsParams + Pairing> {
    fleet: Fleet<E>,
    clients: Vec<ChurnClient>,
    data_dir: PathBuf,
}

impl<E: SsParams + Pairing> Setup<E> {
    fn teardown(self) -> Vec<dlr_server::StatsSnapshot> {
        drop(self.clients);
        let stats = self.fleet.shutdown().expect("fleet shutdown");
        let _ = std::fs::remove_dir_all(&self.data_dir);
        stats.into_iter().flatten().collect()
    }
}

/// Keygen and frame precompute for every key, fleet spawn, and one verified
/// session per client.
fn setup<E: SsParams + Pairing>(seed: u64) -> Setup<E> {
    let mut rng = gen::rng_for(seed, 1);
    let mut sets = Vec::with_capacity(KEYS);
    let mut fleet_keys = Vec::with_capacity(KEYS);
    for i in 0..KEYS {
        let KeyMaterial { pk, share2, set } =
            wl::build_key::<E>(&mut rng, &key_id(i), FRAMES_PER_KEY);
        fleet_keys.push((set.key_id.clone(), pk, share2));
        sets.push(set);
    }
    let data_dir = crate::out_dir().join(format!("fleet-{}", std::process::id()));
    let config = FleetConfig {
        replicas: REPLICAS,
        data_dir: data_dir.clone(),
        base: wl::server_config(),
        ..FleetConfig::default()
    };
    let fleet = sys::on_server_cpu(|| Fleet::spawn(config, fleet_keys)).expect("spawn fleet");
    let wrong: Vec<String> = sets
        .iter()
        .map(|s| {
            fleet
                .addr((fleet.owner_of(&s.key_id) + 1) % REPLICAS)
                .to_string()
        })
        .collect();
    let (sets, wrong) = (Arc::new(sets), Arc::new(wrong));
    let clients = (0..CLIENTS)
        .map(|i| {
            let mut client = ChurnClient {
                router: strict_router(&fleet),
                sets: Arc::clone(&sets),
                wrong: Arc::clone(&wrong),
                keys: gen::key_sequence(&mut gen::rng_for(seed, 10 + i as u64), KEYS, 1 << 16),
                sessions: 0,
            };
            assert!(
                client.op(&mut Marks::new(false, Instant::now())).ok,
                "first session did not verify"
            );
            client
        })
        .collect();
    Setup {
        fleet,
        clients,
        data_dir,
    }
}

/// Fail loudly, before measuring, if the sessions this run will open could
/// exhaust the loopback ephemeral ports: a closed connection holds its port
/// in TIME_WAIT for 60 s unless the kernel may reuse it.
fn guard_ports(report: &mut Report, rates: Rates, args: RunArgs) {
    let (ports, reuse) = sys::loopback_port_budget();
    // Saturation is about three times `lo` by construction, and no phase
    // runs faster; the whole run falls inside one TIME_WAIT period.
    let planned = 3.0 * rates.lo * args.seconds * 1.5;
    let per_destination = planned / REPLICAS as f64;
    if !reuse && per_destination > ports as f64 * 0.8 {
        report.invalid.push(format!(
            "about {per_destination:.0} sessions per replica would exhaust the {ports} loopback ephemeral ports \
             (net.ipv4.tcp_tw_reuse is 0): shorten --seconds or enable tcp_tw_reuse"
        ));
    }
    report.detail.push(("ephemeral_ports".into(), ports.into()));
    report.detail.push(("tcp_tw_reuse".into(), reuse.into()));
    report.detail.push((
        "planned_sessions_per_replica".into(),
        per_destination.into(),
    ));
}

pub fn run<E: SsParams + Pairing>(
    name: &'static str,
    rates: Rates,
    args: RunArgs,
    origin: Instant,
) -> Report {
    let mut report = Report::new(name);
    guard_ports(&mut report, rates, args);
    if !report.invalid.is_empty() {
        eprintln!("{name}: {}", report.invalid.join("; "));
        std::process::exit(2);
    }
    let (setup_s, mut live) =
        wl::timed_setup(args, || setup::<E>(args.seed), |old| drop(old.teardown()));
    if args.trace {
        micro::run::<E>(&mut report, args);
    }
    let outs: Vec<PhaseOut> = wl::run_phases(&mut live.clients, rates, args, origin);

    let (mut redirects, mut failovers, mut expected) = (0, 0, 0);
    for c in &live.clients {
        redirects += c.router.redirects();
        failovers += c.router.failovers();
        expected += c.expected_redirects();
    }
    let stats = live.teardown();

    report.count(&outs);
    wl::server_counters(&mut report, &stats);
    if redirects != expected || failovers != 0 {
        report.invalid.push(format!(
            "router followed {redirects} redirects (expected {expected}) and {failovers} failovers (expected 0)"
        ));
    }
    if args.trace {
        report::per_layer_from_phases(&mut report, &outs);
        report.set("cluster.redirects", redirects as f64);
        report.set("cluster.failovers", failovers as f64);
        crate::trace::write(name, &outs);
    } else {
        report::end_to_end(&mut report, &outs, setup_s);
    }
    report.detail.push((
        "rates_rps".into(),
        Value::Arr(vec![rates.lo.into(), rates.hi.into()]),
    ));
    report.detail.push(("redirects".into(), redirects.into()));
    report.detail.push((
        "phases".into(),
        Value::Arr(
            outs.iter()
                .map(|o| report::phase_json(o, &[(MAIN, "session")]))
                .collect(),
        ),
    ));
    report
}
