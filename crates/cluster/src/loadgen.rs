//! Closed-loop load generator for a key-partitioned replica fleet.
//!
//! The single-server load generator ([`dlr_server::loadgen`]) points every
//! client at one address. This one hands each client a routed
//! [`Router`] over the fleet [`TopologyMsg`]: the client computes its
//! key's owner on the ring, follows `NotMine` redirects when its routing
//! table is stale, and fails over (cache invalidation + jittered backoff
//! + re-route) when a replica dies mid-session.
//!
//! The report keeps `component = "dlr-loadgen"` and the same span set as
//! the single-server generator, so `tools/bench-compare.sh` pairs a fleet
//! run against a single-server baseline and gates the group-op counts —
//! routing must be *free* at the op-count level (redirects happen at
//! hello time and cost zero group operations).

use crate::fleet::{Fleet, FleetConfig};
use dlr_core::dlr::{self, Ciphertext, Party1, PublicKey, Share1, Share2};
use dlr_core::driver::{self, RetryPolicy, Router, TopologyMsg, GENERATION_ANY};
use dlr_core::CoreError;
use dlr_curve::{Group, Pairing};
use dlr_math::FieldElement;
use dlr_metrics::Report;
use dlr_protocol::transport::{
    new_transcript, RecordingTransport, TcpTransport, Transport, WireStatsHandle,
};
use dlr_protocol::WireStats;
use dlr_server::ServerConfig;
use std::collections::BTreeMap;
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Client-side material for one fleet key: the public key plus the `P1`
/// share matching the `P2` share held by the owning replica.
pub struct FleetKeyMaterial<E: Pairing> {
    /// Registry id announced in hellos and hashed onto the ring.
    pub id: Vec<u8>,
    /// Public key.
    pub pk: PublicKey<E>,
    /// `P1` key share.
    pub share1: Share1<E>,
}

// Manual impl: `derive(Clone)` would demand `E: Clone`, which the pairing
// marker types do not (and need not) implement.
impl<E: Pairing> Clone for FleetKeyMaterial<E> {
    fn clone(&self) -> Self {
        Self {
            id: self.id.clone(),
            pk: self.pk.clone(),
            share1: self.share1.clone(),
        }
    }
}

/// Fleet load-generation parameters.
#[derive(Debug, Clone)]
pub struct FleetLoadgenConfig {
    /// Concurrent client sessions.
    pub clients: usize,
    /// Decrypt requests issued per client.
    pub requests_per_client: usize,
    /// Per-read deadline on client sockets.
    pub read_timeout: Option<Duration>,
    /// Reconnect budget per client before a request is failed.
    pub max_reconnects: usize,
    /// Backoff between reconnect attempts (per-client jitter seeds are
    /// derived from the client index, as in the single-server generator).
    pub backoff: RetryPolicy,
    /// Client-side `encrypt` operations timed after the decrypt phase.
    pub encrypt_ops: usize,
    /// Seed every client's route cache with replica `client_idx %
    /// replicas` instead of the computed owner. Clients whose seed is
    /// wrong take exactly one `NotMine` redirect on first hello, making
    /// the redirect counter deterministic — used by the committed bench.
    pub seed_stale_routes: bool,
}

impl Default for FleetLoadgenConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            requests_per_client: 25,
            read_timeout: Some(Duration::from_secs(10)),
            max_reconnects: 8,
            backoff: RetryPolicy {
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(200),
                ..RetryPolicy::default()
            },
            encrypt_ops: 256,
            seed_stale_routes: false,
        }
    }
}

/// Aggregated outcome of a fleet load-generation run.
#[derive(Debug, Clone)]
pub struct FleetLoadgenOutcome {
    /// Clients spawned.
    pub clients: usize,
    /// Total decrypt requests attempted.
    pub requests: usize,
    /// Requests that returned the correct plaintext.
    pub successes: usize,
    /// Requests that failed (after the per-client reconnect budget).
    pub failures: usize,
    /// Client threads that panicked mid-run (requests counted as
    /// failures; the run still completes and reports the survivors).
    pub client_panics: usize,
    /// Responses that decrypted to the wrong plaintext.
    pub mismatches: usize,
    /// `NotMine` redirects followed, summed over all client routers.
    pub redirects: u64,
    /// Route invalidations after a failed attempt (replica death seen by
    /// a routed client), summed over all client routers.
    pub failovers: u64,
    /// Reconnect credits spent across all clients.
    pub reconnects: u64,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Per-request latencies, sorted ascending, all replicas merged.
    pub latencies_ns: Vec<u64>,
    /// Per-request latencies keyed by the key's owning replica, each
    /// sorted.
    pub per_replica: BTreeMap<usize, Vec<u64>>,
    /// Wire statistics merged across all client transports.
    pub wire: WireStats,
    /// Client-side `encrypt` operations timed for the throughput figure.
    pub encrypt_ops: usize,
    /// Wall-clock time of the encrypt measurement loop.
    pub encrypt_elapsed: Duration,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl FleetLoadgenOutcome {
    /// Successful requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.successes as f64 / secs
        }
    }

    /// Aggregate latency percentile (nearest-rank; `0` with no samples).
    pub fn latency_percentile_ns(&self, q: f64) -> u64 {
        percentile(&self.latencies_ns, q)
    }

    /// Latency percentile over the samples of keys owned by `replica`.
    pub fn replica_percentile_ns(&self, replica: usize, q: f64) -> u64 {
        self.per_replica
            .get(&replica)
            .map_or(0, |samples| percentile(samples, q))
    }

    /// Mean latency over all samples; `0` when none recorded.
    pub fn latency_mean_ns(&self) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let total: u128 = self.latencies_ns.iter().map(|&ns| ns as u128).sum();
        (total / self.latencies_ns.len() as u128) as u64
    }

    /// Client-side `encrypt` operations per second.
    pub fn encrypt_ops_per_s(&self) -> f64 {
        let secs = self.encrypt_elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.encrypt_ops as f64 / secs
        }
    }

    /// Render to a `dlr-metrics` [`Report`].
    ///
    /// Keeps `component = "dlr-loadgen"` and every metadata key the
    /// single-server generator emits, then adds the fleet axis: replica
    /// count, redirect / failover / reconnect counters, and per-replica
    /// request counts + p50/p95 (`replica<k>_*` keys).
    pub fn to_report(&self, topology: &TopologyMsg) -> Report {
        let mut report = Report::capture()
            .with_meta("component", "dlr-loadgen")
            .with_meta("op_profile", dlr_core::dlr::OP_PROFILE)
            .with_meta("clients", &self.clients.to_string())
            .with_meta("requests", &self.requests.to_string())
            .with_meta("successes", &self.successes.to_string())
            .with_meta("failures", &self.failures.to_string())
            .with_meta("client_panics", &self.client_panics.to_string())
            .with_meta("mismatches", &self.mismatches.to_string())
            .with_meta("elapsed_ms", &self.elapsed.as_millis().to_string())
            .with_meta("throughput_rps", &format!("{:.2}", self.throughput_rps()))
            .with_meta("latency_p50_ns", &self.latency_percentile_ns(50.0).to_string())
            .with_meta("latency_p95_ns", &self.latency_percentile_ns(95.0).to_string())
            .with_meta("latency_p99_ns", &self.latency_percentile_ns(99.0).to_string())
            .with_meta("latency_mean_ns", &self.latency_mean_ns().to_string())
            .with_meta(
                "latency_max_ns",
                &self.latencies_ns.last().copied().unwrap_or(0).to_string(),
            )
            .with_meta("encrypt_ops", &self.encrypt_ops.to_string())
            .with_meta("encrypt_ops_per_s", &format!("{:.2}", self.encrypt_ops_per_s()))
            .with_meta("fleet_replicas", &topology.replicas.len().to_string())
            .with_meta("redirects", &self.redirects.to_string())
            .with_meta("failovers", &self.failovers.to_string())
            .with_meta("reconnects", &self.reconnects.to_string());
        for (replica, samples) in &self.per_replica {
            report = report
                .with_meta(
                    &format!("replica{replica}_requests"),
                    &samples.len().to_string(),
                )
                .with_meta(
                    &format!("replica{replica}_p50_ns"),
                    &percentile(samples, 50.0).to_string(),
                )
                .with_meta(
                    &format!("replica{replica}_p95_ns"),
                    &percentile(samples, 95.0).to_string(),
                );
        }
        report.push_wire("loadgen.clients", self.wire.clone());
        report
    }
}

struct ClientOutcome {
    successes: usize,
    failures: usize,
    mismatches: usize,
    redirects: u64,
    failovers: u64,
    reconnects: u64,
    replica: usize,
    latencies_ns: Vec<u64>,
    wire: WireStats,
}

/// Run the routed closed-loop load generator against a fleet.
///
/// Client `i` drives `keys[i % keys.len()]` through its own [`Router`]
/// over `topology`. Each key's message is encrypted once up front, so
/// every response is verifiable. Replica death mid-run costs routed
/// clients reconnects/failovers, not correctness: a request only counts
/// as failed once its client's reconnect budget is spent.
pub fn run_fleet_loadgen<E: Pairing, R: rand::RngCore>(
    topology: &TopologyMsg,
    keys: &[FleetKeyMaterial<E>],
    config: &FleetLoadgenConfig,
    rng: &mut R,
) -> FleetLoadgenOutcome {
    assert!(!keys.is_empty(), "fleet loadgen needs at least one key");
    let workloads: Vec<(FleetKeyMaterial<E>, E::Gt, Ciphertext<E>)> = keys
        .iter()
        .map(|key| {
            let message = E::Gt::random(rng);
            let ct = dlr::encrypt(&key.pk, &message, rng);
            (key.clone(), message, ct)
        })
        .collect();

    let started = Instant::now();
    let (per_client, client_panics): (Vec<ClientOutcome>, usize) =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..config.clients)
                .map(|idx| {
                    let (key, message, ct) = workloads[idx % workloads.len()].clone();
                    let topology = topology.clone();
                    let config = config.clone();
                    s.spawn(move || client_loop(topology, idx, key, ct, message, &config))
                })
                .collect();
            let mut panics = 0usize;
            let outcomes = handles
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(outcome) => Some(outcome),
                    Err(_) => {
                        panics += 1;
                        None
                    }
                })
                .collect();
            (outcomes, panics)
        });
    let elapsed = started.elapsed();

    // Same single-threaded client-side encryption figure as the
    // single-server generator, against the first key's (warm) public key.
    let encrypt_elapsed = if config.encrypt_ops > 0 {
        let pk = &keys[0].pk;
        let message = &workloads[0].1;
        let scalars: Vec<E::Scalar> = (0..config.encrypt_ops)
            .map(|_| E::Scalar::random(rng))
            .collect();
        dlr_metrics::span("loadgen.encrypt", || {
            let started = Instant::now();
            for t in &scalars {
                std::hint::black_box(dlr::encrypt_with_randomness(pk, message, t));
            }
            started.elapsed()
        })
    } else {
        Duration::ZERO
    };

    let mut outcome = FleetLoadgenOutcome {
        clients: config.clients,
        requests: config.clients * config.requests_per_client,
        successes: 0,
        failures: client_panics * config.requests_per_client,
        client_panics,
        mismatches: 0,
        redirects: 0,
        failovers: 0,
        reconnects: 0,
        elapsed,
        latencies_ns: Vec::new(),
        per_replica: BTreeMap::new(),
        wire: WireStats::default(),
        encrypt_ops: config.encrypt_ops,
        encrypt_elapsed,
    };
    for client in per_client {
        outcome.successes += client.successes;
        outcome.failures += client.failures;
        outcome.mismatches += client.mismatches;
        outcome.redirects += client.redirects;
        outcome.failovers += client.failovers;
        outcome.reconnects += client.reconnects;
        outcome
            .per_replica
            .entry(client.replica)
            .or_default()
            .extend(client.latencies_ns.iter().copied());
        outcome.latencies_ns.extend(client.latencies_ns);
        outcome.wire.merge(&client.wire);
    }
    outcome.latencies_ns.sort_unstable();
    for samples in outcome.per_replica.values_mut() {
        samples.sort_unstable();
    }
    outcome
}

fn client_loop<E: Pairing>(
    topology: TopologyMsg,
    client_idx: usize,
    key: FleetKeyMaterial<E>,
    ct: Ciphertext<E>,
    message: E::Gt,
    config: &FleetLoadgenConfig,
) -> ClientOutcome {
    let replica = topology.owner_index(&key.id).unwrap_or(0);
    let mut out = ClientOutcome {
        successes: 0,
        failures: 0,
        mismatches: 0,
        redirects: 0,
        failovers: 0,
        reconnects: 0,
        replica,
        latencies_ns: Vec::with_capacity(config.requests_per_client),
        wire: WireStats::default(),
    };
    let backoff = RetryPolicy {
        jitter_seed: config
            .backoff
            .jitter_seed
            .wrapping_add(1 + client_idx as u64),
        ..config.backoff.clone()
    };
    let replicas = topology.replicas.len().max(1);
    let seeded = topology.replicas[client_idx % replicas].clone();
    let mut router = Router::new(topology, backoff.clone());
    if config.seed_stale_routes {
        router.seed_route(&key.id, &seeded);
    }

    // Every transport this client opens shares its live stats handle here,
    // so wire bytes survive the `Box<dyn Transport>` type erasure.
    let mut wire_handles: Vec<WireStatsHandle> = Vec::new();
    let read_timeout = config.read_timeout;
    let connect = move |addr: &str| -> Result<(Box<dyn Transport>, WireStatsHandle), CoreError>
    {
        let stream =
            TcpStream::connect(addr).map_err(|e| CoreError::Transport(e.into()))?;
        let tcp = TcpTransport::new(stream);
        let _ = tcp.set_nodelay(true);
        let _ = tcp.set_read_timeout(read_timeout);
        let transport = RecordingTransport::new(tcp, new_transcript());
        let handle = transport.stats_handle();
        Ok((Box::new(transport), handle))
    };

    let mut p1 = Party1::new(key.pk, key.share1);
    p1.warm();
    let mut rng = rand::thread_rng();

    // Open (or reopen) a routed session, following NotMine redirects and
    // retrying per the router's policy.
    let open = |router: &mut Router,
                    wire_handles: &mut Vec<WireStatsHandle>|
     -> Result<Box<dyn Transport>, CoreError> {
        let mut routed = |addr: &str| -> Result<Box<dyn Transport>, CoreError> {
            let (t, handle) = connect(addr)?;
            wire_handles.push(handle);
            Ok(t)
        };
        router
            .open(&key.id, GENERATION_ANY, &mut routed)
            .map(|(t, _generation)| t)
    };

    let mut transport: Option<Box<dyn Transport>> =
        open(&mut router, &mut wire_handles).ok();

    for _ in 0..config.requests_per_client {
        let mut done = false;
        while !done {
            let Some(t) = transport.as_mut() else {
                // (Re)open failed: burn one reconnect credit, fail the
                // request once the budget is gone.
                if out.reconnects as usize >= config.max_reconnects {
                    out.failures += 1;
                    done = true;
                    continue;
                }
                std::thread::sleep(backoff.backoff_delay_jittered(out.reconnects as u32));
                out.reconnects += 1;
                transport = open(&mut router, &mut wire_handles).ok();
                if transport.is_none() {
                    out.failures += 1;
                    done = true;
                }
                continue;
            };
            let started = Instant::now();
            match driver::p1_decrypt(&mut p1, &ct, t.as_mut(), &mut rng) {
                Ok(recovered) => {
                    out.latencies_ns.push(started.elapsed().as_nanos() as u64);
                    if recovered == message {
                        out.successes += 1;
                    } else {
                        out.mismatches += 1;
                    }
                    done = true;
                }
                Err(e)
                    if driver::is_retryable(&e)
                        && (out.reconnects as usize) < config.max_reconnects =>
                {
                    // The session died (replica killed, timeout, busy):
                    // invalidate the route so the reopen re-resolves the
                    // owner, back off, and go around.
                    router.note_failure(&key.id);
                    std::thread::sleep(backoff.backoff_delay_jittered(out.reconnects as u32));
                    out.reconnects += 1;
                    transport = open(&mut router, &mut wire_handles).ok();
                }
                Err(_) => {
                    out.failures += 1;
                    done = true;
                }
            }
        }
    }
    if let Some(mut t) = transport.take() {
        let _ = driver::p1_shutdown(t.as_mut());
    }
    out.redirects = router.redirects();
    out.failovers = router.failovers();
    for handle in &wire_handles {
        out.wire.merge(&handle.lock().unwrap_or_else(PoisonError::into_inner));
    }
    out
}

/// Full two-sided key material for a ladder-managed fleet: the ladder
/// spawns servers (needs the `P2` share) and clients (need the `P1`
/// share) for each rung itself.
pub struct FleetLadderKey<E: Pairing> {
    /// Registry id.
    pub id: Vec<u8>,
    /// Public key.
    pub pk: PublicKey<E>,
    /// Client-side share.
    pub share1: Share1<E>,
    /// Server-side share (persisted into each rung's data dir).
    pub share2: Share2<E>,
}

impl<E: Pairing> Clone for FleetLadderKey<E> {
    fn clone(&self) -> Self {
        Self {
            id: self.id.clone(),
            pk: self.pk.clone(),
            share1: self.share1.clone(),
            share2: self.share2.clone(),
        }
    }
}

impl<E: Pairing> FleetLadderKey<E> {
    /// The client-side projection of this key.
    pub fn material(&self) -> FleetKeyMaterial<E> {
        FleetKeyMaterial {
            id: self.id.clone(),
            pk: self.pk.clone(),
            share1: self.share1.clone(),
        }
    }
}

/// Mid-rung fault injection: kill one replica while the load is running,
/// keep it down for `downtime`, then restart it on the same address.
#[derive(Debug, Clone)]
pub struct FleetFault {
    /// Replica index to kill (clamped to the rung's replica count).
    pub replica: usize,
    /// How long into the rung to pull the replica.
    pub delay: Duration,
    /// How long the replica stays down before restarting.
    pub downtime: Duration,
}

/// Configuration for a fleet ladder: the same routed closed-loop workload
/// repeated at a sequence of *replica counts*, each rung on a fresh fleet.
#[derive(Debug, Clone)]
pub struct FleetLadderConfig {
    /// Replica counts to visit, in order (e.g. `[1, 2, 4]`).
    pub replica_rungs: Vec<usize>,
    /// Root directory for per-rung share spools (`<root>/r<N>/`).
    pub data_dir: PathBuf,
    /// Per-replica server template.
    pub base_server: ServerConfig,
    /// Client-side template. `encrypt_ops` is forced to `0` per rung, as
    /// in the single-server ladder (the encryption figure is a
    /// single-threaded measurement, orthogonal to the replica axis).
    pub base: FleetLoadgenConfig,
    /// Optional mid-rung replica restart, applied to every rung with at
    /// least two replicas. Routed clients are expected to fail over;
    /// rungs with a fault report nonzero `failovers`/`reconnects`, never
    /// a panic abort.
    pub fault: Option<FleetFault>,
    /// Per-rung [`FleetConfig::epoch_sweep`] timer: when set, each rung's
    /// fleet rolls staggered epoch boundaries on this interval while the
    /// load runs.
    pub epoch_sweep: Option<Duration>,
}

/// One completed rung of a fleet ladder.
#[derive(Debug, Clone)]
pub struct FleetLadderRung {
    /// Replica count this rung ran at.
    pub replicas: usize,
    /// The rung's fleet topology (for replica attribution in reports).
    pub topology: TopologyMsg,
    /// The routed closed-loop outcome.
    pub outcome: FleetLoadgenOutcome,
    /// Replica killed and restarted mid-rung, when a fault was injected.
    pub restarted_replica: Option<usize>,
}

/// Run the routed load generator once per replica-count rung, spawning a
/// fresh fleet (and share spool) for each. A rung's fault injection runs
/// on a side thread against the supervisor while the clients drive load;
/// client panics are tolerated and reported, never an abort.
pub fn run_fleet_ladder<E: Pairing, R: rand::RngCore>(
    config: &FleetLadderConfig,
    keys: &[FleetLadderKey<E>],
    rng: &mut R,
) -> io::Result<Vec<FleetLadderRung>> {
    let material: Vec<FleetKeyMaterial<E>> = keys.iter().map(FleetLadderKey::material).collect();
    let mut rungs = Vec::with_capacity(config.replica_rungs.len());
    for &replicas in &config.replica_rungs {
        let fleet_config = FleetConfig {
            replicas,
            data_dir: config.data_dir.join(format!("r{replicas}")),
            base: config.base_server.clone(),
            epoch_sweep: config.epoch_sweep,
        };
        let fleet = Fleet::spawn(
            fleet_config,
            keys.iter()
                .map(|k| (k.id.clone(), k.pk.clone(), k.share2.clone()))
                .collect(),
        )?;
        let topology = fleet.topology().clone();
        let rung_config = FleetLoadgenConfig {
            encrypt_ops: 0,
            ..config.base.clone()
        };

        let fault = config.fault.as_ref().filter(|_| replicas >= 2);
        let fleet = Mutex::new(fleet);
        let mut restarted = None;
        let outcome = std::thread::scope(|s| {
            let saboteur = fault.map(|fault| {
                let fleet = &fleet;
                let fault = fault.clone();
                s.spawn(move || -> io::Result<usize> {
                    let index = fault.replica.min(replicas - 1);
                    std::thread::sleep(fault.delay);
                    fleet.lock().expect("fleet lock").kill_replica(index)?;
                    std::thread::sleep(fault.downtime);
                    fleet.lock().expect("fleet lock").restart_replica(index)?;
                    Ok(index)
                })
            });
            let outcome = run_fleet_loadgen(&topology, &material, &rung_config, rng);
            if let Some(handle) = saboteur {
                if let Ok(Ok(index)) = handle.join() {
                    restarted = Some(index);
                }
            }
            outcome
        });
        let fleet = fleet.into_inner().expect("fleet lock");
        fleet.shutdown()?;
        rungs.push(FleetLadderRung {
            replicas,
            topology,
            outcome,
            restarted_replica: restarted,
        });
    }
    Ok(rungs)
}
