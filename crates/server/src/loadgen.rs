//! Closed-loop load generator for a running [`Server`](crate::Server).
//!
//! Spawns `clients` concurrent `P1` workers; each opens its own TCP
//! session (hello with [`GENERATION_ANY`]), then issues
//! `requests_per_client` decrypt requests back-to-back, verifying every
//! recovered plaintext against the encrypted message. Decryption is
//! stateless with respect to the joint share, so each client may hold its
//! own [`Party1`] clone — the server's generation lock serializes their
//! requests against the single `P2` state.
//!
//! Transient failures (timeout, disconnect, server busy) cost one
//! reconnect + re-hello and are counted, not fatal; the outcome reports
//! throughput and latency percentiles and renders to the standard
//! `dlr-metrics` report JSON (committed as `BENCH_PR4.json` by the bench
//! harness).

use dlr_core::dlr::{self, Ciphertext, Party1, PublicKey, Share1};
use dlr_core::driver::{self, ErrorCode, RetryPolicy, GENERATION_ANY};
use dlr_core::error::CoreError;
use dlr_curve::{Group, Pairing};
use dlr_math::FieldElement;
use dlr_metrics::Report;
use dlr_protocol::transport::{new_transcript, RecordingTransport, TcpTransport};
use dlr_protocol::{TransportError, WireStats};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client sessions.
    pub clients: usize,
    /// Decrypt requests issued per client.
    pub requests_per_client: usize,
    /// Key id announced in each session's hello.
    pub key_id: Vec<u8>,
    /// Per-read deadline on client sockets.
    pub read_timeout: Option<Duration>,
    /// Reconnect budget per client before it gives up.
    pub max_reconnects: usize,
    /// Backoff between a client's reconnect attempts. Each client derives
    /// its own `jitter_seed` from its index, so a burst of `Busy` replies
    /// does not make every client retry in lockstep.
    pub backoff: RetryPolicy,
    /// Client-side `encrypt` operations timed after the decrypt phase to
    /// report encryption throughput. `0` skips the measurement.
    pub encrypt_ops: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            requests_per_client: 25,
            key_id: b"default".to_vec(),
            read_timeout: Some(Duration::from_secs(10)),
            max_reconnects: 8,
            backoff: RetryPolicy {
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(200),
                ..RetryPolicy::default()
            },
            encrypt_ops: 256,
        }
    }
}

/// Aggregated outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenOutcome {
    /// Clients spawned.
    pub clients: usize,
    /// Total decrypt requests attempted.
    pub requests: usize,
    /// Requests that returned the correct plaintext.
    pub successes: usize,
    /// Requests that failed (after per-request reconnects).
    pub failures: usize,
    /// [`Self::failures`] by the error that ended each request; sums to
    /// `failures`.
    pub failure_kinds: FailureTally,
    /// Client threads that panicked mid-run. Their unreported requests
    /// are counted as failures; the run itself still completes and
    /// reports the surviving clients' numbers.
    pub client_panics: usize,
    /// Responses that decoded but decrypted to the wrong plaintext.
    pub mismatches: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Per-request wall-clock latencies, sorted ascending.
    pub latencies_ns: Vec<u64>,
    /// Wire statistics merged across all client transports.
    pub wire: WireStats,
    /// Client-side `encrypt` operations timed for the throughput figure.
    pub encrypt_ops: usize,
    /// Wall-clock time of the encrypt measurement loop.
    pub encrypt_elapsed: Duration,
}

impl LoadgenOutcome {
    /// Successful requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.successes as f64 / secs
        }
    }

    /// Latency percentile (`q` in `[0, 100]`) over the sorted samples,
    /// nearest-rank; `0` when no sample was recorded.
    pub fn latency_percentile_ns(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let rank = (q / 100.0 * (self.latencies_ns.len() - 1) as f64).round() as usize;
        self.latencies_ns[rank.min(self.latencies_ns.len() - 1)]
    }

    /// Client-side `encrypt` operations per second; `0` when the
    /// measurement was skipped.
    pub fn encrypt_ops_per_s(&self) -> f64 {
        let secs = self.encrypt_elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.encrypt_ops as f64 / secs
        }
    }

    /// Mean latency over all samples; `0` when none recorded.
    pub fn latency_mean_ns(&self) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let total: u128 = self.latencies_ns.iter().map(|&ns| ns as u128).sum();
        (total / self.latencies_ns.len() as u128) as u64
    }

    /// Render to a `dlr-metrics` [`Report`]: throughput and latency
    /// percentiles as metadata, merged client wire stats as a wire row,
    /// and whatever spans (`dec`, …) the client threads recorded.
    pub fn to_report(&self) -> Report {
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
            .with_meta(
                "throughput_rps",
                &format!("{:.2}", self.throughput_rps()),
            )
            .with_meta("latency_p50_ns", &self.latency_percentile_ns(50.0).to_string())
            .with_meta("latency_p95_ns", &self.latency_percentile_ns(95.0).to_string())
            .with_meta("latency_p99_ns", &self.latency_percentile_ns(99.0).to_string())
            .with_meta("latency_mean_ns", &self.latency_mean_ns().to_string())
            .with_meta(
                "latency_max_ns",
                &self.latencies_ns.last().copied().unwrap_or(0).to_string(),
            )
            .with_meta("encrypt_ops", &self.encrypt_ops.to_string())
            .with_meta(
                "encrypt_ops_per_s",
                &format!("{:.2}", self.encrypt_ops_per_s()),
            );
        report.push_wire("loadgen.clients", self.wire.clone());
        report
    }
}

/// Why a failed request gave up: the error of its last attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureKind {
    /// The TCP connect was refused or failed.
    Connect,
    /// The session's hello failed (other than `Busy` or a timeout).
    Hello,
    /// The server answered [`ErrorCode::Busy`].
    Busy,
    /// A read deadline expired.
    ReadTimeout,
    /// Anything else, including the requests of a panicked client.
    Other,
}

impl FailureKind {
    fn of(err: &CoreError, in_hello: bool) -> Self {
        match err {
            CoreError::Remote { code, .. } if *code == ErrorCode::Busy as u8 => Self::Busy,
            CoreError::Transport(TransportError::TimedOut) => Self::ReadTimeout,
            _ if in_hello => Self::Hello,
            _ => Self::Other,
        }
    }
}

/// Failed requests counted by the error that ended each one, so a run
/// that fails says which error its requests hit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureTally {
    /// TCP connect failures.
    pub connect: usize,
    /// Hello failures other than `Busy` and timeouts.
    pub hello: usize,
    /// `Busy` replies, to the hello or to a request.
    pub busy: usize,
    /// Expired read deadlines.
    pub read_timeout: usize,
    /// Every other error, and the requests of panicked clients.
    pub other: usize,
}

impl FailureTally {
    fn record(&mut self, kind: FailureKind) {
        *match kind {
            FailureKind::Connect => &mut self.connect,
            FailureKind::Hello => &mut self.hello,
            FailureKind::Busy => &mut self.busy,
            FailureKind::ReadTimeout => &mut self.read_timeout,
            FailureKind::Other => &mut self.other,
        } += 1;
    }

    fn merge(&mut self, rhs: &Self) {
        self.connect += rhs.connect;
        self.hello += rhs.hello;
        self.busy += rhs.busy;
        self.read_timeout += rhs.read_timeout;
        self.other += rhs.other;
    }

    /// Failed requests of every kind.
    pub fn total(&self) -> usize {
        self.connect + self.hello + self.busy + self.read_timeout + self.other
    }
}

impl core::fmt::Display for FailureTally {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "connect {}, hello {}, busy {}, read timeout {}, other {}",
            self.connect, self.hello, self.busy, self.read_timeout, self.other
        )
    }
}

/// Configuration for a loadgen *ladder*: the same closed-loop workload
/// repeated at a sequence of concurrency levels ("rungs"), so throughput
/// scaling with client count can be read off one run.
///
/// Each rung reuses `base` with its `clients` field replaced by the rung
/// value; `encrypt_ops` is forced to `0` on every rung (the client-side
/// encryption figure is a single-threaded measurement — repeating it per
/// rung would only add noise to an unrelated axis).
#[derive(Debug, Clone)]
pub struct LadderConfig {
    /// Concurrency levels to visit, in order (e.g. `[1, 2, 4, 8, 16]`).
    pub rungs: Vec<usize>,
    /// Decrypt requests per client at every rung.
    pub requests_per_client: usize,
    /// Template for everything else (key id, timeouts, backoff).
    pub base: LoadgenConfig,
}

impl Default for LadderConfig {
    fn default() -> Self {
        Self {
            rungs: vec![1, 2, 4, 8, 16],
            requests_per_client: 25,
            base: LoadgenConfig::default(),
        }
    }
}

/// One completed rung of a loadgen ladder.
#[derive(Debug, Clone)]
pub struct LadderRung {
    /// Concurrency level this rung ran at.
    pub clients: usize,
    /// The full closed-loop outcome at that level.
    pub outcome: LoadgenOutcome,
}

/// Run the closed-loop load generator once per rung of `ladder`, in
/// order, against the same server. The server must admit at least
/// `max(rungs)` concurrent sessions or the surplus clients will spend
/// their reconnect budget against `Busy` replies.
pub fn run_loadgen_ladder<E: Pairing, R: rand::RngCore>(
    addr: SocketAddr,
    pk: &PublicKey<E>,
    share1: &Share1<E>,
    ladder: &LadderConfig,
    rng: &mut R,
) -> Vec<LadderRung> {
    ladder
        .rungs
        .iter()
        .map(|&clients| {
            let config = LoadgenConfig {
                clients,
                requests_per_client: ladder.requests_per_client,
                encrypt_ops: 0,
                ..ladder.base.clone()
            };
            LadderRung {
                clients,
                outcome: run_loadgen::<E, _>(addr, pk, share1, &config, rng),
            }
        })
        .collect()
}

struct ClientOutcome {
    successes: usize,
    failures: FailureTally,
    mismatches: usize,
    latencies_ns: Vec<u64>,
    wire: WireStats,
}

/// Run the closed-loop load generator against `addr`.
///
/// `share1` is the `P1` key share matching the server's `P2` share for
/// `config.key_id`; the run assumes no refresh executes concurrently
/// (each client clones the share). `message` is encrypted once and the
/// same ciphertext is decrypted by every request, so every response is
/// verifiable.
pub fn run_loadgen<E: Pairing, R: rand::RngCore>(
    addr: SocketAddr,
    pk: &PublicKey<E>,
    share1: &Share1<E>,
    config: &LoadgenConfig,
    rng: &mut R,
) -> LoadgenOutcome {
    let message = E::Gt::random(rng);
    let ct = dlr::encrypt(pk, &message, rng);

    let started = Instant::now();
    // A panicking client must not abort the whole run: its join error is
    // recorded (and its requests counted as failures below) while every
    // surviving client still reports.
    let (per_client, client_panics): (Vec<ClientOutcome>, usize) =
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..config.clients)
                .map(|idx| {
                    let pk = pk.clone();
                    let share1 = share1.clone();
                    let config = config.clone();
                    s.spawn(move || client_loop(addr, idx, pk, share1, ct, message, &config))
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

    // Client-side encryption throughput: time `encrypt_ops` fresh-scalar
    // encryptions against the (warm) public key. Uses the span-free
    // `encrypt_with_randomness` under its own span so the pinned `enc`
    // span keeps its single-call count in committed bench reports.
    let encrypt_elapsed = if config.encrypt_ops > 0 {
        let scalars: Vec<E::Scalar> = (0..config.encrypt_ops)
            .map(|_| E::Scalar::random(rng))
            .collect();
        dlr_metrics::span("loadgen.encrypt", || {
            let started = Instant::now();
            for t in &scalars {
                std::hint::black_box(dlr::encrypt_with_randomness(pk, &message, t));
            }
            started.elapsed()
        })
    } else {
        Duration::ZERO
    };

    let mut outcome = LoadgenOutcome {
        clients: config.clients,
        requests: config.clients * config.requests_per_client,
        successes: 0,
        failures: 0,
        failure_kinds: FailureTally {
            other: client_panics * config.requests_per_client,
            ..FailureTally::default()
        },
        mismatches: 0,
        client_panics,
        elapsed,
        latencies_ns: Vec::new(),
        wire: WireStats::default(),
        encrypt_ops: config.encrypt_ops,
        encrypt_elapsed,
    };
    for client in per_client {
        outcome.successes += client.successes;
        outcome.failure_kinds.merge(&client.failures);
        outcome.mismatches += client.mismatches;
        outcome.latencies_ns.extend(client.latencies_ns);
        outcome.wire.merge(&client.wire);
    }
    outcome.latencies_ns.sort_unstable();
    outcome.failures = outcome.failure_kinds.total();
    outcome
}

fn connect(
    addr: SocketAddr,
    config: &LoadgenConfig,
) -> Result<RecordingTransport<TcpTransport>, FailureKind> {
    let stream = TcpStream::connect(addr).map_err(|_| FailureKind::Connect)?;
    let tcp = TcpTransport::new(stream);
    let _ = tcp.set_nodelay(true);
    let _ = tcp.set_read_timeout(config.read_timeout);
    let mut transport = RecordingTransport::new(tcp, new_transcript());
    driver::p1_hello(&mut transport, &config.key_id, GENERATION_ANY)
        .map_err(|e| FailureKind::of(&e, true))?;
    Ok(transport)
}

fn client_loop<E: Pairing>(
    addr: SocketAddr,
    client_idx: usize,
    pk: PublicKey<E>,
    share1: Share1<E>,
    ct: Ciphertext<E>,
    message: E::Gt,
    config: &LoadgenConfig,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        successes: 0,
        failures: FailureTally::default(),
        mismatches: 0,
        latencies_ns: Vec::with_capacity(config.requests_per_client),
        wire: WireStats::default(),
    };
    // Per-client jitter seed: clients that hit the same Busy burst spread
    // their reconnects apart instead of re-colliding in lockstep.
    let backoff = RetryPolicy {
        jitter_seed: config
            .backoff
            .jitter_seed
            .wrapping_add(1 + client_idx as u64),
        ..config.backoff.clone()
    };
    let mut p1 = Party1::new(pk, share1);
    p1.warm(); // build the per-key pairing caches before the request clock starts
    let mut rng = rand::thread_rng();
    let mut reconnects = 0usize;
    let mut transport = connect(addr, config);

    for _ in 0..config.requests_per_client {
        let mut done = false;
        while !done {
            let t = match transport.as_mut() {
                Ok(t) => t,
                Err(kind) => {
                    // (Re)connect failed: burn one reconnect credit, fail
                    // the request if the budget is gone.
                    if reconnects >= config.max_reconnects {
                        out.failures.record(*kind);
                        done = true;
                        continue;
                    }
                    std::thread::sleep(backoff.backoff_delay_jittered(reconnects as u32));
                    reconnects += 1;
                    transport = connect(addr, config);
                    if let Err(kind) = transport {
                        out.failures.record(kind);
                        done = true;
                    }
                    continue;
                }
            };
            let started = Instant::now();
            match driver::p1_decrypt(&mut p1, &ct, t, &mut rng) {
                Ok(recovered) => {
                    out.latencies_ns.push(started.elapsed().as_nanos() as u64);
                    if recovered == message {
                        out.successes += 1;
                    } else {
                        out.mismatches += 1;
                    }
                    done = true;
                }
                Err(e) if driver::is_retryable(&e) && reconnects < config.max_reconnects => {
                    std::thread::sleep(backoff.backoff_delay_jittered(reconnects as u32));
                    reconnects += 1;
                    if let Ok(dead) = &transport {
                        out.wire.merge(&dead.wire_stats());
                    }
                    transport = connect(addr, config);
                }
                Err(e) => {
                    out.failures.record(FailureKind::of(&e, false));
                    done = true;
                }
            }
        }
    }
    if let Ok(mut t) = transport {
        let _ = driver::p1_shutdown(&mut t);
        out.wire.merge(&t.wire_stats());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_core::params::SchemeParams;
    use dlr_curve::Toy;
    use rand::SeedableRng;

    #[test]
    fn a_rung_against_a_closed_port_reports_connect_failures() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let params = SchemeParams::derive::<<Toy as Pairing>::Scalar>(16, 64);
        let (pk, share1, _) = dlr::keygen::<Toy, _>(params, &mut rng);
        // Bind, then drop: nothing listens on this port any more.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let ladder = LadderConfig {
            rungs: vec![2],
            requests_per_client: 3,
            base: LoadgenConfig {
                max_reconnects: 1,
                backoff: RetryPolicy {
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(1),
                    ..RetryPolicy::default()
                },
                ..LoadgenConfig::default()
            },
        };
        let rungs = run_loadgen_ladder::<Toy, _>(addr, &pk, &share1, &ladder, &mut rng);
        let outcome = &rungs[0].outcome;
        assert_eq!((outcome.successes, outcome.failures), (0, 6));
        assert_eq!(
            outcome.failure_kinds,
            FailureTally {
                connect: 6,
                ..FailureTally::default()
            }
        );
        assert_eq!(
            outcome.failure_kinds.to_string(),
            "connect 6, hello 0, busy 0, read timeout 0, other 0"
        );
    }
}
