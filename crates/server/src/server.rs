//! The concurrent `P2` service: readiness event loops, per-worker key
//! ownership, epoch scheduler, and aggregated statistics.
//!
//! ## Threading model
//!
//! [`Server::run`] blocks the calling thread on an **acceptor event
//! loop** (a vendored `polling` epoll/kqueue [`polling::Poller`] watching
//! the listener) and spawns a small fixed set of **worker event loops**
//! ([`ServerConfig::workers`]). Every accepted connection is made
//! nonblocking and handed to a worker, where a per-connection frame state
//! machine (read → decode/execute → encode → write, built from
//! [`dlr_protocol::transport::FrameReader`] /
//! [`dlr_protocol::transport::FrameWriter`]) drives it under per-state
//! deadlines: [`ServerConfig::read_timeout`] while waiting for a request,
//! [`ServerConfig::write_timeout`] while flushing a reply. No session
//! ever owns a thread, so thousands of concurrent connections cost a few
//! file descriptors each, not a stack.
//!
//! Connections arriving above [`ServerConfig::max_sessions`] are answered
//! with a structured [`ErrorCode::Busy`] reply — backpressure the
//! client's retry policy ([`dlr_core::driver::p1_decrypt_with_retry`])
//! understands. The reject is flushed **nonblockingly** on a worker loop
//! under the short [`ServerConfig::reject_write_timeout`]; a stalled or
//! adversarial rejected client is dropped at the deadline and can never
//! head-of-line-block the accept path.
//!
//! ## Key placement
//!
//! Each key is owned by one worker: the worker half of
//! [`dlr_protocol::place`]`(id, replicas, workers)`, where `replicas` is
//! the replica count of the served topology (1 for a standalone server).
//! After a connection's first served request binds it to a key, the
//! connection **migrates** to that key's owner worker (its socket,
//! buffered partial frames, and statistics travel with it). Steady-state, every session touching a key runs on one
//! loop, so the per-key generation lock is only ever taken from a single
//! thread — a long refresh on key A cannot stall decrypts on key B owned
//! by another worker, because they share no loop and no lock.
//!
//! A background **epoch scheduler** thread marks leakage-period
//! boundaries (paper §4.4): every [`ServerConfig::epoch_interval`] (or on
//! [`ServerHandle::force_epoch`]) it bumps the epoch counter, wakes every
//! worker loop through its poller's eventfd/pipe (each worker re-warms
//! its own keys' fixed-base tables outside any lock and records the
//! boundary in its worker statistics), and invokes the registered epoch
//! hook. The hook is where deployment-specific refresh coordination
//! lives — refresh is a *two-party* protocol, so the scheduler cannot
//! rotate the share alone; the hook typically nudges the `P1` co-device,
//! which then drives a wire refresh through a normal session (the
//! integration tests do exactly this). Every server lock, the
//! scheduler's kick mutex included, recovers from poisoning
//! (`keyring::lock_recover`): a panicking waiter cannot take the epoch
//! clock down with it.
//!
//! ## Dynamic cross-request batching
//!
//! With [`ServerConfig::batch_max`] ≠ 1, each worker runs a **batch
//! executor**: decrypt requests that finish the decode stage while the
//! worker's batch window is open park in a worker-local queue instead of
//! executing inline. The window closes on a size cap (`batch_max`), a
//! delay cap ([`ServerConfig::batch_wait`], once ≥ 2 requests are
//! parked), or the singleton fast-path (a tick ending with one parked
//! request flushes immediately, so an idle server keeps inline latency).
//! At flush, requests group by key id and each group executes under a
//! **single** generation-lock acquisition through the batch path
//! ([`dlr_core::driver::p2_handle_decrypt_batch`], which runs the inline
//! respond per request), then replies fan back to each connection's
//! encode stage. Per-request semantics — replies, error isolation,
//! generation checks, operation counters, metric spans — are identical to
//! the inline path by construction; only the lock traffic and loop
//! wakeups are amortized. See DESIGN.md §5.
//!
//! ## Generation binding
//!
//! Sessions bind to a key **generation** at accept/hello time. Decrypt
//! and refresh requests re-check the binding under the key's generation
//! lock; a session whose key was refreshed since binding receives
//! [`ErrorCode::StaleGeneration`] instead of a garbage response computed
//! from mismatched shares. The session stays open — the client re-hellos
//! (with its refreshed `P1` share) and continues.

use crate::keyring::{lock_recover, persist_atomically, KeyEntry, Keyring};
use bytes::Bytes;
use dlr_core::driver::{
    error_reply, error_reply_for, ok_reply, p2_handle_decrypt_batch, p2_handle_frame, ErrorCode,
    HelloMsg, RequestTag, TopologyMsg, GENERATION_ANY, WIRE_VERSION,
};
use dlr_curve::Pairing;
use dlr_metrics::Report;
use dlr_protocol::transport::{FrameReader, FrameWriter};
use dlr_protocol::WireStats;
use polling::{Event, Events, Poller};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Cluster ownership oracle consulted on a hello naming a key the local
/// keyring does not hold: return the owning replica's address (sent as a
/// [`ErrorCode::NotMine`] owner hint) or `None` if the key is unknown
/// fleet-wide (plain [`ErrorCode::UnknownKey`]). Set by the fleet
/// supervisor (`dlr-cluster`); standalone servers leave it unset.
#[derive(Clone)]
pub struct OwnerHint(pub Arc<OwnerHintFn>);

/// The closure type inside [`OwnerHint`]: key id → owning replica address.
pub type OwnerHintFn = dyn Fn(&[u8]) -> Option<String> + Send + Sync;

impl OwnerHint {
    /// The owner hint for `key_id`, if the fleet holds it elsewhere.
    pub fn lookup(&self, key_id: &[u8]) -> Option<String> {
        (self.0)(key_id)
    }
}

impl std::fmt::Debug for OwnerHint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OwnerHint(..)")
    }
}

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-session bound; further connections get a
    /// [`ErrorCode::Busy`] reply and are closed.
    pub max_sessions: usize,
    /// Per-session idle limit: a session receiving nothing for this long
    /// is closed (read-state deadline).
    pub read_timeout: Duration,
    /// Event-loop wakeup quantum: loops wake at least this often to check
    /// the shutdown flag and sweep per-connection deadlines.
    pub poll_interval: Duration,
    /// Write-state deadline: a peer that stops draining its reply for
    /// this long is disconnected.
    pub write_timeout: Duration,
    /// Deadline for flushing a [`ErrorCode::Busy`] reject reply; a
    /// rejected client that stalls past it is dropped without the
    /// courtesy reply (counted in `rejects_dropped`).
    pub reject_write_timeout: Duration,
    /// Worker event loops. `0` = auto (available parallelism, clamped to
    /// `1..=4`).
    pub workers: usize,
    /// Leakage-period length: the epoch scheduler fires every interval.
    /// `None` disables timed epochs ([`ServerHandle::force_epoch`] still
    /// works).
    pub epoch_interval: Option<Duration>,
    /// How often to dump aggregated stats JSON to [`Self::stats_path`].
    pub stats_interval: Option<Duration>,
    /// Where periodic + final stats dumps go (atomic temp+rename).
    pub stats_path: Option<PathBuf>,
    /// Fault injection (tests only): a request frame whose first byte
    /// matches panics the dispatcher, exercising the panic-recovery path
    /// without a special build.
    pub inject_panic_tag: Option<u8>,
    /// Fleet topology served on [`RequestTag::Topology`]. `None` (the
    /// standalone default) synthesizes a single-replica topology from the
    /// bound address at construction time, so the fetch always works.
    /// Its replica count is the `replicas` of [`dlr_protocol::place`]
    /// when the server assigns keys to workers.
    pub topology: Option<TopologyMsg>,
    /// Cluster ownership oracle for [`ErrorCode::NotMine`] replies on
    /// hello misses; `None` (standalone) answers `UnknownKey` as before.
    pub owner_hint: Option<OwnerHint>,
    /// Cross-request batch size cap (`--batch-max`): decrypt requests
    /// decoded while a worker's batch window is open execute together,
    /// flushing as soon as this many are parked. `1` (the default)
    /// disables batching — every request executes inline exactly as
    /// before; `0` removes the size cap (the window closes on the delay
    /// cap or the singleton fast-path only).
    pub batch_max: usize,
    /// Batch window delay cap (`--batch-wait-us`): once two or more
    /// requests are parked, the window stays open at most this long
    /// waiting for more before a timer flush. Zero flushes at the end of
    /// the readiness tick. A tick ending with a single parked request
    /// always flushes immediately (the singleton fast-path), so an idle
    /// server never trades latency for a batch that cannot form.
    pub batch_wait: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_sessions: 32,
            read_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            write_timeout: Duration::from_secs(10),
            reject_write_timeout: Duration::from_millis(300),
            workers: 0,
            epoch_interval: None,
            stats_interval: None,
            stats_path: None,
            inject_panic_tag: None,
            topology: None,
            owner_hint: None,
            batch_max: 1,
            batch_wait: Duration::ZERO,
        }
    }
}

impl ServerConfig {
    /// The worker count after resolving the `0` = auto default.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 4)
        }
    }

    /// Whether the cross-request batch executor is active (`batch_max`
    /// anything but the inline default of 1).
    pub fn batching_enabled(&self) -> bool {
        self.batch_max != 1
    }

    /// The batch size cap with `0` resolved to "unbounded".
    pub fn batch_cap(&self) -> usize {
        if self.batch_max == 0 {
            usize::MAX
        } else {
            self.batch_max
        }
    }
}

/// Bound on retained per-round latency samples in the aggregate wire
/// stats — a long-lived server must not grow its sample buffer forever.
const MAX_LATENCY_SAMPLES: usize = 8192;

/// Per-worker service counters (sessions/requests attributed to the
/// worker owning a connection's bound key; epochs observed by that
/// worker's loop).
#[derive(Debug, Default)]
struct WorkerStats {
    sessions: AtomicU64,
    requests: AtomicU64,
    epochs: AtomicU64,
}

/// Monotonic service counters, updated lock-free by the workers.
#[derive(Debug, Default)]
pub struct ServerStats {
    sessions_accepted: AtomicU64,
    sessions_rejected_busy: AtomicU64,
    sessions_completed: AtomicU64,
    requests_hello: AtomicU64,
    requests_decrypt: AtomicU64,
    requests_refresh: AtomicU64,
    requests_topology: AtomicU64,
    not_mine_replies: AtomicU64,
    error_replies: AtomicU64,
    epochs: AtomicU64,
    refreshes: AtomicU64,
    persist_failures: AtomicU64,
    session_panics: AtomicU64,
    rejects_dropped: AtomicU64,
    migrations: AtomicU64,
    loop_wakeups: AtomicU64,
    batched_requests: AtomicU64,
    batch_flushes_full: AtomicU64,
    batch_flushes_timer: AtomicU64,
    batch_flushes_idle: AtomicU64,
    batch_size_hist: [AtomicU64; BATCH_HIST_BUCKETS],
    last_panic: Mutex<Option<String>>,
    workers: Vec<WorkerStats>,
    wire: Mutex<WireStats>,
}

/// Batch-size histogram buckets: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
const BATCH_HIST_BUCKETS: usize = 8;

/// Histogram bucket for a flush of `n` requests.
fn batch_hist_bucket(n: usize) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        33..=64 => 6,
        _ => 7,
    }
}

impl ServerStats {
    fn with_workers(workers: usize) -> Self {
        Self {
            workers: (0..workers).map(|_| WorkerStats::default()).collect(),
            ..Self::default()
        }
    }

    fn merge_wire(&self, session: &WireStats) {
        let mut agg = lock_recover(&self.wire);
        agg.merge(session);
        let len = agg.round_latency_ns.len();
        if len > MAX_LATENCY_SAMPLES {
            agg.round_latency_ns.drain(..len - MAX_LATENCY_SAMPLES);
        }
    }

    fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        self.session_panics.fetch_add(1, Ordering::Relaxed);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        *lock_recover(&self.last_panic) = Some(message);
    }

    /// Consistent point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            sessions_accepted: self.sessions_accepted.load(Ordering::Relaxed),
            sessions_rejected_busy: self.sessions_rejected_busy.load(Ordering::Relaxed),
            sessions_completed: self.sessions_completed.load(Ordering::Relaxed),
            requests_hello: self.requests_hello.load(Ordering::Relaxed),
            requests_decrypt: self.requests_decrypt.load(Ordering::Relaxed),
            requests_refresh: self.requests_refresh.load(Ordering::Relaxed),
            requests_topology: self.requests_topology.load(Ordering::Relaxed),
            not_mine_replies: self.not_mine_replies.load(Ordering::Relaxed),
            error_replies: self.error_replies.load(Ordering::Relaxed),
            epochs: self.epochs.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            persist_failures: self.persist_failures.load(Ordering::Relaxed),
            session_panics: self.session_panics.load(Ordering::Relaxed),
            rejects_dropped: self.rejects_dropped.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            loop_wakeups: self.loop_wakeups.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            batch_flushes_full: self.batch_flushes_full.load(Ordering::Relaxed),
            batch_flushes_timer: self.batch_flushes_timer.load(Ordering::Relaxed),
            batch_flushes_idle: self.batch_flushes_idle.load(Ordering::Relaxed),
            batch_size_hist: self
                .batch_size_hist
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            last_panic: lock_recover(&self.last_panic).clone(),
            workers: self
                .workers
                .iter()
                .map(|s| WorkerSnapshot {
                    sessions: s.sessions.load(Ordering::Relaxed),
                    requests: s.requests.load(Ordering::Relaxed),
                    epochs: s.epochs.load(Ordering::Relaxed),
                })
                .collect(),
            wire: lock_recover(&self.wire).clone(),
        }
    }
}

/// Plain-value copy of one worker's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Sessions whose bound key this worker owns.
    pub sessions: u64,
    /// Requests served against this worker's keys.
    pub requests: u64,
    /// Epoch boundaries observed by this worker's loop.
    pub epochs: u64,
}

/// Plain-value copy of [`ServerStats`] plus the merged wire statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted into a session.
    pub sessions_accepted: u64,
    /// Connections refused with [`ErrorCode::Busy`].
    pub sessions_rejected_busy: u64,
    /// Sessions that ended (shutdown, disconnect, panic, or deadline).
    pub sessions_completed: u64,
    /// Hello requests served.
    pub requests_hello: u64,
    /// Decrypt requests served successfully.
    pub requests_decrypt: u64,
    /// Refresh requests served successfully.
    pub requests_refresh: u64,
    /// Topology fetches served.
    pub requests_topology: u64,
    /// [`ErrorCode::NotMine`] redirects sent (hello for a key another
    /// replica owns). Counted separately from `error_replies` — a
    /// redirect is routing information, not a service failure.
    pub not_mine_replies: u64,
    /// Structured error frames sent.
    pub error_replies: u64,
    /// Epoch boundaries marked by the scheduler.
    pub epochs: u64,
    /// Share refreshes committed (generation bumps).
    pub refreshes: u64,
    /// Refresh commits whose share persistence failed.
    pub persist_failures: u64,
    /// Request dispatches that panicked (session closed, slot reclaimed).
    pub session_panics: u64,
    /// Busy rejects dropped at the reject-write deadline because the
    /// client never drained the courtesy reply.
    pub rejects_dropped: u64,
    /// Connections migrated to their bound key's owner worker.
    pub migrations: u64,
    /// Readiness-loop wakeups across all worker event loops.
    pub loop_wakeups: u64,
    /// Decrypt requests served through the batch executor (parked in a
    /// worker batch window instead of executing inline). Every one of
    /// them is also counted in `requests_decrypt`/`error_replies` exactly
    /// as the inline path would.
    pub batched_requests: u64,
    /// Batch flushes triggered by the size cap (`--batch-max` reached).
    pub batch_flushes_full: u64,
    /// Batch flushes triggered by the delay cap (`--batch-wait-us`
    /// expired with ≥ 2 requests parked).
    pub batch_flushes_timer: u64,
    /// Batch flushes via the singleton fast-path (a readiness tick ended
    /// with exactly one parked request — flushed immediately so an idle
    /// server keeps inline latency).
    pub batch_flushes_idle: u64,
    /// Flush-size histogram, buckets 1, 2, 3–4, 5–8, 9–16, 17–32,
    /// 33–64, 65+.
    pub batch_size_hist: Vec<u64>,
    /// Message of the most recent dispatch panic, if any.
    pub last_panic: Option<String>,
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<WorkerSnapshot>,
    /// Wire statistics merged across all completed sessions.
    pub wire: WireStats,
}

impl StatsSnapshot {
    /// Total batch flushes across all three window-close reasons.
    pub fn batch_flushes(&self) -> u64 {
        self.batch_flushes_full + self.batch_flushes_timer + self.batch_flushes_idle
    }

    /// Batch efficiency: requests per flush (the amortization factor the
    /// batching loadgen reports). `None` when no flush ever happened.
    pub fn batch_efficiency(&self) -> Option<f64> {
        let flushes = self.batch_flushes();
        (flushes > 0).then(|| self.batched_requests as f64 / flushes as f64)
    }

    /// Render as a `dlr-metrics` [`Report`]: counters as metadata, merged
    /// wire statistics as a wire row, plus any spans recorded in this
    /// process. Serializes to the standard report JSON/CSV schema.
    pub fn to_report(&self) -> Report {
        let join = |f: fn(&WorkerSnapshot) -> u64| {
            self.workers
                .iter()
                .map(|s| f(s).to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut report = Report::capture()
            .with_meta("component", "dlr-server")
            .with_meta("sessions_accepted", &self.sessions_accepted.to_string())
            .with_meta(
                "sessions_rejected_busy",
                &self.sessions_rejected_busy.to_string(),
            )
            .with_meta("sessions_completed", &self.sessions_completed.to_string())
            .with_meta("requests_hello", &self.requests_hello.to_string())
            .with_meta("requests_decrypt", &self.requests_decrypt.to_string())
            .with_meta("requests_refresh", &self.requests_refresh.to_string())
            .with_meta("requests_topology", &self.requests_topology.to_string())
            .with_meta("not_mine_replies", &self.not_mine_replies.to_string())
            .with_meta("error_replies", &self.error_replies.to_string())
            .with_meta("epochs", &self.epochs.to_string())
            .with_meta("refreshes", &self.refreshes.to_string())
            .with_meta("persist_failures", &self.persist_failures.to_string())
            .with_meta("session_panics", &self.session_panics.to_string())
            .with_meta("rejects_dropped", &self.rejects_dropped.to_string())
            .with_meta("migrations", &self.migrations.to_string())
            .with_meta("loop_wakeups", &self.loop_wakeups.to_string())
            .with_meta("batched_requests", &self.batched_requests.to_string())
            .with_meta("batch_flushes_full", &self.batch_flushes_full.to_string())
            .with_meta("batch_flushes_timer", &self.batch_flushes_timer.to_string())
            .with_meta("batch_flushes_idle", &self.batch_flushes_idle.to_string())
            .with_meta(
                "batch_size_hist",
                &self
                    .batch_size_hist
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            )
            .with_meta(
                "batch_efficiency",
                &self
                    .batch_efficiency()
                    .map_or_else(|| "n/a".to_string(), |e| format!("{e:.2}")),
            )
            .with_meta("workers", &self.workers.len().to_string())
            .with_meta("worker_sessions", &join(|s| s.sessions))
            .with_meta("worker_requests", &join(|s| s.requests))
            .with_meta("worker_epochs", &join(|s| s.epochs));
        report.push_wire("server.sessions", self.wire.clone());
        report
    }
}

/// Invoked by the epoch scheduler at each period boundary with the new
/// epoch number.
pub type EpochHook = Box<dyn FnMut(u64) + Send>;

/// Cross-thread channel into one worker event loop: its poller (for
/// wakeups) and the count of epoch boundaries it has not yet observed.
struct WorkerLink {
    poller: Poller,
    pending_epochs: AtomicU64,
}

struct Shared {
    shutdown: AtomicBool,
    epoch: AtomicU64,
    active: AtomicUsize,
    /// Manual epoch kicks ([`ServerHandle::force_epoch`]); the scheduler
    /// compares against its own seen-count under [`Self::wake`].
    kick: Mutex<u64>,
    wake: Condvar,
    stats: ServerStats,
    local_addr: SocketAddr,
    workers: usize,
    /// Replica count of the served topology: the fleet size this server
    /// places keys within ([`dlr_protocol::place`]).
    replicas: usize,
    links: Vec<WorkerLink>,
    accept_poller: Poller,
}

impl Shared {
    /// The worker owning `key_id`.
    fn owner_of(&self, key_id: &[u8]) -> usize {
        dlr_protocol::place(key_id, self.replicas, self.workers).1
    }

    /// Attribute one served request to `owner`, the worker owning the
    /// request's key, and `conn`'s session too on its first such request.
    fn count_served<E: Pairing>(&self, conn: &mut Conn<E>, owner: usize) {
        conn.owner = Some(owner);
        let stats = &self.stats.workers[owner];
        stats.requests.fetch_add(1, Ordering::Relaxed);
        if !conn.owner_counted {
            conn.owner_counted = true;
            stats.sessions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Wake every event loop (acceptor + workers).
    fn notify_all_loops(&self) {
        let _ = self.accept_poller.notify();
        for link in &self.links {
            let _ = link.poller.notify();
        }
    }
}

/// RAII ownership of one session slot: decrements `active` and counts the
/// session completed when dropped — on clean close, peer disconnect,
/// server shutdown, *and* dispatch panic alike, so a panicking session
/// can never leak its slot.
struct SlotGuard {
    shared: Arc<Shared>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::AcqRel);
        self.shared
            .stats
            .sessions_completed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful shutdown: stop accepting, drain the event loops,
    /// persist shares, exit [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        self.shared.notify_all_loops();
    }

    /// Trigger an epoch boundary now (asynchronous: the scheduler thread
    /// runs the hook; observe completion via [`Self::epoch`]).
    pub fn force_epoch(&self) {
        {
            let mut kicks = lock_recover(&self.shared.kick);
            *kicks += 1;
        }
        self.shared.wake.notify_all();
    }

    /// Epoch boundaries marked so far.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The listener's bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }
}

/// Concurrent key-share service over a [`Keyring`].
pub struct Server<E: Pairing> {
    listener: TcpListener,
    keyring: Arc<Keyring<E>>,
    config: ServerConfig,
    shared: Arc<Shared>,
    epoch_hook: Option<EpochHook>,
}

impl<E: Pairing> Server<E> {
    /// Bind a listener and construct the server around it.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        keyring: Arc<Keyring<E>>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::new(TcpListener::bind(addr)?, keyring, config)
    }

    /// Construct the server around an existing listener.
    pub fn new(
        listener: TcpListener,
        keyring: Arc<Keyring<E>>,
        mut config: ServerConfig,
    ) -> io::Result<Self> {
        let local_addr = listener.local_addr()?;
        let workers = config.resolved_workers();
        // Standalone servers are a fleet of one: synthesize the topology
        // from the bound address so a topology fetch always has an answer.
        let replicas = config
            .topology
            .get_or_insert_with(|| TopologyMsg {
                version: WIRE_VERSION,
                replicas: vec![local_addr.to_string()],
            })
            .replicas
            .len();
        let links = (0..workers)
            .map(|_| {
                Ok(WorkerLink {
                    poller: Poller::new()?,
                    pending_epochs: AtomicU64::new(0),
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self {
            listener,
            keyring,
            config,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                epoch: AtomicU64::new(0),
                active: AtomicUsize::new(0),
                kick: Mutex::new(0),
                wake: Condvar::new(),
                stats: ServerStats::with_workers(workers),
                local_addr,
                workers,
                replicas,
                links,
                accept_poller: Poller::new()?,
            }),
            epoch_hook: None,
        })
    }

    /// Remote control valid for the lifetime of the process.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Register the epoch-boundary hook (called from the scheduler
    /// thread, outside any lock).
    pub fn set_epoch_hook(&mut self, hook: impl FnMut(u64) + Send + 'static) {
        self.epoch_hook = Some(Box::new(hook));
    }

    /// Serve until [`ServerHandle::shutdown`] (or a fatal accept error).
    ///
    /// Blocks the calling thread on the acceptor event loop. On exit
    /// every worker loop has drained its connections, all shares are
    /// persisted, and a final stats dump written (when configured);
    /// returns the final statistics.
    pub fn run(mut self) -> io::Result<StatsSnapshot> {
        self.listener.set_nonblocking(true)?;
        let shared = Arc::clone(&self.shared);
        let keyring = Arc::clone(&self.keyring);
        let config = self.config.clone();
        let mut hook = self.epoch_hook.take();

        // Worker → keys map so each worker can re-warm its own keys'
        // fixed-base tables after an epoch boundary.
        let mut worker_keys: Vec<Vec<Arc<KeyEntry<E>>>> = vec![Vec::new(); shared.workers];
        for entry in keyring.entries() {
            worker_keys[shared.owner_of(entry.id())].push(Arc::clone(entry));
        }
        let mesh = Mesh {
            inboxes: (0..shared.workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
        };

        let mut accept_err: Option<io::Error> = None;
        std::thread::scope(|s| {
            {
                let shared = Arc::clone(&shared);
                let interval = config.epoch_interval;
                let hook = &mut hook;
                s.spawn(move || epoch_scheduler(&shared, interval, hook));
            }
            if let (Some(interval), Some(path)) = (config.stats_interval, &config.stats_path) {
                let shared = Arc::clone(&shared);
                let path = path.clone();
                s.spawn(move || stats_dumper(&shared, interval, &path));
            }
            for (index, own_keys) in worker_keys.iter().enumerate() {
                let mut worker = Worker {
                    index,
                    shared: &shared,
                    mesh: &mesh,
                    keyring: &keyring,
                    config: &config,
                    own_keys,
                    slab: Vec::new(),
                    free: Vec::new(),
                    batch: BatchQueue::default(),
                    next_conn_id: 0,
                };
                s.spawn(move || worker.run());
            }

            accept_err = acceptor_loop(&self.listener, &shared, &mesh, &config);

            // Wake everything so the scope can join: the scheduler/dumper
            // observe the flag under their own wakeups, the workers drain
            // their connections at the next loop iteration.
            shared.shutdown.store(true, Ordering::Release);
            shared.wake.notify_all();
            shared.notify_all_loops();
        });

        if let Some(e) = accept_err {
            return Err(e);
        }
        self.keyring.persist_all()?;
        let snapshot = shared.stats.snapshot();
        if let Some(path) = &config.stats_path {
            persist_atomically(path, snapshot.to_report().to_json().as_bytes())?;
        }
        Ok(snapshot)
    }
}

/// Accept connections until shutdown; returns the fatal accept error, if
/// any. At capacity a connection is staged as a nonblocking Busy reject
/// on a worker loop — the accept path itself never writes to a socket.
fn acceptor_loop<E: Pairing>(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    mesh: &Mesh<E>,
    config: &ServerConfig,
) -> Option<io::Error> {
    if let Err(e) = shared.accept_poller.add(listener, Event::readable(0)) {
        return Some(e);
    }
    let mut events = Events::new();
    let mut next_worker = 0usize;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        let _ = shared
            .accept_poller
            .wait(&mut events, Some(config.poll_interval));
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        loop {
            let stream = match listener.accept() {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(e),
            };
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            let inbound = if shared.active.load(Ordering::Acquire) >= config.max_sessions {
                shared
                    .stats
                    .sessions_rejected_busy
                    .fetch_add(1, Ordering::Relaxed);
                let mut writer = FrameWriter::new();
                let _ = writer.enqueue(&error_reply(
                    ErrorCode::Busy,
                    "server at session limit; retry after backoff",
                ));
                Inbound::Reject { stream, writer }
            } else {
                shared
                    .stats
                    .sessions_accepted
                    .fetch_add(1, Ordering::Relaxed);
                shared.active.fetch_add(1, Ordering::AcqRel);
                Inbound::Session {
                    stream,
                    guard: SlotGuard {
                        shared: Arc::clone(shared),
                    },
                }
            };
            lock_recover(&mesh.inboxes[next_worker]).push_back(inbound);
            let _ = shared.links[next_worker].poller.notify();
            next_worker = (next_worker + 1) % shared.workers;
        }
    }
}

fn epoch_scheduler(shared: &Shared, interval: Option<Duration>, hook: &mut Option<EpochHook>) {
    let mut seen_kicks = 0u64;
    loop {
        let fired;
        {
            let mut kicks = lock_recover(&shared.kick);
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if *kicks > seen_kicks {
                seen_kicks = *kicks;
                fired = true;
            } else {
                let timed_out = match interval {
                    Some(d) => {
                        let (guard, result) = shared
                            .wake
                            .wait_timeout(kicks, d)
                            .unwrap_or_else(PoisonError::into_inner);
                        kicks = guard;
                        result.timed_out()
                    }
                    None => {
                        kicks = shared
                            .wake
                            .wait(kicks)
                            .unwrap_or_else(PoisonError::into_inner);
                        false
                    }
                };
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if *kicks > seen_kicks {
                    seen_kicks = *kicks;
                    fired = true;
                } else {
                    fired = timed_out;
                }
            }
        }
        if fired {
            let epoch = shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            shared.stats.epochs.fetch_add(1, Ordering::Relaxed);
            // Wake every worker loop through its poller so each re-warms
            // its own keys and stamps its epoch counter — the
            // old kick/condvar fan-out replaced by an eventfd per loop.
            for link in &shared.links {
                link.pending_epochs.fetch_add(1, Ordering::Release);
                let _ = link.poller.notify();
            }
            // The hook runs outside every lock: it may open sessions
            // against this very server (wire refresh via P1).
            if let Some(h) = hook.as_mut() {
                h(epoch);
            }
        }
    }
}

fn stats_dumper(shared: &Shared, interval: Duration, path: &std::path::Path) {
    let step = Duration::from_millis(50).min(interval);
    let mut since = Duration::ZERO;
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(step);
        since += step;
        if since >= interval {
            since = Duration::ZERO;
            let _ =
                persist_atomically(path, shared.stats.snapshot().to_report().to_json().as_bytes());
        }
    }
}

/// A connection handed between event loops: a freshly accepted session, a
/// capacity reject carrying its preloaded Busy reply, or a live session
/// migrating to its bound key's owner worker.
enum Inbound<E: Pairing> {
    Session { stream: TcpStream, guard: SlotGuard },
    Reject { stream: TcpStream, writer: FrameWriter },
    Migrated(Box<Conn<E>>),
}

/// Worker-to-worker handoff queues (acceptor → worker, worker → worker on
/// migration). Separate from [`Shared`] so [`Shared`] stays non-generic.
struct Mesh<E: Pairing> {
    inboxes: Vec<Mutex<VecDeque<Inbound<E>>>>,
}

/// One nonblocking connection's frame state machine. The current state is
/// implicit: bytes pending in `writer` mean the write state, otherwise
/// the read state; `closing` marks the final flush before teardown.
struct Conn<E: Pairing> {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    session: Session<E>,
    /// `None` for capacity rejects (they never held a session slot).
    /// Never read — held so its `Drop` reclaims the slot when the
    /// connection is torn down, panics included.
    _guard: Option<SlotGuard>,
    wire: WireStats,
    /// Start of the in-flight request (set at frame receipt, consumed
    /// when its reply finishes flushing).
    req_started: Option<Instant>,
    /// Payload length of the staged reply, for wire accounting at flush.
    pending_reply: u64,
    /// Current per-state deadline (idle limit / write stall limit).
    deadline: Instant,
    /// Tear down once the writer drains.
    closing: bool,
    /// Interest currently registered with the poller.
    want_write: bool,
    /// Worker owning the bound key, once a request has bound one.
    owner: Option<usize>,
    /// Whether this connection was already counted in worker sessions.
    owner_counted: bool,
    is_reject: bool,
    /// A decrypt request from this connection is parked in the worker's
    /// batch window; the connection reads nothing further (strict
    /// ping-pong) until the flush stages its reply.
    parked: bool,
    /// Worker-local identity token: a flush cross-checks it against the
    /// parked request so a slab slot freed and reused while the request
    /// waited can never receive a stranger's reply.
    conn_id: u64,
}

/// One request parked in a worker's batch window, addressed by slab slot
/// plus the connection identity token current at park time.
struct ParkedReq {
    slab_key: usize,
    conn_id: u64,
    req: Bytes,
}

/// Why a batch window closed.
#[derive(Clone, Copy)]
enum FlushReason {
    /// Size cap reached (`--batch-max`).
    Full,
    /// Delay cap expired with ≥ 2 requests parked (`--batch-wait-us`).
    Timer,
    /// Singleton fast-path: the readiness tick ended with one parked
    /// request and nothing to pair it with.
    Idle,
}

/// A worker's batch window: requests parked since the last flush plus the
/// instant the window opened (first park after an empty state).
#[derive(Default)]
struct BatchQueue {
    parked: Vec<ParkedReq>,
    opened: Option<Instant>,
}

impl BatchQueue {
    fn push(&mut self, req: ParkedReq) {
        if self.parked.is_empty() {
            self.opened = Some(Instant::now());
        }
        self.parked.push(req);
    }

    fn len(&self) -> usize {
        self.parked.len()
    }

    fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    fn age(&self) -> Duration {
        self.opened.map_or(Duration::ZERO, |t| t.elapsed())
    }

    fn take(&mut self) -> Vec<ParkedReq> {
        self.opened = None;
        std::mem::take(&mut self.parked)
    }
}

enum Verdict {
    /// Connection stays on this loop; re-arm interest as needed.
    Keep,
    /// Tear the connection down.
    Close,
    /// Hand the connection to the worker owning its key.
    Migrate(usize),
}

/// One worker event loop: a slab of connections driven by readiness
/// events from its poller, plus the epoch/inbox control channels.
struct Worker<'a, E: Pairing> {
    index: usize,
    shared: &'a Arc<Shared>,
    mesh: &'a Mesh<E>,
    keyring: &'a Keyring<E>,
    config: &'a ServerConfig,
    own_keys: &'a [Arc<KeyEntry<E>>],
    slab: Vec<Option<Conn<E>>>,
    free: Vec<usize>,
    /// Cross-request batch window (empty and never opened when
    /// [`ServerConfig::batching_enabled`] is off).
    batch: BatchQueue,
    /// Monotonic source for [`Conn::conn_id`] tokens.
    next_conn_id: u64,
}

impl<E: Pairing> Worker<'_, E> {
    fn link(&self) -> &WorkerLink {
        &self.shared.links[self.index]
    }

    fn run(&mut self) {
        let mut events = Events::new();
        let mut rng = rand::thread_rng();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let timeout = self.next_timeout();
            let _ = self.link().poller.wait(&mut events, Some(timeout));
            self.shared.stats.loop_wakeups.fetch_add(1, Ordering::Relaxed);
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.observe_epochs();
            self.drain_inbox(&mut rng);
            for ev in events.iter() {
                self.drive(ev.key, &mut rng);
                if self.batch.len() >= self.config.batch_cap() {
                    self.flush_batch(FlushReason::Full, &mut rng);
                }
            }
            self.close_batch_window(&mut rng);
            self.sweep_deadlines();
        }
        for key in 0..self.slab.len() {
            self.close(key);
        }
    }

    /// Sleep until the nearest connection deadline, capped at the poll
    /// quantum (wakeups for new work arrive via the poller's notify) and
    /// at the batch window's remaining delay budget when one is open.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = self.config.poll_interval;
        for conn in self.slab.iter().flatten() {
            timeout = timeout.min(conn.deadline.saturating_duration_since(now));
        }
        if !self.batch.is_empty() {
            timeout = timeout.min(self.config.batch_wait.saturating_sub(self.batch.age()));
        }
        timeout
    }

    /// Apply epoch boundaries the scheduler has published since the last
    /// wakeup: stamp this worker's epoch counter and re-warm its keys'
    /// fixed-base tables, all outside any generation lock.
    fn observe_epochs(&mut self) {
        let pending = self.link().pending_epochs.swap(0, Ordering::AcqRel);
        if pending == 0 {
            return;
        }
        self.shared.stats.workers[self.index]
            .epochs
            .fetch_add(pending, Ordering::Relaxed);
        for entry in self.own_keys {
            entry.warm();
        }
    }

    fn drain_inbox<R: rand::RngCore>(&mut self, rng: &mut R) {
        loop {
            let inbound = lock_recover(&self.mesh.inboxes[self.index]).pop_front();
            let Some(inbound) = inbound else { return };
            if let Some(key) = self.adopt(inbound) {
                // Drive immediately: a fresh session may already have its
                // hello buffered, and a reject's Busy reply usually fits
                // the socket buffer in one write.
                self.drive(key, rng);
                if self.batch.len() >= self.config.batch_cap() {
                    self.flush_batch(FlushReason::Full, rng);
                }
            }
        }
    }

    /// Register an inbound connection in the slab and with the poller.
    fn adopt(&mut self, inbound: Inbound<E>) -> Option<usize> {
        let now = Instant::now();
        let conn = match inbound {
            Inbound::Session { stream, guard } => {
                let entry = self.keyring.default_entry();
                let bound_generation = entry.as_ref().map_or(0, |e| e.generation());
                Conn {
                    stream,
                    reader: FrameReader::new(),
                    writer: FrameWriter::new(),
                    session: Session {
                        entry,
                        bound_generation,
                    },
                    _guard: Some(guard),
                    wire: WireStats::default(),
                    req_started: None,
                    pending_reply: 0,
                    deadline: now + self.config.read_timeout,
                    closing: false,
                    want_write: false,
                    owner: None,
                    owner_counted: false,
                    is_reject: false,
                    parked: false,
                    conn_id: 0,
                }
            }
            Inbound::Reject { stream, writer } => Conn {
                stream,
                reader: FrameReader::new(),
                writer,
                session: Session {
                    entry: None,
                    bound_generation: 0,
                },
                _guard: None,
                wire: WireStats::default(),
                req_started: None,
                pending_reply: 0,
                deadline: now + self.config.reject_write_timeout,
                closing: true,
                want_write: true,
                owner: None,
                owner_counted: false,
                is_reject: true,
                parked: false,
                conn_id: 0,
            },
            Inbound::Migrated(conn) => {
                let mut conn = *conn;
                conn.deadline = now + self.config.read_timeout;
                conn.want_write = conn.writer.has_pending();
                conn
            }
        };
        let mut conn = conn;
        // A worker-unique token per adoption (migrated connections get a
        // fresh one too): parked requests name their connection by
        // (slot, token), so slot reuse can never cross replies.
        self.next_conn_id += 1;
        conn.conn_id = self.next_conn_id;
        conn.parked = false;
        let key = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        let interest = if conn.want_write {
            Event::writable(key)
        } else {
            Event::readable(key)
        };
        match self.link().poller.add(&conn.stream, interest) {
            Ok(()) => {
                self.slab[key] = Some(conn);
                Some(key)
            }
            Err(_) => {
                // Registration failed (fd limit, dead socket): drop the
                // connection; the guard reclaims the slot.
                if !conn.is_reject {
                    self.shared.stats.merge_wire(&conn.wire);
                }
                self.free.push(key);
                None
            }
        }
    }

    /// Advance one connection's state machine as far as its socket
    /// allows, then apply the verdict (interest re-arm, close, migrate).
    fn drive<R: rand::RngCore>(&mut self, key: usize, rng: &mut R) {
        let verdict = {
            let Worker {
                slab,
                index,
                shared,
                keyring,
                config,
                batch,
                ..
            } = self;
            let Some(conn) = slab.get_mut(key).and_then(Option::as_mut) else {
                return;
            };
            drive_conn(conn, key, *index, shared, keyring, config, batch, rng)
        };
        match verdict {
            Verdict::Keep => {
                let Worker { slab, shared, index, .. } = self;
                let conn = slab[key].as_mut().expect("kept conn present");
                let want_write = conn.writer.has_pending();
                if want_write != conn.want_write {
                    let interest = if want_write {
                        Event::writable(key)
                    } else {
                        Event::readable(key)
                    };
                    match shared.links[*index].poller.modify(&conn.stream, interest) {
                        Ok(()) => conn.want_write = want_write,
                        Err(_) => self.close(key),
                    }
                }
            }
            Verdict::Close => self.close(key),
            Verdict::Migrate(home) => self.migrate(key, home),
        }
    }

    fn close(&mut self, key: usize) {
        let Some(conn) = self.slab[key].take() else {
            return;
        };
        let _ = self.link().poller.delete(&conn.stream);
        if !conn.is_reject {
            self.shared.stats.merge_wire(&conn.wire);
        }
        self.free.push(key);
        // `conn` (and its SlotGuard) drops here: slot + completion
        // accounting happen exactly once per session, panics included.
    }

    fn migrate(&mut self, key: usize, home: usize) {
        let Some(mut conn) = self.slab[key].take() else {
            return;
        };
        let _ = self.link().poller.delete(&conn.stream);
        self.free.push(key);
        conn.want_write = false;
        self.shared.stats.migrations.fetch_add(1, Ordering::Relaxed);
        lock_recover(&self.mesh.inboxes[home]).push_back(Inbound::Migrated(Box::new(conn)));
        let _ = self.shared.links[home].poller.notify();
    }

    /// Close connections whose current-state deadline has passed: idle
    /// sessions, write-stalled peers, and reject clients that never
    /// drained their Busy reply.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for key in 0..self.slab.len() {
            let expired = matches!(&self.slab[key], Some(c) if c.deadline <= now);
            if expired {
                if let Some(c) = &self.slab[key] {
                    if c.is_reject && c.writer.has_pending() {
                        self.shared
                            .stats
                            .rejects_dropped
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.close(key);
            }
        }
    }

    /// End-of-tick batch window policy (the adaptive part of the window):
    ///
    /// * size cap already flushed mid-tick ([`FlushReason::Full`]);
    /// * a lone parked request flushes **now** ([`FlushReason::Idle`]) —
    ///   the singleton fast-path: nothing arrived this tick to pair it
    ///   with, so holding it would trade latency for no amortization;
    /// * two or more parked requests are held until the delay cap
    ///   ([`ServerConfig::batch_wait`]) expires ([`FlushReason::Timer`]),
    ///   letting later ticks top the batch up to the size cap.
    ///
    /// Loops because staging replies can surface pipelined follow-up
    /// requests that park into a fresh window.
    fn close_batch_window<R: rand::RngCore>(&mut self, rng: &mut R) {
        loop {
            if self.batch.is_empty() {
                return;
            }
            if self.batch.len() >= self.config.batch_cap() {
                self.flush_batch(FlushReason::Full, rng);
            } else if self.batch.len() == 1 {
                self.flush_batch(FlushReason::Idle, rng);
            } else if self.batch.age() >= self.config.batch_wait {
                self.flush_batch(FlushReason::Timer, rng);
            } else {
                return; // window stays open; next_timeout caps the wait
            }
        }
    }

    /// Drain the batch window: group parked requests by key, execute each
    /// group through the shared-context batch path, and fan the replies
    /// back to their connections' encode stages.
    fn flush_batch<R: rand::RngCore>(&mut self, reason: FlushReason, rng: &mut R) {
        let parked = self.batch.take();
        if parked.is_empty() {
            return;
        }
        let stats = &self.shared.stats;
        match reason {
            FlushReason::Full => &stats.batch_flushes_full,
            FlushReason::Timer => &stats.batch_flushes_timer,
            FlushReason::Idle => &stats.batch_flushes_idle,
        }
        .fetch_add(1, Ordering::Relaxed);
        stats.batch_size_hist[batch_hist_bucket(parked.len())].fetch_add(1, Ordering::Relaxed);
        stats
            .batched_requests
            .fetch_add(parked.len() as u64, Ordering::Relaxed);

        // Group by key id (Arc identity), preserving arrival order within
        // each group. Requests whose connection vanished while parked
        // (deadline sweep, error close) are dropped — their reply has no
        // socket to go to and the token check keeps slot reuse safe.
        let mut groups: Vec<(Arc<KeyEntry<E>>, Vec<ParkedReq>)> = Vec::new();
        for preq in parked {
            let Some(conn) = self.slab.get(preq.slab_key).and_then(Option::as_ref) else {
                continue;
            };
            if conn.conn_id != preq.conn_id || !conn.parked {
                continue;
            }
            let Some(entry) = conn.session.entry.as_ref() else {
                continue; // park predicate requires a bound key
            };
            match groups.iter_mut().find(|(e, _)| Arc::ptr_eq(e, entry)) {
                Some((_, group)) => group.push(preq),
                None => groups.push((Arc::clone(entry), vec![preq])),
            }
        }
        for (entry, group) in groups {
            self.execute_group(&entry, group, rng);
        }
    }

    /// Execute one same-key group under a single generation-lock
    /// acquisition and panic guard, then stage + flush every reply. A
    /// panic anywhere in the group closes every connection in it — each
    /// SlotGuard reclaims its slot, exactly like the inline panic path.
    fn execute_group<R: rand::RngCore>(
        &mut self,
        entry: &Arc<KeyEntry<E>>,
        group: Vec<ParkedReq>,
        rng: &mut R,
    ) {
        let bounds: Vec<u64> = group
            .iter()
            .map(|p| {
                self.slab[p.slab_key]
                    .as_ref()
                    .expect("validated at grouping")
                    .session
                    .bound_generation
            })
            .collect();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            batch_dispatch(entry, &group, &bounds, &self.shared.stats, self.config)
        }));
        match outcome {
            Ok(replies) => {
                let owner = self.shared.owner_of(entry.id());
                for (preq, reply) in group.iter().zip(replies) {
                    let conn = self.slab[preq.slab_key]
                        .as_mut()
                        .expect("validated at grouping");
                    conn.parked = false;
                    conn.pending_reply = reply.len() as u64;
                    if conn.writer.enqueue(&reply).is_err() {
                        conn.closing = true;
                        continue;
                    }
                    conn.deadline = Instant::now() + self.config.write_timeout;
                    self.shared.count_served(conn, owner);
                }
                // Fan out: drive each connection's encode/write stage (and
                // any migration the freshly bound key calls for).
                for preq in &group {
                    self.drive(preq.slab_key, rng);
                }
            }
            Err(payload) => {
                self.shared.stats.record_panic(payload.as_ref());
                for preq in &group {
                    let still_there = self
                        .slab
                        .get(preq.slab_key)
                        .and_then(Option::as_ref)
                        .is_some_and(|c| c.conn_id == preq.conn_id);
                    if still_there {
                        self.close(preq.slab_key);
                    }
                }
            }
        }
    }
}

/// Which worker should own `conn`, if not the current one.
fn migration_target<E: Pairing>(conn: &Conn<E>, shared: &Shared, index: usize) -> Option<usize> {
    if shared.workers <= 1 {
        return None;
    }
    let home = conn.owner?;
    (home != index).then_some(home)
}

/// Run one connection's read/decode/execute/encode/write cycle until its
/// socket would block (or the connection reaches a terminal state).
///
/// With batching enabled, a decoded decrypt request on a key-bound
/// session does not execute inline: it parks in the worker's batch window
/// (`batch`) and the connection goes quiet until the flush stages its
/// reply — the execute stage moves from this per-connection FSM into
/// [`Worker::flush_batch`].
#[allow(clippy::too_many_arguments)]
fn drive_conn<E: Pairing, R: rand::RngCore>(
    conn: &mut Conn<E>,
    key: usize,
    index: usize,
    shared: &Shared,
    keyring: &Keyring<E>,
    config: &ServerConfig,
    batch: &mut BatchQueue,
    rng: &mut R,
) -> Verdict {
    if conn.is_reject {
        return drive_reject(conn);
    }
    if conn.parked {
        // Strict ping-pong: nothing to read or write until the batch
        // flush answers the parked request. Spurious readiness (e.g. a
        // disconnecting peer) resolves at flush time when the staged
        // reply fails to write.
        return Verdict::Keep;
    }
    loop {
        // Write state: flush the staged reply before reading again (the
        // protocols are strict request/response ping-pong).
        if conn.writer.has_pending() {
            match conn.writer.poll_flush(&mut conn.stream) {
                Ok(true) => {
                    finish_round(conn);
                    if conn.closing {
                        return Verdict::Close;
                    }
                    conn.deadline = Instant::now() + config.read_timeout;
                    if let Some(home) = migration_target(conn, shared, index) {
                        return Verdict::Migrate(home);
                    }
                }
                Ok(false) => return Verdict::Keep,
                Err(_) => return Verdict::Close,
            }
        }
        if conn.closing {
            return Verdict::Close;
        }
        // Read state: assemble the next request frame.
        match conn.reader.poll_frame(&mut conn.stream) {
            Ok(Some(req)) => {
                conn.deadline = Instant::now() + config.read_timeout;
                if config.batching_enabled()
                    && req.first() == Some(&(RequestTag::Decrypt as u8))
                    && conn.session.entry.is_some()
                {
                    // Park instead of executing inline. Wire receipt and
                    // the latency clock start now, exactly as the inline
                    // path would; the batch wait is part of the round.
                    conn.wire.frames_received += 1;
                    conn.wire.bytes_received += 4 + req.len() as u64;
                    conn.req_started = Some(Instant::now());
                    conn.parked = true;
                    batch.push(ParkedReq {
                        slab_key: key,
                        conn_id: conn.conn_id,
                        req,
                    });
                    return Verdict::Keep;
                }
                process_request(conn, &req, shared, keyring, config, rng);
                if !conn.writer.has_pending() && conn.closing {
                    return Verdict::Close;
                }
                // Loop: the write state above flushes the reply, then
                // reads the next (possibly pipelined) request.
            }
            Ok(None) => return Verdict::Keep,
            // Disconnect, oversized frame, or hard I/O failure all end
            // only this session.
            Err(_) => return Verdict::Close,
        }
    }
}

/// Drive a capacity-reject connection: flush the Busy reply, then linger
/// (write side shut, reads drained and discarded) until the peer closes
/// or the reject deadline sweeps it. Closing immediately after the flush
/// would race the peer's read — its unread request in our receive buffer
/// turns the close into an RST that can destroy the reply in flight.
fn drive_reject<E: Pairing>(conn: &mut Conn<E>) -> Verdict {
    if conn.writer.has_pending() {
        match conn.writer.poll_flush(&mut conn.stream) {
            Ok(true) => {
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            }
            Ok(false) => return Verdict::Keep,
            Err(_) => return Verdict::Close,
        }
    }
    let mut scratch = [0u8; 1024];
    loop {
        match io::Read::read(&mut conn.stream, &mut scratch) {
            Ok(0) => return Verdict::Close,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Close,
        }
    }
}

/// Account a fully flushed reply against the connection's wire stats.
fn finish_round<E: Pairing>(conn: &mut Conn<E>) {
    conn.wire.frames_sent += 1;
    conn.wire.bytes_sent += 4 + conn.pending_reply;
    if let Some(t0) = conn.req_started.take() {
        conn.wire.round_latency_ns.push(t0.elapsed().as_nanos() as u64);
    }
}

/// Decode/execute/encode one request frame: dispatch under a panic guard,
/// stage the reply, and attribute the request to its key's worker.
fn process_request<E: Pairing, R: rand::RngCore>(
    conn: &mut Conn<E>,
    req: &Bytes,
    shared: &Shared,
    keyring: &Keyring<E>,
    config: &ServerConfig,
    rng: &mut R,
) {
    conn.wire.frames_received += 1;
    conn.wire.bytes_received += 4 + req.len() as u64;
    conn.req_started = Some(Instant::now());

    let session = &mut conn.session;
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if let Some(tag) = config.inject_panic_tag {
            if req.first() == Some(&tag) {
                panic!("injected fault: request tag {tag:#x}");
            }
        }
        dispatch(req, session, keyring, &shared.stats, config, rng)
    }));
    match outcome {
        Err(payload) => {
            // The dispatcher panicked. If it held a generation lock,
            // unwinding released it poisoned and the next holder recovers
            // it (`lock_recover`). Close this session only — its
            // SlotGuard reclaims the slot on drop.
            shared.stats.record_panic(payload.as_ref());
            conn.closing = true;
        }
        Ok(None) => conn.closing = true, // session shutdown tag
        Ok(Some(reply)) => {
            conn.pending_reply = reply.len() as u64;
            if conn.writer.enqueue(&reply).is_err() {
                conn.closing = true;
                return;
            }
            conn.deadline = Instant::now() + config.write_timeout;
            let owner = conn.session.entry.as_ref().map(|e| shared.owner_of(e.id()));
            if let Some(owner) = owner {
                shared.count_served(conn, owner);
            }
        }
    }
}

struct Session<E: Pairing> {
    entry: Option<Arc<KeyEntry<E>>>,
    bound_generation: u64,
}

/// Handle one request frame; `None` ends the session (shutdown tag).
fn dispatch<E: Pairing, R: rand::RngCore>(
    req: &[u8],
    session: &mut Session<E>,
    keyring: &Keyring<E>,
    stats: &ServerStats,
    config: &ServerConfig,
    rng: &mut R,
) -> Option<Bytes> {
    let err = |stats: &ServerStats, code, detail: &str| {
        stats.error_replies.fetch_add(1, Ordering::Relaxed);
        Some(error_reply(code, detail))
    };

    let Some(&tag_byte) = req.first() else {
        return err(stats, ErrorCode::BadRequest, "empty frame");
    };
    match RequestTag::from_u8(tag_byte) {
        None => err(stats, ErrorCode::UnknownTag, "unknown request tag"),
        Some(RequestTag::Shutdown) => None,
        Some(RequestTag::Topology) => {
            // Resolved to at least a singleton at construction time.
            let Some(topology) = config.topology.as_ref() else {
                return err(stats, ErrorCode::Internal, "no topology configured");
            };
            stats.requests_topology.fetch_add(1, Ordering::Relaxed);
            Some(ok_reply(&topology.to_bytes()))
        }
        Some(RequestTag::Hello) => {
            let hello = match HelloMsg::from_bytes(&req[1..]) {
                Ok(h) => h,
                Err(e) => {
                    stats.error_replies.fetch_add(1, Ordering::Relaxed);
                    return Some(error_reply_for(&e));
                }
            };
            let Some(entry) = keyring.get(&hello.key_id) else {
                // Not in the local ring — if the fleet oracle knows the
                // owner, redirect the client there instead of failing.
                if let Some(owner) = config
                    .owner_hint
                    .as_ref()
                    .and_then(|h| h.lookup(&hello.key_id))
                {
                    stats.not_mine_replies.fetch_add(1, Ordering::Relaxed);
                    return Some(error_reply(ErrorCode::NotMine, &owner));
                }
                return err(
                    stats,
                    ErrorCode::UnknownKey,
                    &format!("no key \"{}\"", String::from_utf8_lossy(&hello.key_id)),
                );
            };
            let generation = entry.generation();
            if hello.generation != GENERATION_ANY && hello.generation != generation {
                return err(
                    stats,
                    ErrorCode::StaleGeneration,
                    &format!("server holds generation {generation}"),
                );
            }
            session.entry = Some(entry);
            session.bound_generation = generation;
            stats.requests_hello.fetch_add(1, Ordering::Relaxed);
            let mut enc = Encoder::new();
            enc.put_u64(generation);
            Some(ok_reply(&enc.finish()))
        }
        Some(tag @ (RequestTag::Decrypt | RequestTag::Refresh)) => {
            let Some(entry) = session.entry.as_ref() else {
                return err(stats, ErrorCode::UnknownKey, "no key bound to session");
            };
            let bound = session.bound_generation;
            // The generation lock: binding check, protocol step, and (for
            // refresh) persistence + generation bump are one critical
            // section — a decrypt can never interleave with a
            // half-committed refresh.
            let (reply, rebind) = entry.with_state(|state| {
                if state.generation != bound {
                    stats.error_replies.fetch_add(1, Ordering::Relaxed);
                    let detail = format!(
                        "session bound to generation {bound}, key at {}",
                        state.generation
                    );
                    return (error_reply(ErrorCode::StaleGeneration, &detail), None);
                }
                match p2_handle_frame(&mut state.p2, state.generation, req, rng) {
                    Ok((_, Some(body))) => {
                        if tag == RequestTag::Refresh {
                            let (generation, persisted) = KeyEntry::commit_refresh(state);
                            if persisted.is_err() {
                                stats.persist_failures.fetch_add(1, Ordering::Relaxed);
                            }
                            stats.requests_refresh.fetch_add(1, Ordering::Relaxed);
                            stats.refreshes.fetch_add(1, Ordering::Relaxed);
                            (ok_reply(&body), Some(generation))
                        } else {
                            stats.requests_decrypt.fetch_add(1, Ordering::Relaxed);
                            (ok_reply(&body), None)
                        }
                    }
                    Ok((_, None)) => {
                        // unreachable for Decrypt/Refresh, but keep the
                        // wire sane if it ever happens
                        stats.error_replies.fetch_add(1, Ordering::Relaxed);
                        (error_reply(ErrorCode::Internal, "no reply produced"), None)
                    }
                    Err(e) => {
                        stats.error_replies.fetch_add(1, Ordering::Relaxed);
                        (error_reply_for(&e), None)
                    }
                }
            });
            if let Some(generation) = rebind {
                // Refresh committed. Re-warm the key's fixed-base tables
                // *after* the generation lock is released — idempotent when
                // already warm, and never serialized against other
                // sessions' decrypts.
                entry.warm();
                session.bound_generation = generation;
            }
            Some(reply)
        }
    }
}

/// Execute one same-key group of parked decrypt requests: a single
/// generation-lock acquisition covers the per-request binding checks and
/// the batch respond ([`dlr_core::driver::p2_handle_decrypt_batch`]). Returns one reply per
/// request in group order.
///
/// Per-request semantics mirror [`dispatch`] exactly: a stale generation
/// binding earns [`ErrorCode::StaleGeneration`], a malformed body earns
/// its own parse error while siblings still get `ok` replies, and every
/// request bumps the same `requests_decrypt`/`error_replies` counters and
/// per-request `dec.p2.respond` span the inline path would.
fn batch_dispatch<E: Pairing>(
    entry: &KeyEntry<E>,
    group: &[ParkedReq],
    bounds: &[u64],
    stats: &ServerStats,
    config: &ServerConfig,
) -> Vec<Bytes> {
    // Fault injection mirrors the inline path: with batching on, a
    // decrypt-tagged inject panics here — inside batch execute — so the
    // recovery tests exercise the group teardown.
    if let Some(tag) = config.inject_panic_tag {
        if group.iter().any(|p| p.req.first() == Some(&tag)) {
            panic!("injected fault: request tag {tag:#x}");
        }
    }
    entry.with_state(|state| {
        let mut replies: Vec<Option<Bytes>> = (0..group.len()).map(|_| None).collect();
        let mut bodies: Vec<&[u8]> = Vec::with_capacity(group.len());
        let mut slots: Vec<usize> = Vec::with_capacity(group.len());
        for (i, (preq, bound)) in group.iter().zip(bounds).enumerate() {
            if state.generation != *bound {
                stats.error_replies.fetch_add(1, Ordering::Relaxed);
                let detail = format!(
                    "session bound to generation {bound}, key at {}",
                    state.generation
                );
                replies[i] = Some(error_reply(ErrorCode::StaleGeneration, &detail));
            } else {
                bodies.push(&preq.req[1..]);
                slots.push(i);
            }
        }
        for (slot, result) in slots
            .into_iter()
            .zip(p2_handle_decrypt_batch(&mut state.p2, &bodies))
        {
            replies[slot] = Some(match result {
                Ok(body) => {
                    stats.requests_decrypt.fetch_add(1, Ordering::Relaxed);
                    ok_reply(&body)
                }
                Err(e) => {
                    stats.error_replies.fetch_add(1, Ordering::Relaxed);
                    error_reply_for(&e)
                }
            });
        }
        replies
            .into_iter()
            .map(|r| r.expect("every grouped request answered"))
            .collect()
    })
}

use dlr_protocol::Encoder;

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_curve::Toy;

    /// Satellite regression: a waiter that panics while holding the kick
    /// mutex poisons it; `force_epoch` and the scheduler must recover
    /// instead of cascading the panic.
    #[test]
    fn scheduler_survives_poisoned_kick_lock() {
        let ring = Arc::new(Keyring::<Toy>::new());
        let server = Server::bind("127.0.0.1:0", ring, ServerConfig::default()).unwrap();
        let handle = server.handle();

        // Poison the kick mutex the way a panicking epoch coordinator
        // would: lock, then unwind.
        let poisoner = handle.clone();
        let t = std::thread::spawn(move || {
            let _guard = poisoner.shared.kick.lock().unwrap();
            panic!("poison the kick lock");
        });
        assert!(t.join().is_err());
        assert!(handle.shared.kick.is_poisoned());

        let runner = std::thread::spawn(move || server.run().unwrap());

        // force_epoch takes the poisoned lock; it must not panic, and the
        // scheduler (also locking it) must still fire the epoch.
        handle.force_epoch();
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.epoch() < 1 {
            assert!(
                Instant::now() < deadline,
                "scheduler never fired through the poisoned lock"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        handle.shutdown();
        let stats = runner.join().unwrap();
        assert_eq!(stats.epochs, 1);
    }

    #[test]
    fn config_resolution_defaults() {
        let config = ServerConfig::default();
        let workers = config.resolved_workers();
        assert!((1..=4).contains(&workers));
        let explicit = ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        };
        assert_eq!(explicit.resolved_workers(), 3);
    }
}
