//! Fleet supervisor: spawn, monitor, kill and restart a set of
//! [`dlr_server::Server`] replicas, each owning a slice of the key ids.
//!
//! ## Ownership model
//!
//! A key's replica is the replica half of [`dlr_protocol::place`] — the
//! same function the router and every server's worker map use. Every
//! replica is constructed with
//!
//! * a keyring holding **only** the keys placed on it,
//! * the full fleet [`TopologyMsg`] (served on the `Topology` request),
//! * an [`OwnerHint`] oracle over that topology, so a hello for a key
//!   another replica owns is answered with `NotMine` + the owner's
//!   address instead of `UnknownKey`.
//!
//! ## Durability and restart
//!
//! Every key share is persisted (atomic temp + fsync + rename + directory
//! fsync) into the fleet's `data_dir` before its replica first serves it,
//! and re-persisted by the server on every committed refresh.
//! [`Fleet::restart_replica`] therefore rebuilds a killed replica's
//! keyring **from disk**, picking up whatever generation the share had
//! reached — the supervisor holds no share material of its own beyond
//! spawn time.

use dlr_core::dlr::{PublicKey, Share2};
use dlr_core::driver::{TopologyMsg, WIRE_VERSION};
use dlr_curve::Pairing;
use dlr_server::keyring::persist_atomically;
use dlr_server::{Keyring, OwnerHint, Server, ServerConfig, ServerHandle, StatsSnapshot};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of server replicas to spawn.
    pub replicas: usize,
    /// Directory holding the durable key shares (`<hex(id)>.share`).
    pub data_dir: PathBuf,
    /// Per-replica server template. Its `topology` and `owner_hint`
    /// fields are overwritten per replica by the supervisor.
    pub base: ServerConfig,
    /// Opt-in epoch sweep timer: every `interval`, roll a staggered epoch
    /// boundary across the running replicas (the timer-driven form of
    /// [`EpochCoordinator::sweep_staggered`](crate::EpochCoordinator::sweep_staggered)).
    /// `None` (the default) means epochs advance only when kicked
    /// explicitly. The stagger gap is `interval / (4 · replicas)`, so a
    /// whole wave lands within the first quarter of each window and no two
    /// replicas refresh at the same instant.
    pub epoch_sweep: Option<Duration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            data_dir: std::env::temp_dir().join("dlr-fleet"),
            base: ServerConfig::default(),
            epoch_sweep: None,
        }
    }
}

/// One key registered with the fleet: identity, public half, and the
/// durable share location its owning replica loads from.
pub struct FleetKey<E: Pairing> {
    /// Registry id (hello key id).
    pub id: Vec<u8>,
    /// Public key (never changes across refreshes).
    pub pk: PublicKey<E>,
    share_path: PathBuf,
}

/// A live replica incarnation: its control handle plus the thread running
/// [`Server::run`].
struct RunningReplica {
    handle: ServerHandle,
    thread: JoinHandle<io::Result<StatsSnapshot>>,
}

/// One replica seat: a fixed address that is either occupied by a running
/// server or empty (killed, awaiting restart).
struct ReplicaSeat {
    addr: SocketAddr,
    running: Option<RunningReplica>,
    /// Final stats of every previous incarnation, oldest first.
    retired: Vec<StatsSnapshot>,
}

/// The timer thread behind [`FleetConfig::epoch_sweep`]: wakes every
/// interval, snapshots the handle mirror, and kicks a staggered epoch
/// wave across whatever replicas are up at that moment. Kill/restart
/// churn is safe because the sweeper only ever sees the mirror the
/// supervisor maintains — it never touches `Fleet` itself.
struct Sweeper {
    stop: Arc<AtomicBool>,
    sweeps: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl Sweeper {
    /// Sleep granularity: how quickly the timer notices a stop request
    /// (both between sweeps and inside a stagger gap).
    const TICK: Duration = Duration::from_millis(2);

    fn start(interval: Duration, handles: Arc<Mutex<Vec<Option<ServerHandle>>>>) -> io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let sweeps = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = Arc::clone(&stop);
            let sweeps = Arc::clone(&sweeps);
            std::thread::Builder::new()
                .name("dlr-fleet-epoch-sweep".into())
                .spawn(move || {
                    let mut next = Instant::now() + interval;
                    while !Self::wait_until(&stop, next) {
                        let snapshot: Vec<ServerHandle> = handles
                            .lock()
                            .map(|h| h.iter().flatten().cloned().collect())
                            .unwrap_or_default();
                        let gap = interval / (4 * snapshot.len().max(1) as u32);
                        for (i, handle) in snapshot.iter().enumerate() {
                            if i > 0 && Self::wait_until(&stop, Instant::now() + gap) {
                                return;
                            }
                            handle.force_epoch();
                        }
                        sweeps.fetch_add(1, Ordering::Relaxed);
                        next = Instant::now() + interval;
                    }
                })?
        };
        Ok(Self {
            stop,
            sweeps,
            thread: Some(thread),
        })
    }

    /// Sleep until `deadline` in stop-aware slices; `true` = stop requested.
    fn wait_until(stop: &AtomicBool, deadline: Instant) -> bool {
        loop {
            if stop.load(Ordering::Relaxed) {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            std::thread::sleep(left.min(Self::TICK));
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Sweeper {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A supervised fleet of N `dlr-server` replicas sharing one key placement.
pub struct Fleet<E: Pairing> {
    config: FleetConfig,
    topology: TopologyMsg,
    keys: Vec<FleetKey<E>>,
    seats: Vec<ReplicaSeat>,
    /// Mirror of each seat's control handle for the sweeper thread,
    /// updated on spawn/kill/restart (`None` = seat down).
    handles: Arc<Mutex<Vec<Option<ServerHandle>>>>,
    sweeper: Option<Sweeper>,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn invalid_data<Err: std::fmt::Display>(e: Err) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl<E: Pairing> Fleet<E> {
    /// Spawn the fleet: bind every replica's listener, persist each key's
    /// share under `data_dir`, and start one server thread per replica
    /// with the keys placed on it.
    pub fn spawn(
        config: FleetConfig,
        keys: Vec<(Vec<u8>, PublicKey<E>, Share2<E>)>,
    ) -> io::Result<Self> {
        let replicas = config.replicas.max(1);
        std::fs::create_dir_all(&config.data_dir)?;

        // Bind all listeners before starting any server, so the topology
        // handed to every replica names the whole fleet's final addresses.
        let listeners: Vec<TcpListener> = (0..replicas)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<_>>()?;
        let topology = TopologyMsg {
            version: WIRE_VERSION,
            replicas: addrs.iter().map(SocketAddr::to_string).collect(),
        };

        let mut fleet_keys = Vec::with_capacity(keys.len());
        for (id, pk, share) in keys {
            let share_path = config.data_dir.join(format!("{}.share", hex(&id)));
            persist_atomically(&share_path, &share.to_bytes())?;
            fleet_keys.push(FleetKey { id, pk, share_path });
        }

        let mut fleet = Self {
            config,
            topology,
            keys: fleet_keys,
            seats: addrs
                .into_iter()
                .map(|addr| ReplicaSeat {
                    addr,
                    running: None,
                    retired: Vec::new(),
                })
                .collect(),
            handles: Arc::new(Mutex::new(vec![None; replicas])),
            sweeper: None,
        };
        for (index, listener) in listeners.into_iter().enumerate() {
            let running = fleet.start_replica(index, listener)?;
            fleet.mirror_handle(index, Some(running.handle.clone()));
            fleet.seats[index].running = Some(running);
        }
        if let Some(interval) = fleet.config.epoch_sweep {
            fleet.sweeper = Some(Sweeper::start(interval, Arc::clone(&fleet.handles))?);
        }
        Ok(fleet)
    }

    /// Keep the sweeper's view of seat `index` in step with the seat.
    fn mirror_handle(&self, index: usize, handle: Option<ServerHandle>) {
        if let Ok(mut handles) = self.handles.lock() {
            handles[index] = handle;
        }
    }

    /// Build and launch one replica on an already-bound listener.
    fn start_replica(&self, index: usize, listener: TcpListener) -> io::Result<RunningReplica> {
        let mut ring = Keyring::new();
        for key in &self.keys {
            if self.owner_of(&key.id) != index {
                continue;
            }
            // Load from disk even on first spawn: the restart path and
            // the spawn path must be the same code, or restart rot sets in.
            let bytes = std::fs::read(&key.share_path)?;
            let share = Share2::<E>::from_bytes(&bytes, &key.pk.params).map_err(invalid_data)?;
            ring.insert_persistent(&key.id, key.pk.clone(), share, key.share_path.clone());
        }

        let mut config = self.config.base.clone();
        config.topology = Some(self.topology.clone());
        let topology = self.topology.clone();
        config.owner_hint = Some(OwnerHint(Arc::new(move |id: &[u8]| {
            match topology.owner_index(id)? {
                // Ours but unregistered: a true UnknownKey.
                owner if owner == index => None,
                owner => Some(topology.replicas[owner].clone()),
            }
        })));

        listener.set_nonblocking(false)?;
        let server = Server::new(listener, Arc::new(ring), config)?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name(format!("dlr-fleet-replica-{index}"))
            .spawn(move || server.run())?;
        Ok(RunningReplica { handle, thread })
    }

    /// The fleet topology (shared verbatim with every replica).
    pub fn topology(&self) -> &TopologyMsg {
        &self.topology
    }

    /// Number of replica seats (running or not).
    pub fn replica_count(&self) -> usize {
        self.seats.len()
    }

    /// The fixed address of replica `index`.
    pub fn addr(&self, index: usize) -> SocketAddr {
        self.seats[index].addr
    }

    /// The replica index owning `key_id` ([`dlr_protocol::place`]).
    pub fn owner_of(&self, key_id: &[u8]) -> usize {
        dlr_protocol::place(key_id, self.seats.len(), 1).0
    }

    /// Whether replica `index` currently has a running server.
    pub fn is_up(&self, index: usize) -> bool {
        self.seats[index].running.is_some()
    }

    /// Control handle of replica `index`, if it is running.
    pub fn handle(&self, index: usize) -> Option<&ServerHandle> {
        self.seats[index].running.as_ref().map(|r| &r.handle)
    }

    /// Keys registered with the fleet.
    pub fn keys(&self) -> &[FleetKey<E>] {
        &self.keys
    }

    /// Live stats snapshot per replica (`None` for killed seats).
    pub fn stats(&self) -> Vec<Option<StatsSnapshot>> {
        self.seats
            .iter()
            .map(|seat| seat.running.as_ref().map(|r| r.handle.stats()))
            .collect()
    }

    /// Final stats of replica `index`'s previous incarnations.
    pub fn retired_stats(&self, index: usize) -> &[StatsSnapshot] {
        &self.seats[index].retired
    }

    /// Kill replica `index`: shut its server down (open connections are
    /// closed, shares persisted) and reap the thread. The seat keeps its
    /// address so [`restart_replica`](Self::restart_replica) comes back
    /// exactly where the topology says. No-op if already down.
    pub fn kill_replica(&mut self, index: usize) -> io::Result<Option<StatsSnapshot>> {
        let Some(running) = self.seats[index].running.take() else {
            return Ok(None);
        };
        // Unmirror first so a concurrent sweep never kicks a dying server.
        self.mirror_handle(index, None);
        running.handle.shutdown();
        let stats = running
            .thread
            .join()
            .map_err(|_| io::Error::other("replica thread panicked"))??;
        self.seats[index].retired.push(stats.clone());
        Ok(Some(stats))
    }

    /// Restart a killed replica on its original address, rebuilding its
    /// keyring from the durable shares (whatever generation they reached).
    /// No-op if the replica is already running.
    pub fn restart_replica(&mut self, index: usize) -> io::Result<()> {
        if self.seats[index].running.is_some() {
            return Ok(());
        }
        let listener = TcpListener::bind(self.seats[index].addr)?;
        let running = self.start_replica(index, listener)?;
        self.mirror_handle(index, Some(running.handle.clone()));
        self.seats[index].running = Some(running);
        Ok(())
    }

    /// Number of complete staggered sweep waves the epoch-sweep timer has
    /// finished so far (`0` when [`FleetConfig::epoch_sweep`] is off).
    pub fn epoch_sweeps(&self) -> u64 {
        self.sweeper
            .as_ref()
            .map_or(0, |s| s.sweeps.load(Ordering::Relaxed))
    }

    /// Whether the epoch-sweep timer is running.
    pub fn sweeper_running(&self) -> bool {
        self.sweeper.is_some()
    }

    /// Shut the whole fleet down, returning every replica's stats history
    /// (previous incarnations followed by the final one), indexed by
    /// replica.
    pub fn shutdown(mut self) -> io::Result<Vec<Vec<StatsSnapshot>>> {
        // Stop the sweep timer before tearing replicas down so no epoch
        // kick races the shutdown sequence (Drop would also stop it, but
        // only after the replicas are gone).
        if let Some(mut sweeper) = self.sweeper.take() {
            sweeper.stop_and_join();
        }
        let mut all = Vec::with_capacity(self.seats.len());
        for index in 0..self.seats.len() {
            self.kill_replica(index)?;
            all.push(std::mem::take(&mut self.seats[index].retired));
        }
        Ok(all)
    }
}

/// The durable share path the fleet uses for `id` under `data_dir` —
/// exposed so tests and tools can inspect the spool.
pub fn share_path(data_dir: &Path, id: &[u8]) -> PathBuf {
    data_dir.join(format!("{}.share", hex(id)))
}
