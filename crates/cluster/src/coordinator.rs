//! Per-replica epoch coordination.
//!
//! The DLR security model (Def. 3.1) counts leakage per *leakage period*,
//! delimited by share refreshes. A naive fleet would refresh with a
//! fleet-wide pause — stop the world, rotate every key, resume. This
//! coordinator keeps epoch boundaries **replica-local**: kicking slot `s`
//! touches only replica `s`; every other replica keeps serving
//! decrypts with zero coordination. That is exactly the locality the
//! two-device model permits — refresh is a per-key (P1, P2) protocol, so
//! there is nothing to synchronise across keys that live on different
//! replicas.
//!
//! `force_epoch` on a replica is asynchronous (the server's scheduler
//! thread runs the hook); [`EpochCoordinator::kick_shard_sync`] adds a
//! bounded wait for the boundary to actually land, which tests use to
//! assert *other* replicas' epochs never move.

use crate::fleet::Fleet;
use dlr_curve::Pairing;
use std::io;
use std::time::{Duration, Instant};

/// Coordinates replica-local epoch boundaries across a [`Fleet`].
pub struct EpochCoordinator<'a, E: Pairing> {
    fleet: &'a Fleet<E>,
}

impl<'a, E: Pairing> EpochCoordinator<'a, E> {
    /// Wrap a fleet. The coordinator holds no state of its own — epochs
    /// live in each replica's scheduler.
    pub fn new(fleet: &'a Fleet<E>) -> Self {
        Self { fleet }
    }

    /// Trigger an epoch boundary on replica `slot` (modulo the replica
    /// count), and on no other. Asynchronous; returns the replica index.
    /// Errors if that replica is down.
    pub fn kick_shard(&self, slot: usize) -> io::Result<usize> {
        let replica = slot % self.fleet.replica_count().max(1);
        let handle = self.fleet.handle(replica).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotConnected,
                format!("replica {replica} is down"),
            )
        })?;
        handle.force_epoch();
        Ok(replica)
    }

    /// [`kick_shard`](Self::kick_shard), then wait (bounded by `timeout`)
    /// for the replica's epoch counter to advance past its value at call
    /// time. Returns `(replica, epoch_after)`.
    pub fn kick_shard_sync(&self, slot: usize, timeout: Duration) -> io::Result<(usize, u64)> {
        let replica = slot % self.fleet.replica_count().max(1);
        let before = self
            .epoch_of_replica(replica)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "replica is down"))?;
        self.kick_shard(replica)?;
        let deadline = Instant::now() + timeout;
        loop {
            match self.epoch_of_replica(replica) {
                Some(now) if now > before => return Ok((replica, now)),
                Some(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Some(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "epoch boundary did not land within timeout",
                    ))
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "replica went down while waiting for epoch",
                    ))
                }
            }
        }
    }

    /// Kick the replica owning `key_id`. Returns its index.
    pub fn kick_key(&self, key_id: &[u8]) -> io::Result<usize> {
        self.kick_shard(self.fleet.owner_of(key_id))
    }

    /// Current epoch counter of replica `index` (`None` if down).
    pub fn epoch_of_replica(&self, index: usize) -> Option<u64> {
        self.fleet.handle(index).map(|h| h.epoch())
    }

    /// Epoch counters for every replica seat (`None` for killed seats).
    pub fn epochs(&self) -> Vec<Option<u64>> {
        (0..self.fleet.replica_count())
            .map(|i| self.epoch_of_replica(i))
            .collect()
    }

    /// Sweep an epoch boundary across every *running* replica, staggered
    /// by `gap` so no two replicas refresh at the same instant — a rolling
    /// refresh wave rather than a fleet-wide pause. Returns the replicas
    /// kicked, in order.
    pub fn sweep_staggered(&self, gap: Duration) -> Vec<usize> {
        let mut kicked = Vec::new();
        for index in 0..self.fleet.replica_count() {
            let Some(handle) = self.fleet.handle(index) else {
                continue;
            };
            if !kicked.is_empty() {
                std::thread::sleep(gap);
            }
            handle.force_epoch();
            kicked.push(index);
        }
        kicked
    }
}
