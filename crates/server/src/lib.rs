#![warn(missing_docs)]
//! # dlr-server — concurrent key-share service for the DLR `P2` role
//!
//! Turns the `P2` party of the DLR two-party scheme (PODC'12, §4) into a
//! production-shaped network service:
//!
//! * [`keyring`] — key id → `(PublicKey, Party2)` registry with a per-key
//!   **generation lock** and atomic (temp-file + rename + directory
//!   fsync) share persistence;
//! * [`server`] — readiness event loops (vendored epoll/kqueue poller)
//!   driving nonblocking per-connection frame state machines across a
//!   fixed set of workers, each key owned by one of them
//!   ([`dlr_protocol::place`]), versioned hello/key-selection, structured error
//!   replies, an **epoch scheduler** marking leakage-period boundaries,
//!   periodic stats dumps, and graceful drain-persist-exit shutdown;
//! * [`loadgen`] — closed-loop multi-client load generator emitting
//!   throughput/latency reports through the `dlr-metrics` JSON schema.
//!
//! ## Why generations exist
//!
//! Refresh (§4.4) rotates *both* shares jointly: decrypting with `P1`'s
//! old share against `P2`'s new share silently yields garbage, not an
//! error. The server therefore binds every session to the key's refresh
//! **generation** (at accept or hello) and re-checks the binding under
//! the key's lock on every request, answering a lost race with
//! [`ErrorCode::StaleGeneration`](dlr_core::driver::ErrorCode) so the
//! client knows to re-sync instead of mis-decrypting.

pub mod keyring;
pub mod loadgen;
pub mod server;

pub use keyring::{persist_atomically, KeyEntry, KeyState, Keyring};
pub use loadgen::{
    run_loadgen, run_loadgen_ladder, FailureTally, LadderConfig, LadderRung, LoadgenConfig,
    LoadgenOutcome,
};
pub use server::{
    EpochHook, OwnerHint, Server, ServerConfig, ServerHandle, ServerStats, StatsSnapshot,
    WorkerSnapshot,
};
