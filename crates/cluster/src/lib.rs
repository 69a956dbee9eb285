#![warn(missing_docs)]
//! # dlr-cluster — key-sharded multi-replica `P2` fleet
//!
//! Scales the single [`dlr-server`](dlr_server) `P2` service horizontally:
//! a supervised fleet of N replicas partitions the key space with
//! [`dlr_protocol::place`] — the one key → owner function, which also
//! picks each key's worker inside a replica, so client routing and server
//! placement can never disagree.
//!
//! * [`fleet`] — supervisor: spawn / kill / restart replicas, durable
//!   share spool, per-replica keyrings restricted to owned keys, fleet
//!   [`TopologyMsg`](dlr_core::driver::TopologyMsg) served by every
//!   replica, `NotMine` owner hints for mis-routed hellos;
//! * [`coordinator`] — **per-replica** epoch refresh: a boundary kicked
//!   on one replica touches no other (no fleet-wide pause), plus a
//!   staggered rolling sweep;
//! * [`loadgen`] — routed closed-loop load generator (one
//!   [`Router`](dlr_core::driver::Router) per client) with per-replica
//!   latency percentiles, redirect/failover counters, a replica-count
//!   ladder, and mid-rung fault injection.
//!
//! ## Relation to the paper
//!
//! The PODC'12 scheme is a *two*-device protocol per key: `P1` holds one
//! share, `P2` the other, and refresh (§4.4) rotates one key's shares
//! jointly. Nothing couples different keys — which is exactly what makes
//! the fleet's replica-local epochs sound: a leakage-period boundary for
//! the keys on replica `i` neither waits on nor disturbs decryptions
//! against replica `j`. Def. 3.1's continual-leakage accounting stays
//! per key; the cluster only changes *where* each key's `P2` lives.

pub mod coordinator;
pub mod fleet;
pub mod loadgen;

pub use coordinator::EpochCoordinator;
pub use fleet::{share_path, Fleet, FleetConfig, FleetKey};
pub use loadgen::{
    run_fleet_ladder, run_fleet_loadgen, FleetFault, FleetKeyMaterial, FleetLadderConfig,
    FleetLadderKey, FleetLadderRung, FleetLoadgenConfig, FleetLoadgenOutcome,
};
