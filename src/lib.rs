//! # dlr — distributed public key schemes secure against continual leakage
//!
//! A from-scratch Rust reproduction of *Akavia, Goldwasser, Hazay:
//! "Distributed Public Key Schemes Secure against Continual Leakage"*
//! (PODC 2012), including every substrate: a Type-1 pairing over a
//! supersingular curve, SHA-2/HMAC/HKDF and hash-based one-time
//! signatures, a two-party protocol runtime with an explicit public/secret
//! device-memory model, the continual-memory-leakage security game, and
//! the baseline schemes the paper compares against.
//!
//! This facade crate re-exports the workspace. Start with:
//!
//! * [`core::dlr`] — the DLR scheme (Construction 5.3);
//! * [`core::dibe`] / [`core::cca2`] — the DIBE and CCA2 extensions;
//! * [`core::storage`] — secure storage on leaky devices (§4.4);
//! * [`leakage::game`] — the Definition 3.2 security game, runnable;
//! * [`metrics`] — phase-level spans, group-operation counts and wire
//!   statistics for the protocols (see `crates/metrics/README.md`);
//! * [`server`] — the concurrent key-share service: keyring, epoch-driven
//!   refresh, durable shares, and the closed-loop load generator;
//! * [`cluster`] — the key-partitioned multi-replica fleet: supervisor,
//!   routed clients over the fleet topology, per-replica epoch coordination,
//!   and fault-injecting fleet load generation;
//! * the `examples/` directory for end-to-end scenarios.
//!
//! ```
//! use dlr::prelude::*;
//!
//! let mut rng = rand::thread_rng();
//! let params = SchemeParams::derive::<<Toy as Pairing>::Scalar>(16, 64);
//! let (pk, sk1, sk2) = dlr_scheme::keygen::<Toy, _>(params, &mut rng);
//! let mut p1 = dlr_scheme::Party1::new(pk.clone(), sk1);
//! let mut p2 = dlr_scheme::Party2::new(pk.clone(), sk2);
//! let m = <Toy as Pairing>::Gt::random(&mut rng);
//! let ct = dlr_scheme::encrypt(&pk, &m, &mut rng);
//! assert_eq!(dlr_scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut rng)?, m);
//! # Ok::<(), dlr::core::CoreError>(())
//! ```

pub use dlr_baselines as baselines;
pub use dlr_bls12 as bls12;
pub use dlr_cluster as cluster;
pub use dlr_core as core;
pub use dlr_curve as curve;
pub use dlr_hash as hash;
pub use dlr_leakage as leakage;
pub use dlr_math as math;
pub use dlr_metrics as metrics;
pub use dlr_protocol as protocol;
pub use dlr_server as server;

/// Convenient glob-import surface for examples and quick starts.
pub mod prelude {
    pub use dlr_core::dlr as dlr_scheme;
    pub use dlr_core::params::SchemeParams;
    pub use dlr_core::party::{AnyParty1, P1Layout};
    pub use dlr_core::CoreError;
    pub use dlr_curve::{Group, Pairing, Ss1024, Ss512, Ss768, Toy};
    pub use dlr_math::{FieldElement, PrimeField};
}
