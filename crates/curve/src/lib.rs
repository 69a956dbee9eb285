#![warn(missing_docs)]
//! # dlr-curve — symmetric (Type-1) pairing groups from scratch
//!
//! The bilinear-group substrate of the DLR workspace: a supersingular curve
//! `E : y² = x³ + x` over `F_p` (`p ≡ 3 mod 4`, embedding degree 2) with the
//! distortion-map-modified Tate pairing, giving exactly the symmetric map
//! `e : G × G → GT` that *Akavia–Goldwasser–Hazay (PODC'12)* assume from
//! their parameter generator `G(1^n)`.
//!
//! * [`traits`] — the [`Group`] / [`Pairing`] abstractions (multiplicative
//!   notation, matching the paper);
//! * [`params`] — parameter sets [`Toy`],
//!   [`Ss512`], [`Ss768`],
//!   [`Ss1024`], each of which *is* a [`Pairing`];
//! * [`curve`] — the source group [`G`] (Jacobian arithmetic,
//!   hash-to-curve, unknown-dlog sampling);
//! * [`fixedbase`] — [`FixedBase`]: precomputed comb tables for the
//!   fixed-base exponentiations of DLR encryption (`g^t`, `z^t`), plus the
//!   shareable lazy cell [`LazyFixedBase`];
//! * [`gt`] — the target group [`Gt`] `⊂ F_{p²}*`;
//! * [`pairing`] — one Miller walker (Jacobian coordinates, two batched
//!   inversions per chain) + final exponentiation, plus the batched
//!   [`pairing::pairing_product`] (chains replayed under a shared squaring
//!   chain, single final exponentiation) and the affine reference pairing;
//! * [`prepared`] — [`PreparedPoint`]: cache the Miller line coefficients
//!   of a fixed first argument and replay them per second argument (every
//!   pairing is a prepare followed by a replay);
//! * [`multiexp`] — the one exponentiation engine behind every `pow` and
//!   `product_of_powers`: signed-window Straus, Pippenger bucket windows
//!   past the planner's crossover;
//! * [`modgroup`] — tiny-order groups for exhaustive entropy experiments;
//! * [`counters`] — thread-local operation counts backing the efficiency
//!   experiments.
//!
//! ## Example
//!
//! ```
//! use dlr_curve::{Group, Pairing};
//! use dlr_curve::params::Toy;
//! use dlr_math::FieldElement;
//!
//! type G = <Toy as Pairing>::G1; // = G2 on this symmetric (Type-1) curve
//! let mut rng = rand::thread_rng();
//! let a = <Toy as Pairing>::Scalar::random(&mut rng);
//! // e(g^a, g) = e(g, g)^a
//! let lhs = Toy::pair(&G::generator().pow(&a), &G::generator());
//! assert_eq!(lhs, Toy::pair_generators().pow(&a));
//! ```

pub mod counters;
pub mod curve;
pub mod fixedbase;
pub mod gt;
pub mod modgroup;
pub mod multiexp;
pub mod pairing;
pub mod params;
pub mod prepared;
pub mod traits;
mod util;

pub use curve::G;
pub use fixedbase::{FixedBase, LazyFixedBase};
pub use gt::Gt;
pub use params::{ParamCaches, Ss1024, Ss512, Ss768, SsParams, Toy};
pub use prepared::{LazyPreparedBatch, PreparedPoint};
pub use traits::{Group, GroupKind, Pairing};
