//! Abstract group and pairing interfaces.
//!
//! The paper writes all groups **multiplicatively** (`g^a`, `∏ aᵢ^{sᵢ}`);
//! these traits keep that notation so the scheme code in `dlr-core` reads
//! like Construction 5.3. The elliptic-curve source group implements the
//! operation as point addition; the target group as `F_{p²}` multiplication.
//!
//! # Instrumentation
//!
//! The public entry points [`Group::op`], [`Group::pow`] and
//! [`Group::product_of_powers`] bump the thread-local counters in
//! [`crate::counters`] (one "exponentiation" per base of a
//! multi-exponentiation); the internal `raw_*` methods do not. The bench
//! harness uses the counters to reproduce the paper's operation-count
//! comparisons (footnote 3, device work split of §1.1).

use crate::counters;
use crate::multiexp::OpCosts;
use core::fmt::Debug;
use core::hash::Hash;
use dlr_math::PrimeField;
use rand::RngCore;

/// Which counter family a group's operations are recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// The pairing source group `G`.
    Source,
    /// The pairing target group `GT`.
    Target,
    /// A standalone group (mini experiment groups); counted as source.
    Plain,
}

/// A prime-order cyclic group, written multiplicatively.
pub trait Group:
    Sized + Copy + Clone + Debug + PartialEq + Eq + Hash + Send + Sync + Default + 'static
{
    /// The scalar field `Z_p` of the paper (prime group order).
    type Scalar: PrimeField;
    /// Human-readable name used in instrumentation output.
    const NAME: &'static str;
    /// Counter family for instrumentation.
    const KIND: GroupKind;
    /// Relative costs of this group's operations, which the exponentiation
    /// planner ([`crate::multiexp::plan`]) weighs. Default: unit costs.
    const OP_COSTS: OpCosts = OpCosts::UNIT;

    /// The neutral element.
    fn identity() -> Self;
    /// A fixed generator.
    fn generator() -> Self;
    /// Group operation without instrumentation (implementation hook).
    #[doc(hidden)]
    fn raw_op(&self, rhs: &Self) -> Self;
    /// Squaring/doubling without instrumentation. Implementations with a
    /// cheaper dedicated formula should override.
    #[doc(hidden)]
    fn raw_double(&self) -> Self {
        self.raw_op(self)
    }
    /// The inverse element (`a^{-1}`).
    fn inverse(&self) -> Self;
    /// Rewrite a batch in place into the representation that serialization
    /// and the pairing evaluation slot consume directly, sharing the cost
    /// across the batch. Never changes which elements the slice holds;
    /// worth calling on elements that are kept and re-read (the per-period
    /// `f` ciphertexts of `dlr-core`). The exponentiation engine also runs
    /// it once on each window table, so a group whose operation is cheaper
    /// against a normalized operand gets that discount on every table
    /// operation. Default: elements are already canonical, nothing to do.
    fn batch_normalize(_points: &mut [Self]) {}
    /// Sample a uniformly random element **without a known discrete
    /// logarithm** (the §5.2 remark requires sampling group elements
    /// directly so their dlogs never exist in any device's memory).
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
    /// Serialize to canonical bytes (fixed length [`Self::byte_len`]).
    fn to_bytes(&self) -> Vec<u8>;
    /// Parse canonical bytes. Validates well-formedness (e.g. the point is
    /// on the curve); full prime-order-subgroup membership is checked by
    /// [`Self::is_in_subgroup`] — see the honest-but-leaky device model
    /// discussion in `dlr-protocol`.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;
    /// Serialized length in bytes.
    fn byte_len() -> usize;
    /// Full membership test in the prime-order subgroup.
    fn is_in_subgroup(&self) -> bool;

    /// The group operation (`a·b` in paper notation).
    fn op(&self, rhs: &Self) -> Self {
        match Self::KIND {
            GroupKind::Target => counters::count_gt_op(),
            _ => counters::count_g_op(),
        }
        self.raw_op(rhs)
    }

    /// True iff this is the neutral element.
    fn is_identity(&self) -> bool {
        *self == Self::identity()
    }

    /// Exponentiation by a scalar (`a^s`), variable time.
    fn pow(&self, exp: &Self::Scalar) -> Self {
        match Self::KIND {
            GroupKind::Target => counters::count_gt_pow(),
            _ => counters::count_g_pow(),
        }
        let limbs = exp.to_canonical_limbs();
        self.pow_vartime_limbs(&limbs)
    }

    /// Exponentiation by a little-endian limb slice (uninstrumented; used
    /// internally for subgroup checks and as the engine behind
    /// [`Self::pow`]): the one exponentiation engine
    /// ([`crate::multiexp::product`]) with a single base. Correct for
    /// **arbitrary** slices, including values at or above the group order
    /// (the subgroup check exponentiates by `r` itself).
    fn pow_vartime_limbs(&self, exp: &[u64]) -> Self {
        crate::multiexp::product(&[*self], &[exp])
    }

    /// `generator()^exp` — the fixed-base half of DLR encryption
    /// (`g^t` of `Enc_pk(m) = (g^t, m·z^t)`). Backends override this with
    /// cached precomputed comb tables ([`crate::fixedbase::FixedBase`]);
    /// the returned element and the counter bump are identical to
    /// `Self::generator().pow(exp)` by construction, so instrumentation
    /// cannot tell the paths apart.
    fn generator_pow(exp: &Self::Scalar) -> Self {
        Self::generator().pow(exp)
    }

    /// Build any process-wide fixed-base tables behind
    /// [`Self::generator_pow`] now instead of on first use — servers call
    /// this off the hot path (outside generation locks) so steady-state
    /// traffic never pays precompute. Default: nothing to build.
    fn warm_generator_tables() {}

    /// Exponentiation with an **operation-schedule independent of the
    /// exponent bits**: a Montgomery ladder over the full scalar bit
    /// length, performing exactly one `raw_op` and one `raw_double` per
    /// bit. This removes the operation-count/timing channel of
    /// [`Self::pow`]; residual leakage through branch prediction and
    /// memory placement remains (no constant-time swap — documented
    /// best-effort, consistent with the paper's memory-leakage model).
    fn pow_ladder(&self, exp: &Self::Scalar) -> Self {
        match Self::KIND {
            GroupKind::Target => counters::count_gt_pow(),
            _ => counters::count_g_pow(),
        }
        let limbs = exp.to_canonical_limbs();
        let nbits = Self::Scalar::modulus_bits();
        let mut r0 = Self::identity();
        let mut r1 = *self;
        let mut i = nbits;
        while i > 0 {
            i -= 1;
            let bit = (limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1;
            if bit {
                r0 = r0.raw_op(&r1);
                r1 = r1.raw_double();
            } else {
                r1 = r0.raw_op(&r1);
                r0 = r0.raw_double();
            }
        }
        r0
    }

    /// `a / b = a · b^{-1}`.
    fn div(&self, rhs: &Self) -> Self {
        self.op(&rhs.inverse())
    }

    /// Exponentiation by a small integer.
    fn pow_u64(&self, e: u64) -> Self {
        self.pow(&Self::Scalar::from_u64(e))
    }

    /// `∏ basesᵢ^{expsᵢ}` — multi-exponentiation through the one engine
    /// (see [`crate::multiexp`]): signed-window Straus, or Pippenger bucket
    /// windows for wide batches, planned from [`Self::OP_COSTS`]. Counted
    /// as `bases.len()` exponentiations.
    ///
    /// # Panics
    ///
    /// Panics if `bases` and `exps` have different lengths.
    fn product_of_powers(bases: &[Self], exps: &[Self::Scalar]) -> Self {
        assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
        for _ in 0..bases.len() {
            match Self::KIND {
                GroupKind::Target => counters::count_gt_pow(),
                _ => counters::count_g_pow(),
            }
        }
        let limbs: Vec<Vec<u64>> = exps.iter().map(|e| e.to_canonical_limbs()).collect();
        crate::multiexp::product(bases, &limbs)
    }
}

/// A bilinear map `e : G1 × G2 → GT` between prime-order groups sharing a
/// scalar field.
///
/// The paper's parameter generator `G(1^n)` outputs a **symmetric**
/// (Type-1) map — instantiated here by the supersingular parameter sets,
/// where `G1 = G2`. The trait is stated asymmetrically so the same scheme
/// code also runs over Type-3 curves (BLS12-381 in `dlr-bls12`), with the
/// scheme's role assignment: ciphertext components in `G1`, key-share
/// components in `G2`.
pub trait Pairing: Sized + Send + Sync + 'static {
    /// Common scalar field (`Z_p` in the paper).
    type Scalar: PrimeField;
    /// First pairing slot (ciphertext side).
    type G1: Group<Scalar = Self::Scalar>;
    /// Second pairing slot (key side; equals `G1` for Type-1 curves).
    type G2: Group<Scalar = Self::Scalar>;
    /// Target group `GT`, generated by `e(g, h)`.
    type Gt: Group<Scalar = Self::Scalar>;
    /// Parameter-set name (e.g. `"SS512"`).
    const NAME: &'static str;

    /// A first pairing argument with reusable precomputation attached
    /// (cached Miller line coefficients for the supersingular backend).
    /// Backends without a prepared form use `G1` itself.
    type Prepared: Clone + Send + Sync + 'static;

    /// The bilinear map. Bilinearity: `e(u^a, v^b) = e(u, v)^{ab}`;
    /// non-degeneracy: `e(g, h)` generates `GT` for generators `g, h`.
    fn pair(p: &Self::G1, q: &Self::G2) -> Self::Gt;

    /// `e(g, h)` for the fixed generators (cached by implementations).
    fn pair_generators() -> Self::Gt {
        Self::pair(&Self::G1::generator(), &Self::G2::generator())
    }

    /// Precompute the reusable part of pairings with fixed first slot `p`.
    /// Not itself a pairing: bumps no counter.
    fn prepare(p: &Self::G1) -> Self::Prepared;

    /// `e(p, q)` where `p` was [`prepare`](Self::prepare)d. Must equal
    /// [`pair`](Self::pair) exactly (same value, one `pairings` count).
    fn pair_prepared(prep: &Self::Prepared, q: &Self::G2) -> Self::Gt;

    /// `[e(p, q) for q in qs]` sharing `p`'s precomputation. Counts one
    /// pairing per element of `qs`; backends may batch the final
    /// exponentiations — the results and op counts never change.
    fn multi_pair_prepared(prep: &Self::Prepared, qs: &[Self::G2]) -> Vec<Self::Gt> {
        qs.iter().map(|q| Self::pair_prepared(prep, q)).collect()
    }

    /// `[e(p, q) for q in qs]` — prepare `p` once, then evaluate.
    fn multi_pair(p: &Self::G1, qs: &[Self::G2]) -> Vec<Self::Gt> {
        Self::multi_pair_prepared(&Self::prepare(p), qs)
    }

    /// A **second**-slot pairing argument with reusable precomputation
    /// attached — the per-key fixed arguments (key-share coordinates) live
    /// in this slot, so their preparations are cached across requests while
    /// the ciphertext side stays fresh. Backends without a prepared form
    /// use `G2` itself.
    type PreparedQ: Clone + Send + Sync + 'static;

    /// Precompute the reusable part of pairings with fixed **second** slot
    /// `q`. Not itself a pairing: bumps no counter.
    fn prepare_q(q: &Self::G2) -> Self::PreparedQ;

    /// `e(p, q)` where `q` was [`prepare_q`](Self::prepare_q)'d. Must equal
    /// [`pair`](Self::pair) exactly (same value, one `pairings` count).
    fn pair_prepared_q(p: &Self::G1, prep: &Self::PreparedQ) -> Self::Gt;

    /// `[e(p, q) for q in preps]` sharing `p` across many prepared second
    /// slots. Counts one pairing per element; backends may batch the final
    /// exponentiations.
    fn multi_pair_prepared_q(p: &Self::G1, preps: &[Self::PreparedQ]) -> Vec<Self::Gt> {
        preps
            .iter()
            .map(|prep| Self::pair_prepared_q(p, prep))
            .collect()
    }

    /// `∏ e(pᵢ, qᵢ)`. Counts one pairing per constituent and **no** target
    /// group multiplications — backends share the Miller squaring chain and
    /// apply a single final exponentiation, so the combining multiplies are
    /// an artefact of the algorithm, not protocol-level `GT` work. The
    /// default implementation folds [`pair`](Self::pair) with the
    /// uninstrumented group op to keep those semantics.
    fn pairing_product(pairs: &[(Self::G1, Self::G2)]) -> Self::Gt {
        pairs.iter().fold(Self::Gt::identity(), |acc, (p, q)| {
            acc.raw_op(&Self::pair(p, q))
        })
    }
}
