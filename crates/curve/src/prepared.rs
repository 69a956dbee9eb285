//! Prepared pairings: amortise the Miller chain of a fixed first argument.
//!
//! On the decryption hot path of the DLR scheme (Πss / HPSKE `dec_start`),
//! the ciphertext component `A = g^a` is paired against `κ+1` key
//! coordinates *per ℓ-element ciphertext vector* — every one of those
//! pairings would re-walk the identical doubling/addition chain of `A`. A
//! [`PreparedPoint`] walks the chain **once** (via the one Miller walker,
//! [`miller_chain`](crate::pairing), in Jacobian coordinates with two
//! batched inversions for the whole chain) and caches the per-step line
//! coefficients `(λ, θ)`; each evaluation against a second argument `Q`
//! replays the cached ops, costing one `F_p` multiplication plus the
//! `F_{p²}` accumulator update per line and no inversion.
//!
//! Every SS pairing is a prepare followed by a replay:
//! [`tate_pairing`](crate::pairing::tate_pairing) is
//! `PreparedPoint::prepare(p).pair(q)`, so a prepared evaluation equals the
//! direct pairing for **any** `Q`, including the identity and points
//! outside the order-`r` subgroup.
//!
//! [`PreparedPoint::multi_pairing`] and [`multi_pairing_many`] additionally
//! batch the final exponentiations (one shared `F_p` inversion via
//! Montgomery's trick).
//!
//! ## Counter semantics
//!
//! Preparation itself is *not* a pairing and bumps no counter; every
//! evaluation against a `Q` bumps `pairings` by one, so op reports are
//! identical whether a call site uses `tate_pairing`, [`PreparedPoint::pair`]
//! or [`PreparedPoint::multi_pairing`].

use crate::counters;
use crate::curve::G;
use crate::gt::Gt;
use crate::pairing::{batch_final_exponentiation, final_exponentiation, miller_chain, Affine, MillerOp};
use crate::params::SsParams;
use crate::traits::Group;
use dlr_math::{FieldElement, Fp2};

/// A first pairing argument with its Miller chain walked and cached.
///
/// Cheap to clone (one `Vec` of `F_p` pairs) and `Send + Sync`, so a single
/// preparation can be shared across threads.
#[derive(Clone, Debug)]
pub struct PreparedPoint<P: SsParams> {
    /// The cached accumulator ops, in chain order. Empty exactly for the
    /// point at infinity (every other chain has one `Square` per bit of
    /// `r`), against which every pairing is trivial.
    ops: Vec<MillerOp<P::Fp>>,
}

impl<P: SsParams> PreparedPoint<P> {
    /// Walk the Miller chain of `p` once and cache its line coefficients.
    ///
    /// The chain advances in Jacobian coordinates and pays **two** field
    /// inversions total, emitting the same `(λ, θ)` sequence as the affine
    /// reference walker for every point, in the subgroup or not. Performs
    /// no `F_{p²}` accumulator work and bumps no counter — the pairing
    /// count is charged per evaluation, not per preparation.
    pub fn prepare(p: &G<P>) -> Self {
        let ops = match p.to_affine() {
            Some((x, y)) => miller_chain::<P>(Affine { x, y }),
            None => Vec::new(),
        };
        PreparedPoint { ops }
    }

    /// Replay the cached chain against `(x_q, y_q)`, returning the raw
    /// Miller value (zero only for out-of-subgroup `q`).
    pub(crate) fn miller_eval(&self, xq: &P::Fp, yq: &P::Fp) -> Fp2<P::Fp> {
        let mut f = Fp2::<P::Fp>::one();
        for op in &self.ops {
            op.apply(&mut f, xq, yq);
        }
        f
    }

    /// The chain's line ops grouped by bit of `r`, top bit first. Every
    /// chain emits exactly one `Square` per bit, then that bit's lines, so
    /// the chains of different points line up segment for segment; that
    /// is how [`pairing_product`](crate::pairing::pairing_product) replays
    /// them in lockstep under one shared squaring per bit.
    pub(crate) fn lines_per_bit(&self) -> impl Iterator<Item = &[MillerOp<P::Fp>]> {
        self.ops.split(|op| *op == MillerOp::Square).skip(1)
    }

    /// Raw Miller value for `q`, with the zero sentinel for identity slots
    /// (mapped to the identity by
    /// [`crate::pairing::batch_final_exponentiation`]). Bumps `pairings`.
    fn miller_or_sentinel(&self, q: &G<P>) -> Fp2<P::Fp> {
        counters::count_pairing();
        match q.to_affine() {
            Some((xq, yq)) if !self.ops.is_empty() => self.miller_eval(&xq, &yq),
            _ => Fp2::zero(),
        }
    }

    /// `ê(P, q)` via the cached chain.
    pub fn pair(&self, q: &G<P>) -> Gt<P> {
        let f = self.miller_or_sentinel(q);
        if f.is_zero() {
            return Gt::identity();
        }
        final_exponentiation::<P>(f)
    }

    /// `[ê(P, q) for q in qs]` with one cached Miller chain and batched
    /// final exponentiation. Bumps `pairings` once per element of `qs`.
    pub fn multi_pairing(&self, qs: &[G<P>]) -> Vec<Gt<P>> {
        pair_batch(qs.iter().map(|q| (self, q)))
    }
}

/// Evaluate each `(chain, q)` job and map the Miller values into `GT`
/// under one batched final exponentiation. Bumps `pairings` once per job.
fn pair_batch<'a, P: SsParams>(
    jobs: impl Iterator<Item = (&'a PreparedPoint<P>, &'a G<P>)>,
) -> Vec<Gt<P>> {
    let millers: Vec<Fp2<P::Fp>> = jobs.map(|(prep, q)| prep.miller_or_sentinel(q)).collect();
    batch_final_exponentiation::<P>(&millers)
}

/// An `Arc`-shared, lazily-built batch of prepared second-slot pairing
/// arguments — the per-key cache pattern of
/// [`LazyFixedBase`](crate::fixedbase::LazyFixedBase) applied to Miller
/// chains: cheap to clone (all clones share one cell), built at most once,
/// warmed explicitly at key load / after refresh rather than on the first
/// decrypt. Dropping the cache and replacing it with a fresh one is the
/// invalidation path (a `OnceLock` cannot be cleared in place).
///
/// Like the comb-table caches, this carries no semantic state: clones
/// compare equal regardless of warmth and hash to nothing.
pub struct LazyPreparedBatch<E: crate::traits::Pairing> {
    cell: std::sync::Arc<std::sync::OnceLock<Vec<E::PreparedQ>>>,
}

impl<E: crate::traits::Pairing> LazyPreparedBatch<E> {
    /// A cold cache.
    pub fn new() -> Self {
        Self {
            cell: std::sync::Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// The prepared chains for `points`, building them on first use (all
    /// clones then share the result). Preparation bumps no counter.
    pub fn get(&self, points: &[E::G2]) -> &[E::PreparedQ] {
        self.cell
            .get_or_init(|| points.iter().map(E::prepare_q).collect())
    }

    /// Build the cache now (e.g. at key load or right after a refresh
    /// commits) so no decrypt pays the Miller-chain walks.
    pub fn warm(&self, points: &[E::G2]) {
        let _ = self.get(points);
    }

    /// True once the chains are built.
    pub fn is_warm(&self) -> bool {
        self.cell.get().is_some()
    }
}

impl<E: crate::traits::Pairing> Default for LazyPreparedBatch<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: crate::traits::Pairing> Clone for LazyPreparedBatch<E> {
    fn clone(&self) -> Self {
        Self {
            cell: std::sync::Arc::clone(&self.cell),
        }
    }
}

impl<E: crate::traits::Pairing> core::fmt::Debug for LazyPreparedBatch<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "LazyPreparedBatch({})",
            if self.is_warm() { "warm" } else { "cold" }
        )
    }
}

impl<E: crate::traits::Pairing> PartialEq for LazyPreparedBatch<E> {
    fn eq(&self, _other: &Self) -> bool {
        true // caches carry no semantic state
    }
}
impl<E: crate::traits::Pairing> Eq for LazyPreparedBatch<E> {}
impl<E: crate::traits::Pairing> core::hash::Hash for LazyPreparedBatch<E> {
    fn hash<H: core::hash::Hasher>(&self, _state: &mut H) {}
}

/// `[ê(P_k, q) for each cached chain]`: many **prepared** first arguments
/// against one shared second argument, with batched final exponentiation
/// as in [`PreparedPoint::multi_pairing`]. This is the steady-state shape of the
/// prepared-key cache: the per-key fixed points are prepared once and the
/// fresh ciphertext component slots in as `q` (by pairing symmetry on the
/// Type-1 map). Bumps `pairings` once per cached chain.
pub fn multi_pairing_many<P: SsParams>(preps: &[PreparedPoint<P>], q: &G<P>) -> Vec<Gt<P>> {
    pair_batch(preps.iter().map(|prep| (prep, q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::tate_pairing_reference;
    use crate::traits::Pairing;
    use crate::params::{Ss512, Toy};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn prepared_matches_reference_toy() {
        let mut r = rng();
        for _ in 0..8 {
            let p = G::<Toy>::random(&mut r);
            let q = G::<Toy>::random(&mut r);
            let prep = PreparedPoint::<Toy>::prepare(&p);
            assert_eq!(prep.pair(&q), tate_pairing_reference::<Toy>(&p, &q));
        }
    }

    #[test]
    fn prepared_identity_slots() {
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let id = G::<Toy>::identity();
        assert!(PreparedPoint::<Toy>::prepare(&p).pair(&id).is_identity());
        let prep_id = PreparedPoint::<Toy>::prepare(&id);
        assert!(prep_id.pair(&p).is_identity());
        assert!(prep_id
            .multi_pairing(&[p, id])
            .iter()
            .all(Gt::is_identity));
    }

    #[test]
    fn multi_pairing_matches_per_element() {
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let qs: Vec<G<Toy>> = (0..9).map(|_| G::<Toy>::random(&mut r)).collect();
        let batched = Toy::multi_pair(&p, &qs);
        for (q, e) in qs.iter().zip(&batched) {
            assert_eq!(*e, tate_pairing_reference::<Toy>(&p, q));
        }
    }

    #[test]
    fn multi_pairing_counts_one_pairing_per_q() {
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let qs: Vec<G<Toy>> = (0..5).map(|_| G::<Toy>::random(&mut r)).collect();
        let prep = PreparedPoint::<Toy>::prepare(&p);
        let (_, ops) = counters::measure(|| prep.multi_pairing(&qs));
        assert_eq!(ops.pairings, qs.len() as u64);
        assert_eq!(ops.gt_op, 0);
    }

    #[test]
    fn prepared_matches_reference_out_of_subgroup() {
        let mut r = rng();
        let oos = crate::util::out_of_subgroup_point::<Toy>();
        let p = G::<Toy>::random(&mut r);
        // Both slots: prepared equality must hold for ANY second argument,
        // and preparing a non-subgroup point must match too.
        let prep_p = PreparedPoint::<Toy>::prepare(&p);
        assert_eq!(prep_p.pair(&oos), tate_pairing_reference::<Toy>(&p, &oos));
        let prep_oos = PreparedPoint::<Toy>::prepare(&oos);
        assert_eq!(prep_oos.pair(&p), tate_pairing_reference::<Toy>(&oos, &p));
        let batched = prep_oos.multi_pairing(&[p, oos]);
        assert_eq!(batched[0], tate_pairing_reference::<Toy>(&oos, &p));
        assert_eq!(batched[1], tate_pairing_reference::<Toy>(&oos, &oos));
    }

    #[test]
    fn ss512_prepared_smoke() {
        let mut r = rng();
        let g = G::<Ss512>::generator();
        let q = G::<Ss512>::random(&mut r);
        let prep = PreparedPoint::<Ss512>::prepare(&g);
        assert_eq!(prep.pair(&q), tate_pairing_reference::<Ss512>(&g, &q));
        let batched = prep.multi_pairing(&[q, g]);
        assert_eq!(batched[0], tate_pairing_reference::<Ss512>(&g, &q));
        assert_eq!(batched[1], tate_pairing_reference::<Ss512>(&g, &g));
    }
}
