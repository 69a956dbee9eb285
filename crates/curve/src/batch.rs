//! Cross-request batch decryption context.
//!
//! `P2`'s decrypt response is `ℓ` target-group multi-exponentiations per
//! ciphertext coordinate, all against the **same** fixed exponent vector —
//! the share `s ∈ Z_p^ℓ` — while the bases change per request. When the
//! server batches concurrent requests for one key, everything derived from
//! the exponents alone can be computed once per flush instead of once per
//! multiexp: the canonical limb recoding, the nonzero count, the highest
//! set bit, and the Straus/Pippenger cost-model dispatch.
//! [`BatchDecryptCtx`] captures that per-key precomputation and exposes a
//! `product_of_powers` entry point that is **indistinguishable from
//! [`Group::product_of_powers`] to the instrumentation and in its
//! results**:
//!
//! * it bumps exactly `bases.len()` exponentiation counters per call, the
//!   same wrapper-level accounting as the sequential path (engine
//!   internals are uncounted in both), and
//! * it runs the engine and window width that the generic
//!   [`crate::multiexp::multiexp`] would pick — the dispatch is
//!   deterministic in `(nonzero, max_bits)`, both fixed by the exponent
//!   vector — over canonical group elements, so its results are
//!   bit-identical to every correct engine's.
//!
//! That is the parity argument behind the server's dynamic batching
//! (DESIGN.md §5): `tools/bench-compare.sh` sees the same per-request op
//! fingerprint whether a request was served inline or in a batch of 64.
//!
//! The context targets the generic Straus/Pippenger dispatcher. Both
//! pairing groups override `product_of_powers` with a signed-window
//! engine (the curve with mixed-addition wNAF, `Gt` with conjugate
//! inverses and unitary squaring), so on `Gt` the context computes the
//! same products by a different, slower engine than the inline path: the
//! shared recoding saves less than the signed windows do.

use crate::counters;
use crate::multiexp::{
    best_window, pippenger_cost, pippenger_with_window, recode, straus_cost, straus_with_window,
};
use crate::traits::{Group, GroupKind};
use core::marker::PhantomData;

/// Which engine the dispatcher would run for this exponent shape, at which
/// window width. Resolved once at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Plan {
    /// Every exponent is zero: the product is the identity.
    Identity,
    /// Straus interleaving at the cost-model argmin window.
    Straus(usize),
    /// Pippenger bucket windows at the cost-model argmin window.
    Pippenger(usize),
}

/// Shared per-key precomputation for batched `∏ basesᵢ^{sᵢ}` evaluation:
/// one exponent recoding + engine dispatch, reused across every multiexp
/// in a flush. See the module docs for the parity argument.
pub struct BatchDecryptCtx<G: Group> {
    exp_limbs: Vec<Vec<u64>>,
    max_bits: usize,
    plan: Plan,
    _group: PhantomData<fn() -> G>,
}

impl<G: Group> BatchDecryptCtx<G> {
    /// Recode the fixed exponent vector and resolve the engine dispatch.
    /// Uncounted, like the recoding inside [`crate::multiexp::multiexp`].
    pub fn new(exps: &[G::Scalar]) -> Self {
        let (exp_limbs, max_bits) = recode::<G>(exps);
        let plan = match max_bits {
            None => Plan::Identity,
            Some(bits) => {
                let nonzero = exp_limbs
                    .iter()
                    .filter(|l| l.iter().any(|x| *x != 0))
                    .count();
                let ws = best_window(nonzero, bits, straus_cost);
                let wp = best_window(nonzero, bits, pippenger_cost);
                if pippenger_cost(nonzero, bits, wp) < straus_cost(nonzero, bits, ws) {
                    Plan::Pippenger(wp)
                } else {
                    Plan::Straus(ws)
                }
            }
        };
        Self {
            exp_limbs,
            max_bits: max_bits.unwrap_or(0),
            plan,
            _group: PhantomData,
        }
    }

    /// Number of exponents the context was built over; `bases` passed to
    /// [`Self::product_of_powers`] must match it.
    pub fn len(&self) -> usize {
        self.exp_limbs.len()
    }

    /// `true` when the context covers zero exponents.
    pub fn is_empty(&self) -> bool {
        self.exp_limbs.is_empty()
    }

    /// `∏ basesᵢ^{sᵢ}` over the context's exponents — same accounting
    /// (`bases.len()` exponentiations) and same result as
    /// [`Group::product_of_powers`], by the generic dispatcher's engine and
    /// window minus the per-call recoding and dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `bases.len() != self.len()`.
    pub fn product_of_powers(&self, bases: &[G]) -> G {
        assert_eq!(bases.len(), self.exp_limbs.len(), "bases/exps length mismatch");
        for _ in 0..bases.len() {
            match G::KIND {
                GroupKind::Target => counters::count_gt_pow(),
                _ => counters::count_g_pow(),
            }
        }
        match self.plan {
            Plan::Identity => G::identity(),
            Plan::Straus(w) => straus_with_window(bases, &self.exp_limbs, self.max_bits, w),
            Plan::Pippenger(w) => pippenger_with_window(bases, &self.exp_limbs, self.max_bits, w),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::measure;
    use crate::modgroup::{Mini1009, ModGroup};
    use dlr_math::FieldElement;
    use rand::SeedableRng;

    type MG = ModGroup<Mini1009>;
    type S = <MG as Group>::Scalar;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(29)
    }

    #[test]
    fn ctx_counts_and_results_match_sequential_path() {
        // The parity contract: for every batch shape, a ctx-served multiexp
        // is indistinguishable from `Group::product_of_powers` in both the
        // returned element and the counter fingerprint.
        let mut r = rng();
        for n in [1usize, 2, 9, 17, 64] {
            let exps: Vec<S> = (0..n).map(|_| S::random(&mut r)).collect();
            let ctx = BatchDecryptCtx::<MG>::new(&exps);
            for _round in 0..3 {
                let bases: Vec<MG> = (0..n).map(|_| MG::random(&mut r)).collect();
                let (seq, seq_ops) = measure(|| MG::product_of_powers(&bases, &exps));
                let (bat, bat_ops) = measure(|| ctx.product_of_powers(&bases));
                assert_eq!(seq, bat, "result mismatch at n={n}");
                assert_eq!(seq_ops, bat_ops, "op fingerprint mismatch at n={n}");
            }
        }
    }

    #[test]
    fn ctx_handles_sparse_and_zero_exponents() {
        let mut r = rng();
        let shapes: Vec<Vec<S>> = vec![
            vec![S::zero(); 6],
            {
                let mut e = vec![S::zero(); 6];
                e[3] = S::one();
                e
            },
            (0..6)
                .map(|i| if i % 2 == 0 { S::zero() } else { S::random(&mut r) })
                .collect(),
        ];
        for exps in shapes {
            let ctx = BatchDecryptCtx::<MG>::new(&exps);
            let bases: Vec<MG> = (0..exps.len()).map(|_| MG::random(&mut r)).collect();
            let (seq, seq_ops) = measure(|| MG::product_of_powers(&bases, &exps));
            let (bat, bat_ops) = measure(|| ctx.product_of_powers(&bases));
            assert_eq!(seq, bat);
            assert_eq!(seq_ops, bat_ops);
        }
    }

    #[test]
    fn ctx_matches_on_target_group() {
        // Gt is the group the server actually batches: exercise the
        // Target-kind counter arm over real pairing-derived elements.
        use crate::gt::Gt;
        use crate::params::{FrToy, Toy};
        let mut r = rng();
        let exps: Vec<FrToy> = (0..9).map(|_| FrToy::random(&mut r)).collect();
        let bases: Vec<Gt<Toy>> = (0..9)
            .map(|_| Gt::<Toy>::generator_pow(&FrToy::random(&mut r)))
            .collect();
        let ctx = BatchDecryptCtx::<Gt<Toy>>::new(&exps);
        let (seq, seq_ops) = measure(|| Gt::<Toy>::product_of_powers(&bases, &exps));
        let (bat, bat_ops) = measure(|| ctx.product_of_powers(&bases));
        assert_eq!(seq, bat);
        assert_eq!(seq_ops, bat_ops);
        assert_eq!(seq_ops.gt_pow, 9, "wrapper-level accounting is n pows");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ctx_rejects_mismatched_bases() {
        let mut r = rng();
        let exps: Vec<S> = (0..4).map(|_| S::random(&mut r)).collect();
        let ctx = BatchDecryptCtx::<MG>::new(&exps);
        let bases: Vec<MG> = (0..3).map(|_| MG::random(&mut r)).collect();
        let _ = ctx.product_of_powers(&bases);
    }
}
