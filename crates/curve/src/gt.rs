//! The pairing target group `GT`: the order-`r` subgroup `μ_r ⊂ F_{p²}*`.
//!
//! Every element produced by the pairing (and by [`Group::random`]) is
//! *unitary* (norm 1), which makes inversion a conjugation — the cheap
//! `GT` arithmetic is one reason encrypting into `GT` (as DLR does) is
//! practical.

use crate::fixedbase::FixedBase;
use crate::multiexp::OpCosts;
use crate::params::SsParams;
use crate::traits::{Group, GroupKind};
use crate::util::field_modulus_limbs;
use core::marker::PhantomData;
use dlr_math::{FieldElement, Fp2};
use rand::RngCore;

/// An element of `GT` (invariant: unitary, i.e. norm 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Gt<P: SsParams> {
    pub(crate) value: Fp2<P::Fp>,
    _marker: PhantomData<P>,
}

impl<P: SsParams> Default for Gt<P> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<P: SsParams> Gt<P> {
    pub(crate) fn from_unitary(value: Fp2<P::Fp>) -> Self {
        debug_assert!(value.is_unitary(), "Gt invariant: unitary element");
        Self {
            value,
            _marker: PhantomData,
        }
    }

    /// The underlying `F_{p²}` value.
    pub fn as_fp2(&self) -> &Fp2<P::Fp> {
        &self.value
    }
}

impl<P: SsParams> Group for Gt<P> {
    type Scalar = P::Fr;
    const NAME: &'static str = "GT";
    const KIND: GroupKind = GroupKind::Target;
    /// In hundredths of an `F_{p²}` multiplication (three `F_p` products):
    /// every element is unitary, so a squaring is
    /// [`Fp2::unitary_square`] (two `F_p` squarings, about 0.67 of it), an
    /// inverse is a conjugation, and there is nothing to normalize.
    const OP_COSTS: OpCosts = OpCosts {
        table: 100,
        digit: 100,
        dbl: 67,
        norm: 0,
    };

    fn identity() -> Self {
        Self {
            value: Fp2::one(),
            _marker: PhantomData,
        }
    }

    fn generator() -> Self {
        // e(g, g) for the source-group generator g — generates GT by
        // non-degeneracy of the modified Tate pairing. Cached typed in the
        // per-params cell (the former global cache stored bytes and
        // re-deserialized per call).
        *P::caches().gt_generator.get_or_init(|| {
            let g = crate::curve::G::<P>::generator();
            let gt = crate::pairing::tate_pairing::<P>(&g, &g);
            assert!(!gt.is_identity(), "pairing degenerate on generator");
            gt
        })
    }

    fn generator_pow(exp: &Self::Scalar) -> Self {
        P::caches()
            .gt_table
            .get_or_init(|| FixedBase::new(&Self::generator()))
            .pow_fixed(exp)
    }

    fn warm_generator_tables() {
        let _ = P::caches()
            .gt_table
            .get_or_init(|| FixedBase::new(&Self::generator()));
    }

    fn raw_op(&self, rhs: &Self) -> Self {
        Self::from_unitary(self.value * rhs.value)
    }

    fn raw_double(&self) -> Self {
        Self::from_unitary(self.value.unitary_square())
    }

    fn inverse(&self) -> Self {
        Self::from_unitary(self.value.unitary_inverse())
    }

    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Project a random F_{p²}* element onto μ_r via the final
        // exponentiation map z ↦ z^{(p²−1)/r}; the result is uniform in GT
        // and carries no known discrete logarithm.
        loop {
            let z = Fp2::<P::Fp>::random(rng);
            if z.is_zero() {
                continue;
            }
            let gt = crate::pairing::final_exponentiation::<P>(z);
            if !gt.is_identity() {
                return gt;
            }
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        self.value.to_bytes_be()
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let value = Fp2::<P::Fp>::from_bytes_be(bytes)?;
        if !value.is_unitary() {
            return None;
        }
        Some(Self {
            value,
            _marker: PhantomData,
        })
    }

    fn byte_len() -> usize {
        Fp2::<P::Fp>::byte_len()
    }

    fn is_in_subgroup(&self) -> bool {
        self.value.is_unitary()
            && self
                .pow_vartime_limbs(&field_modulus_limbs::<P::Fr>())
                .is_identity()
    }
}

impl<P: SsParams> dlr_math::Erase for Gt<P>
where
    P::Fp: dlr_math::Erase,
{
    fn erase(&mut self) {
        self.value.erase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Toy;
    use dlr_math::PrimeField;
    use rand::SeedableRng;

    type T = Gt<Toy>;
    type Fr = <Toy as crate::params::SsParams>::Fr;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn group_laws() {
        let mut r = rng();
        let a = T::random(&mut r);
        let b = T::random(&mut r);
        assert_eq!(a.op(&b), b.op(&a));
        assert_eq!(a.op(&a.inverse()), T::identity());
        assert_eq!(a.op(&T::identity()), a);
        assert_eq!(a.raw_double(), a.op(&a));
    }

    #[test]
    fn random_lands_in_subgroup() {
        let mut r = rng();
        for _ in 0..5 {
            let a = T::random(&mut r);
            assert!(a.is_in_subgroup());
            assert!(!a.is_identity());
        }
    }

    #[test]
    fn exponent_arithmetic() {
        let mut r = rng();
        let a = T::random(&mut r);
        let s = Fr::random(&mut r);
        let t = Fr::random(&mut r);
        assert_eq!(a.pow(&s).op(&a.pow(&t)), a.pow(&(s + t)));
        assert_eq!(a.pow(&s).pow(&t), a.pow(&(s * t)));
    }

    #[test]
    fn serialization_roundtrip_and_validation() {
        let mut r = rng();
        let a = T::random(&mut r);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), T::byte_len());
        assert_eq!(T::from_bytes(&bytes), Some(a));
        // a random non-unitary Fp2 element must be rejected
        let mut z = dlr_math::Fp2::<<Toy as crate::params::SsParams>::Fp>::random(&mut r);
        while z.is_unitary() {
            z = dlr_math::Fp2::random(&mut r);
        }
        assert_eq!(T::from_bytes(&z.to_bytes_be()), None);
    }

    /// A norm-1 element outside `μ_r`: `z̄/z` for a random `z ∈ F_{p²}*`,
    /// parsed through [`Gt::from_bytes`] — which accepts it, so `P2` must
    /// exponentiate it correctly.
    fn unitary_outside_mu_r<P: SsParams>(r: &mut rand::rngs::StdRng) -> Gt<P> {
        loop {
            let z = Fp2::<P::Fp>::random(r);
            let Some(inv) = z.inverse() else { continue };
            let u =
                Gt::<P>::from_bytes(&(z.conjugate() * inv).to_bytes_be()).expect("z̄/z has norm 1");
            if !u.is_in_subgroup() {
                return u;
            }
        }
    }

    /// `n` bases cycling through random, identity and outside-`μ_r`
    /// elements, and `n` exponents cycling through 0, 1, small, `r − 1`
    /// and random values.
    fn mixed_batch<P: SsParams>(r: &mut rand::rngs::StdRng, n: usize) -> (Vec<Gt<P>>, Vec<P::Fr>) {
        // Two sampled elements seed the rest, so wide batches stay cheap.
        let (g, h) = (Gt::<P>::random(r), unitary_outside_mu_r::<P>(r));
        let mut cur = g;
        let bases = (0..n)
            .map(|i| {
                cur = cur.raw_op(&g);
                match i % 4 {
                    1 => Gt::identity(),
                    2 => h.raw_op(&cur),
                    3 => unitary_outside_mu_r::<P>(r),
                    _ => cur,
                }
            })
            .collect();
        let exps = (0..n)
            .map(|i| match i % 5 {
                0 => P::Fr::zero(),
                1 => P::Fr::one(),
                2 => P::Fr::from_u64(i as u64 * 37 + 5),
                3 => -P::Fr::one(),
                _ => P::Fr::random(r),
            })
            .collect();
        (bases, exps)
    }

    #[test]
    fn signed_engine_counts_like_the_default() {
        // One gt_pow per base, zero exponents included; nothing else.
        let mut r = rng();
        let (bases, exps) = mixed_batch::<Toy>(&mut r, 14);
        let (_, ops) = crate::counters::measure(|| T::product_of_powers(&bases, &exps));
        assert_eq!(ops.gt_pow, 14);
        assert_eq!(ops.gt_op, 0);
        assert_eq!(ops.g_pow + ops.g_op + ops.pairings, 0);
        assert!(T::product_of_powers(&[], &[]).is_identity());
    }

    #[test]
    fn unitary_square_is_the_double() {
        let mut r = rng();
        for _ in 0..20 {
            let a = T::random(&mut r);
            let u = unitary_outside_mu_r::<Toy>(&mut r);
            for x in [a, u] {
                assert_eq!(x.as_fp2().unitary_square(), x.as_fp2().square());
            }
        }
        let a = Gt::<crate::params::Ss512>::random(&mut r);
        assert_eq!(a.as_fp2().unitary_square(), a.as_fp2().square());
    }

    #[test]
    fn generator_has_full_order() {
        let g = T::generator();
        assert!(!g.is_identity());
        assert!(g.is_in_subgroup());
        // g^(r-1) != identity (r prime, so any non-identity element has order r)
        let rm1 = -Fr::one();
        assert!(!g.pow(&rm1).is_identity());
        assert_eq!(g.pow(&rm1).op(&g), T::identity());
    }
}
