//! Quadratic extension `F_{p²} = F_p[i]/(i² + 1)`.
//!
//! Valid whenever `p ≡ 3 (mod 4)` (then `-1` is a quadratic non-residue, so
//! `i² + 1` is irreducible). All the supersingular-curve fields in
//! `dlr-curve` satisfy this; the constructor asserts it.
//!
//! This is the field where the Tate pairing of the Type-1 curve takes its
//! values (embedding degree 2): `GT ⊂ F_{p²}*` is the order-`r` subgroup.

use crate::field::{FieldElement, PrimeField};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element `c0 + c1·i` of `F_{p²}`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct Fp2<F: PrimeField> {
    /// Real part.
    pub c0: F,
    /// Imaginary part (coefficient of `i`).
    pub c1: F,
}

impl<F: PrimeField> Fp2<F> {
    /// Construct from components.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the base modulus is not `3 (mod 4)`.
    pub fn new(c0: F, c1: F) -> Self {
        debug_assert!(F::modulus_is_3_mod_4(), "Fp2 tower requires p ≡ 3 (mod 4)");
        Self { c0, c1 }
    }

    /// Embed a base-field element.
    pub fn from_base(c0: F) -> Self {
        Self::new(c0, F::zero())
    }

    /// The element `i` (a square root of `-1`).
    pub fn i() -> Self {
        Self::new(F::zero(), F::one())
    }

    /// Complex conjugate `c0 - c1·i`. This is also the Frobenius
    /// endomorphism `x ↦ x^p` (since `i^p = -i` for `p ≡ 3 (mod 4)`), and
    /// the inverse of a norm-1 ("unitary") element.
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// Field norm `N(x) = x · x^p = c0² + c1² ∈ F_p`. Both squares are
    /// accumulated unreduced; one reduction total.
    pub fn norm(&self) -> F {
        F::wide_reduce(F::wide_add(self.c0.square_wide(), self.c1.square_wide()))
    }

    /// True iff `N(x) = 1`, i.e. `x` lies in the kernel of the norm map —
    /// the cyclotomic subgroup of order `p + 1` containing `GT`.
    pub fn is_unitary(&self) -> bool {
        self.norm() == F::one()
    }

    /// Fast inverse for unitary elements (conjugation). Callers must ensure
    /// `self` is unitary; debug builds assert it.
    pub fn unitary_inverse(&self) -> Self {
        debug_assert!(self.is_unitary());
        self.conjugate()
    }

    /// Square of a **unitary** element `a + b·i` (norm 1): with
    /// `a² + b² = 1`, `x² = (a² − b²) + 2ab·i = (2a² − 1) + ((a + b)² − 1)·i`
    /// — two `F_p` squarings and no multiplication. Returns the same
    /// canonical element as [`FieldElement::square`]; callers must ensure
    /// `self` is unitary, and debug builds assert it.
    pub fn unitary_square(&self) -> Self {
        debug_assert!(self.is_unitary(), "unitary_square needs a norm-1 element");
        Self {
            c0: self.c0.square().double() - F::one(),
            c1: (self.c0 + self.c1).square() - F::one(),
        }
    }

    /// `self^exp` for a **unitary** `self = a + b·i` with `b ≠ 0`, given
    /// `c1_inv = b^{-1}` (variable time in `exp`).
    ///
    /// With `ū = u^{-1}` the real parts `W_n = Re(u^n)` form a Lucas
    /// sequence over `F_p` alone: `W_{2n} = 2W_n² − 1`,
    /// `W_{2n+1} = 2·W_n·W_{n+1} − a`. A ladder on `(W_n, W_{n+1})` costs
    /// one `F_p` squaring and one `F_p` multiplication per exponent bit —
    /// against an `F_{p²}` squaring per bit plus an `F_{p²}` multiplication
    /// per set bit for [`FieldElement::pow_vartime`] — and the imaginary
    /// part falls out at the end as `(a·W_n − W_{n+1})/b`. The caller
    /// supplies `b^{-1}` so a batch can share one inversion. Returns the
    /// same canonical element as `pow_vartime(exp)`.
    pub fn unitary_pow_vartime(&self, exp: &[u64], c1_inv: &F) -> Self {
        debug_assert!(self.is_unitary());
        debug_assert!(self.c1 * *c1_inv == F::one(), "c1_inv must invert the imaginary part");
        let nbits = crate::limbs::bits_slice(exp);
        if nbits == 0 {
            return Self::one();
        }
        let a = self.c0;
        let double_square_minus_one = |w: &F| w.square().double() - F::one();
        // (W_1, W_2) after the top bit.
        let (mut lo, mut hi) = (a, double_square_minus_one(&a));
        let mut i = nbits - 1;
        while i > 0 {
            i -= 1;
            let mid = (lo * hi).double() - a;
            if (exp[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
                lo = mid;
                hi = double_square_minus_one(&hi);
            } else {
                hi = mid;
                lo = double_square_minus_one(&lo);
            }
        }
        Self {
            c0: lo,
            c1: (a * lo - hi) * *c1_inv,
        }
    }

    /// Fully-reduced schoolbook/Karatsuba multiplication — the reference
    /// implementation the lazy-reduction paths (`square`, [`Fp2::norm`],
    /// [`Fp2::sum_of_products`]) are differentially tested against. Every
    /// base-field product is reduced eagerly.
    pub fn mul_reduced_reference(&self, rhs: &Self) -> Self {
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Self {
            c0: v0 - v1,
            c1: s - v0 - v1,
        }
    }

    /// Lazy inner product `Σ aᵢ·bᵢ` over `F_{p²}`: all `3n` base-field
    /// products are accumulated unreduced and each output component pays a
    /// **single** Montgomery reduction, instead of the `2n` reductions plus
    /// `n−1` reduced additions of the term-by-term path. Exact: returns the
    /// same canonical element as `zip(a, b).map(|x, y| x * y).sum()`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different lengths.
    pub fn sum_of_products(a: &[Self], b: &[Self]) -> Self {
        assert_eq!(a.len(), b.len(), "sum_of_products length mismatch");
        let mut acc0 = F::wide_zero();
        let mut acc1 = F::wide_zero();
        for (x, y) in a.iter().zip(b.iter()) {
            let v0 = x.c0.mul_wide(&y.c0);
            let v1 = x.c1.mul_wide(&y.c1);
            let s = (x.c0 + x.c1).mul_wide(&(y.c0 + y.c1));
            acc0 = F::wide_sub(F::wide_add(acc0, v0), v1);
            acc1 = F::wide_sub(F::wide_sub(F::wide_add(acc1, s), v0), v1);
        }
        Self {
            c0: F::wide_reduce(acc0),
            c1: F::wide_reduce(acc1),
        }
    }
}

impl<F: PrimeField> Add for Fp2<F> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl<F: PrimeField> Sub for Fp2<F> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl<F: PrimeField> Neg for Fp2<F> {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl<F: PrimeField> Mul for Fp2<F> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Eager Karatsuba: (a0 + a1 i)(b0 + b1 i), i² = -1, three reduced
        // base-field products. A lazy-reduction variant (three `mul_wide`
        // products, two SOS reductions) was measured *slower* for a single
        // product at both 2 and 8 limbs: the m²-complement subtractions walk
        // a 2L-limb accumulator twice and the separate reduction pass spills
        // to memory, while the interleaved CIOS reduction stays in
        // registers. Deferred accumulation only pays when several products
        // share one reduction — see [`Fp2::sum_of_products`], [`Fp2::norm`]
        // and the doubling inside `square`.
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Self {
            c0: v0 - v1,
            c1: s - v0 - v1,
        }
    }
}

impl<F: PrimeField> AddAssign for Fp2<F> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<F: PrimeField> SubAssign for Fp2<F> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<F: PrimeField> MulAssign for Fp2<F> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<F: PrimeField> FieldElement for Fp2<F> {
    fn zero() -> Self {
        Self {
            c0: F::zero(),
            c1: F::zero(),
        }
    }
    fn one() -> Self {
        Self {
            c0: F::one(),
            c1: F::zero(),
        }
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
    fn square(&self) -> Self {
        // (a + bi)² = (a+b)(a-b) + 2ab·i — two base multiplications. The
        // doubling of ab happens on the unreduced accumulator, so each
        // component pays exactly one reduction.
        let c0 = (self.c0 + self.c1) * (self.c0 - self.c1);
        let ab = self.c0.mul_wide(&self.c1);
        let c1 = F::wide_reduce(F::wide_add(ab, ab));
        Self { c0, c1 }
    }
    fn inverse(&self) -> Option<Self> {
        let n = self.norm();
        let ninv = n.inverse()?;
        Some(Self {
            c0: self.c0 * ninv,
            c1: -(self.c1 * ninv),
        })
    }
    fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self {
            c0: F::random(rng),
            c1: F::random(rng),
        }
    }
    fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = self.c0.to_bytes_be();
        out.extend_from_slice(&self.c1.to_bytes_be());
        out
    }
    fn from_bytes_be(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 2 * F::byte_len() {
            return None;
        }
        let (b0, b1) = bytes.split_at(F::byte_len());
        Some(Self {
            c0: F::from_bytes_be(b0)?,
            c1: F::from_bytes_be(b1)?,
        })
    }
    fn byte_len() -> usize {
        2 * F::byte_len()
    }
}

impl<F: PrimeField> crate::erase::Erase for Fp2<F>
where
    F: crate::erase::Erase,
{
    fn erase(&mut self) {
        self.c0.erase();
        self.c1.erase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    crate::define_prime_field!(
        /// Test field with p = 1000003 ≡ 3 (mod 4).
        pub struct FSmall, 1, "0xf4243"
    );

    type F2 = Fp2<FSmall>;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(F2::i() * F2::i(), -F2::one());
    }

    #[test]
    fn field_axioms() {
        let mut r = rng();
        for _ in 0..40 {
            let a = F2::random(&mut r);
            let b = F2::random(&mut r);
            let c = F2::random(&mut r);
            assert_eq!(a + b, b + a);
            assert_eq!(a * b, b * a);
            assert_eq!(a * (b * c), (a * b) * c);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), F2::one());
            }
        }
        assert!(F2::zero().inverse().is_none());
    }

    #[test]
    fn conjugate_is_frobenius() {
        let mut r = rng();
        let a = F2::random(&mut r);
        let p = FSmall::MODULUS;
        assert_eq!(a.pow_vartime(&p), a.conjugate());
        // conj is an automorphism
        let b = F2::random(&mut r);
        assert_eq!((a * b).conjugate(), a.conjugate() * b.conjugate());
    }

    #[test]
    fn norm_multiplicative() {
        let mut r = rng();
        let a = F2::random(&mut r);
        let b = F2::random(&mut r);
        assert_eq!((a * b).norm(), a.norm() * b.norm());
    }

    #[test]
    fn unitary_subgroup() {
        let mut r = rng();
        let a = F2::random(&mut r);
        if a.is_zero() {
            return;
        }
        // x^{p-1} = conj(x)/x is always unitary
        let u = a.conjugate() * a.inverse().unwrap();
        assert!(u.is_unitary());
        assert_eq!(u.unitary_inverse() * u, F2::one());
    }

    #[test]
    fn unitary_square_matches_square() {
        let mut r = rng();
        let mut pool = vec![F2::one(), -F2::one(), F2::i(), -F2::i()];
        while pool.len() < 200 {
            let a = F2::random(&mut r);
            if let Some(inv) = a.inverse() {
                pool.push(a.conjugate() * inv);
            }
        }
        for u in &pool {
            assert!(u.is_unitary());
            assert_eq!(u.unitary_square(), u.square(), "u = {u:?}");
        }
    }

    #[test]
    fn unitary_pow_matches_generic_pow() {
        let mut r = rng();
        let mut checked = 0;
        while checked < 40 {
            let a = F2::random(&mut r);
            if a.is_zero() {
                continue;
            }
            let u = a.conjugate() * a.inverse().unwrap();
            let Some(c1_inv) = u.c1.inverse() else {
                continue; // u = ±1 has no imaginary part to divide by
            };
            for exp in [
                &[0u64][..],
                &[1],
                &[2],
                &[3],
                &[0xb4],
                &[0xdead_beef_0123_4567, 0x1f],
                &[0, 1],
                &[u64::MAX, u64::MAX],
            ] {
                assert_eq!(u.unitary_pow_vartime(exp, &c1_inv), u.pow_vartime(exp), "exp {exp:x?}");
            }
            checked += 1;
        }
    }

    #[test]
    fn multiplicative_order_divides_p2_minus_1() {
        let mut r = rng();
        let a = F2::random(&mut r);
        if a.is_zero() {
            return;
        }
        // p² - 1 for p = 1000003: compute via u128, fits in 64 bits? p² ≈ 10^12 — fits u64.
        let p = FSmall::MODULUS[0];
        let e = p * p - 1;
        assert_eq!(a.pow_vartime(&[e]), F2::one());
    }

    #[test]
    fn lazy_mul_matches_reduced_reference() {
        let mut r = rng();
        let mut pool: Vec<F2> = (0..24).map(|_| F2::random(&mut r)).collect();
        // Edge values: 0, 1, i, p-1 components in every combination.
        let pm1 = -FSmall::one();
        for &x in &[FSmall::zero(), FSmall::one(), pm1] {
            for &y in &[FSmall::zero(), FSmall::one(), pm1] {
                pool.push(F2::new(x, y));
            }
        }
        for a in &pool {
            for b in &pool {
                assert_eq!(*a * *b, a.mul_reduced_reference(b));
            }
            assert_eq!(a.square(), a.mul_reduced_reference(a));
            assert_eq!(a.norm(), a.c0 * a.c0 + a.c1 * a.c1);
        }
    }

    #[test]
    fn sum_of_products_matches_term_by_term() {
        let mut r = rng();
        for n in [0usize, 1, 2, 7, 33] {
            let a: Vec<F2> = (0..n).map(|_| F2::random(&mut r)).collect();
            let b: Vec<F2> = (0..n).map(|_| F2::random(&mut r)).collect();
            let expect = a
                .iter()
                .zip(b.iter())
                .fold(F2::zero(), |acc, (x, y)| acc + x.mul_reduced_reference(y));
            assert_eq!(F2::sum_of_products(&a, &b), expect);
        }
        // Edge-valued long accumulation: stresses the overflow limb.
        let pm1 = F2::new(-FSmall::one(), -FSmall::one());
        let a = vec![pm1; 257];
        let b = vec![pm1; 257];
        let expect = a
            .iter()
            .zip(b.iter())
            .fold(F2::zero(), |acc, (x, y)| acc + x.mul_reduced_reference(y));
        assert_eq!(F2::sum_of_products(&a, &b), expect);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        let a = F2::random(&mut r);
        let b = a.to_bytes_be();
        assert_eq!(b.len(), F2::byte_len());
        assert_eq!(F2::from_bytes_be(&b), Some(a));
        assert_eq!(F2::from_bytes_be(&b[1..]), None);
    }
}
