//! `F_{q¹²} = F_{q⁶}[w]/(w² − v)`.

use crate::fq6::Fq6;
use dlr_math::FieldElement;
use rand::RngCore;

/// An element `c0 + c1·w`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Fq12 {
    /// Even part.
    pub c0: Fq6,
    /// Odd part (coefficient of `w`).
    pub c1: Fq6,
}

impl Fq12 {
    /// Construct from parts.
    pub fn new(c0: Fq6, c1: Fq6) -> Self {
        Self { c0, c1 }
    }

    /// Embed an `F_{q⁶}` element.
    pub fn from_fq6(c0: Fq6) -> Self {
        Self::new(c0, Fq6::zero())
    }

    /// The `q⁶`-power Frobenius, which on this tower is simply `c1 ↦ −c1`
    /// (`w^{q⁶} = −w` since `q⁶ ≡ 3 (mod 4)`-style sign flip on the odd
    /// part — verified against `pow_vartime` in tests).
    pub fn conjugate_q6(&self) -> Self {
        Self::new(self.c0, -self.c1)
    }

    /// True iff `x · x^{q⁶} = 1` — membership in the "unitary" subgroup
    /// every pairing output lands in after the easy part of the final
    /// exponentiation (inversion becomes conjugation there).
    pub fn is_unitary(&self) -> bool {
        *self * self.conjugate_q6() == Self::one()
    }

    /// Cheap inverse for unitary elements.
    pub fn unitary_inverse(&self) -> Self {
        debug_assert!(self.is_unitary());
        self.conjugate_q6()
    }

    /// Squaring specialised to **unitary** elements: from
    /// `f·f^{q⁶} = (c0 + c1 w)(c0 − c1 w) = c0² − v·c1² = 1` it follows
    /// that `f² = (1 + 2·v·c1²) + 2·c0·c1·w` — one `F_{q⁶}` squaring and
    /// one multiplication instead of a full Karatsuba product. Used by the
    /// final-exponentiation hard part and `GT` arithmetic.
    ///
    /// Callers must ensure unitarity (debug-asserted).
    pub fn cyclotomic_square(&self) -> Self {
        debug_assert!(self.is_unitary());
        let b2 = self.c1.square();
        let ab = self.c0 * self.c1;
        let c0 = Fq6::one() + b2.mul_by_v().double();
        Self::new(c0, ab.double())
    }
}

impl core::ops::Add for Fq12 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl core::ops::Sub for Fq12 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl core::ops::Neg for Fq12 {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1)
    }
}
impl core::ops::Mul for Fq12 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba with w² = v
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let c0 = v0 + v1.mul_by_v();
        let c1 = (self.c0 + self.c1) * (rhs.c0 + rhs.c1) - v0 - v1;
        Self::new(c0, c1)
    }
}
impl core::ops::AddAssign for Fq12 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl core::ops::SubAssign for Fq12 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl core::ops::MulAssign for Fq12 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl FieldElement for Fq12 {
    fn zero() -> Self {
        Self::new(Fq6::zero(), Fq6::zero())
    }
    fn one() -> Self {
        Self::new(Fq6::one(), Fq6::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
    fn inverse(&self) -> Option<Self> {
        // (c0 + c1 w)^{-1} = (c0 − c1 w)/(c0² − v·c1²)
        let norm = self.c0.square() - self.c1.square().mul_by_v();
        let ninv = norm.inverse()?;
        Some(Self::new(self.c0 * ninv, -(self.c1 * ninv)))
    }
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::new(Fq6::random(rng), Fq6::random(rng))
    }
    fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = self.c0.to_bytes_be();
        out.extend_from_slice(&self.c1.to_bytes_be());
        out
    }
    fn from_bytes_be(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::byte_len() {
            return None;
        }
        let step = Fq6::byte_len();
        Some(Self::new(
            Fq6::from_bytes_be(&bytes[..step])?,
            Fq6::from_bytes_be(&bytes[step..])?,
        ))
    }
    fn byte_len() -> usize {
        2 * Fq6::byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_math::bignum;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(12)
    }

    #[test]
    fn field_axioms() {
        let mut r = rng();
        for _ in 0..6 {
            let a = Fq12::random(&mut r);
            let b = Fq12::random(&mut r);
            assert_eq!(a * b, b * a);
            assert_eq!(a.square(), a * a);
            if !a.is_zero() {
                assert_eq!(a * a.inverse().unwrap(), Fq12::one());
            }
        }
    }

    #[test]
    fn w_squared_is_v() {
        let w = Fq12::new(Fq6::zero(), Fq6::one());
        assert_eq!(w * w, Fq12::from_fq6(Fq6::v()));
    }

    #[test]
    fn conjugate_q6_is_q6_frobenius() {
        // x^{q⁶} computed by brute-force exponentiation must equal the
        // structural conjugation — this pins the tower's sign conventions.
        let mut r = rng();
        let a = Fq12::random(&mut r);
        let q = crate::params::q_big();
        let q6 = bignum::pow(&q, 6);
        assert_eq!(a.pow_vartime(&q6), a.conjugate_q6());
    }

    #[test]
    fn multiplicative_order_divides_q12_minus_1() {
        let mut r = rng();
        let a = Fq12::random(&mut r);
        if a.is_zero() {
            return;
        }
        let q = crate::params::q_big();
        let e = bignum::sub(&bignum::pow(&q, 12), &[1]);
        assert_eq!(a.pow_vartime(&e), Fq12::one());
    }

    #[test]
    fn cyclotomic_square_matches_plain_on_unitary() {
        let mut r = rng();
        for _ in 0..4 {
            let a = Fq12::random(&mut r);
            if a.is_zero() {
                continue;
            }
            // force unitarity: u = conj(a)/a satisfies u·conj(u) = 1
            let u = a.conjugate_q6() * a.inverse().unwrap();
            assert!(u.is_unitary());
            assert_eq!(u.cyclotomic_square(), u.square());
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        let a = Fq12::random(&mut r);
        assert_eq!(Fq12::from_bytes_be(&a.to_bytes_be()), Some(a));
        assert_eq!(Fq12::byte_len(), 12 * 48);
    }
}
