//! The BLS12-381 ate pairing `e : G1 × G2 → GT ⊂ F_{q¹²}*`.
//!
//! Implementation philosophy: *transparent over fast*. `G2` points are
//! explicitly untwisted into `E(F_{q¹²})` and the Miller loop runs with
//! plain affine arithmetic over `F_{q¹²}` — no hand-derived sparse-line
//! coefficient tables to get subtly wrong. The twist direction (M vs D)
//! is not assumed: both untwist maps are tried once and the one that lands
//! on `E : y² = x³ + 4` is cached. Denominator elimination is valid
//! because `x(ψ(Q)) ∈ F_{q⁶}` and `x(P) ∈ F_q`, so vertical-line values
//! lie in the subfield killed by `q⁶ − 1 |` final exponent.
//!
//! Final exponentiation: easy part `(q⁶−1)(q²+1)` via conjugation,
//! inversion and one `q²`-power; hard part by plain exponentiation with
//! the runtime-derived `(q⁴ − q² + 1)/r`.

use crate::fq12::Fq12;
use crate::fq6::Fq6;
use crate::groups::{G1, G2};
use crate::params::{hard_part_exponent, q_squared, r_limbs, Fq, X_ABS};
use dlr_curve::{counters, Group, GroupKind};
use dlr_math::{FieldElement, Fp2, PrimeField};
use rand::RngCore;
use std::sync::OnceLock;

/// Embed `F_q` into `F_{q¹²}`.
fn embed_fq(a: Fq) -> Fq12 {
    Fq12::from_fq6(Fq6::from_fq2(Fp2::from_base(a)))
}

/// Embed `F_{q²}` into `F_{q¹²}`.
fn embed_fq2(a: Fp2<Fq>) -> Fq12 {
    Fq12::from_fq6(Fq6::from_fq2(a))
}

/// `w ∈ F_{q¹²}`.
fn w() -> Fq12 {
    Fq12::new(Fq6::zero(), Fq6::one())
}

/// The untwist map ψ : E'(F_{q²}) → E(F_{q¹²}), with the twist direction
/// determined empirically once and cached: `true` = multiply by `w`
/// powers (D-type, ψ(x,y) = (x·w², y·w³)), `false` = divide (M-type,
/// ψ(x,y) = (x·w⁻², y·w⁻³)).
fn untwist(q: &G2) -> Option<(Fq12, Fq12)> {
    static DIRECTION: OnceLock<bool> = OnceLock::new();
    let (xq, yq) = q.to_affine()?;
    let b = embed_fq(Fq::from_u64(4));
    let w1 = w();
    let w2 = w1 * w1;
    let w3 = w2 * w1;
    let direction = *DIRECTION.get_or_init(|| {
        let x = embed_fq2(xq);
        let y = embed_fq2(yq);
        let on_curve = |x: Fq12, y: Fq12| y.square() == x.square() * x + b;
        if on_curve(x * w2, y * w3) {
            true
        } else {
            let w2i = w2.inverse().expect("nonzero");
            let w3i = w3.inverse().expect("nonzero");
            assert!(
                on_curve(x * w2i, y * w3i),
                "neither untwist direction lands on E(Fq12) — twist b' wrong?"
            );
            false
        }
    });
    let (xw, yw) = if direction {
        (w2, w3)
    } else {
        (w2.inverse().expect("nonzero"), w3.inverse().expect("nonzero"))
    };
    Some((embed_fq2(xq) * xw, embed_fq2(yq) * yw))
}

/// Affine Miller loop `f_{|x|, ψ(Q)}(P)` over `F_{q¹²}`.
fn miller_loop(p: &G1, q: &G2) -> Option<Fq12> {
    let (xp, yp) = p.to_affine()?;
    let (xp, yp) = (embed_fq(xp), embed_fq(yp));
    let (xq, yq) = untwist(q)?;

    let mut f = Fq12::one();
    let mut t: Option<(Fq12, Fq12)> = Some((xq, yq));
    let nbits = 64 - X_ABS.leading_zeros();
    let mut i = nbits - 1;
    while i > 0 {
        i -= 1;
        f = f.square();
        if let Some((xt, yt)) = t {
            if yt.is_zero() {
                t = None; // vertical tangent: subfield factor only
            } else {
                let lambda = (xt.square() * embed_fq(Fq::from_u64(3)))
                    * (yt.double()).inverse().expect("y != 0");
                let x3 = lambda.square() - xt.double();
                let y3 = lambda * (xt - x3) - yt;
                f *= yp - yt - lambda * (xp - xt);
                t = Some((x3, y3));
            }
        }
        if (X_ABS >> i) & 1 == 1 {
            if let Some((xt, yt)) = t {
                if xt == xq {
                    if yt == yq {
                        // doubling case cannot occur on the addition step
                        // for distinct multiples below the group order
                        unreachable!("T == Q mid-loop");
                    }
                    t = None; // vertical chord
                } else {
                    let lambda = (yq - yt) * (xq - xt).inverse().expect("x1 != x2");
                    let x3 = lambda.square() - xt - xq;
                    let y3 = lambda * (xt - x3) - yt;
                    f *= yp - yt - lambda * (xp - xt);
                    t = Some((x3, y3));
                }
            } else {
                t = Some((xq, yq));
            }
        }
    }
    // x is negative: ate pairing uses f^{-1}; equivalent to the q⁶
    // conjugate up to factors killed by the final exponentiation.
    Some(f.conjugate_q6())
}

/// Final exponentiation `f ↦ f^{(q¹²−1)/r}`.
pub fn final_exponentiation(f: &Fq12) -> Option<Fq12> {
    if f.is_zero() {
        return None;
    }
    // easy part: f^{(q⁶−1)(q²+1)}
    let f1 = f.conjugate_q6() * f.inverse()?;
    let f2 = f1.pow_vartime(q_squared()) * f1;
    // hard part: ^(q⁴ − q² + 1)/r — f2 is unitary after the easy part, so
    // it is a `Gt` operand: the group's engine squares cyclotomically and
    // inverts by conjugation
    Some(Gt(f2).pow_vartime_limbs(hard_part_exponent()).0)
}

/// The ate pairing. Returns the identity when either input is the point
/// at infinity.
pub fn pairing(p: &G1, q: &G2) -> Gt {
    counters::count_pairing();
    let f = match miller_loop(p, q) {
        Some(f) if !f.is_zero() => f,
        _ => return Gt(Fq12::one()),
    };
    Gt(final_exponentiation(&f).expect("nonzero"))
}

/// The target group `GT ⊂ F_{q¹²}*` (unitary order-`r` elements).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Gt(pub(crate) Fq12);

impl Default for Gt {
    fn default() -> Self {
        Gt(Fq12::one())
    }
}

impl Gt {
    /// The underlying `F_{q¹²}` value.
    pub fn as_fq12(&self) -> &Fq12 {
        &self.0
    }

    /// Process-wide fixed-base tables for the generator.
    fn generator_table() -> &'static dlr_curve::FixedBase<Gt> {
        static TABLE: OnceLock<dlr_curve::FixedBase<Gt>> = OnceLock::new();
        TABLE.get_or_init(|| dlr_curve::FixedBase::new(&Self::generator()))
    }
}

impl Group for Gt {
    type Scalar = crate::params::Fr;
    const NAME: &'static str = "BLS12-GT";
    const KIND: GroupKind = GroupKind::Target;

    fn identity() -> Self {
        Gt(Fq12::one())
    }

    fn generator() -> Self {
        static GEN: OnceLock<Gt> = OnceLock::new();
        *GEN.get_or_init(|| {
            let gt = pairing(&G1::generator(), &G2::generator());
            assert!(!gt.is_identity(), "degenerate pairing");
            gt
        })
    }

    fn generator_pow(exp: &Self::Scalar) -> Self {
        Self::generator_table().pow_fixed(exp)
    }

    fn warm_generator_tables() {
        let _ = Self::generator_table();
    }

    fn raw_op(&self, rhs: &Self) -> Self {
        Gt(self.0 * rhs.0)
    }

    fn raw_double(&self) -> Self {
        Gt(self.0.cyclotomic_square())
    }

    fn inverse(&self) -> Self {
        Gt(self.0.unitary_inverse())
    }

    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        loop {
            let f = Fq12::random(rng);
            if f.is_zero() {
                continue;
            }
            if let Some(g) = final_exponentiation(&f) {
                if g != Fq12::one() {
                    return Gt(g);
                }
            }
        }
    }

    fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes_be()
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let f = Fq12::from_bytes_be(bytes)?;
        f.is_unitary().then_some(Gt(f))
    }

    fn byte_len() -> usize {
        Fq12::byte_len()
    }

    fn is_in_subgroup(&self) -> bool {
        self.0.is_unitary() && self.pow_vartime_limbs(r_limbs()).is_identity()
    }
}

/// The engine type: BLS12-381 as an asymmetric (Type-3) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bls12_381;

impl Bls12_381 {
    /// The pairing map.
    pub fn pair(p: &G1, q: &G2) -> Gt {
        pairing(p, q)
    }
}

impl dlr_curve::Pairing for Bls12_381 {
    type Scalar = crate::params::Fr;
    type G1 = G1;
    type G2 = G2;
    type Gt = Gt;
    // No cached-line form on this backend yet: preparation is the point
    // itself and the default multi_pair/pairing_product folds apply.
    type Prepared = G1;
    const NAME: &'static str = "BLS12-381";

    fn pair(p: &G1, q: &G2) -> Gt {
        pairing(p, q)
    }

    fn pair_generators() -> Gt {
        Gt::generator()
    }

    fn prepare(p: &G1) -> G1 {
        *p
    }

    fn pair_prepared(prep: &G1, q: &G2) -> Gt {
        pairing(prep, q)
    }

    // No cached-line form on this backend yet: the prepared second slot is
    // the point itself, mirroring `Prepared`.
    type PreparedQ = G2;

    fn prepare_q(q: &G2) -> G2 {
        *q
    }

    fn pair_prepared_q(p: &G1, prep: &G2) -> Gt {
        pairing(p, prep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Fr;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn non_degenerate() {
        let e = pairing(&G1::generator(), &G2::generator());
        assert!(!e.is_identity());
        assert!(e.is_in_subgroup());
    }

    #[test]
    fn bilinearity() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G2::random(&mut r);
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let lhs = pairing(&p.pow(&a), &q.pow(&b));
        let rhs = pairing(&p, &q).pow(&(a * b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn additivity_both_slots() {
        let mut r = rng();
        let p1 = G1::random(&mut r);
        let p2 = G1::random(&mut r);
        let q = G2::random(&mut r);
        assert_eq!(
            pairing(&p1.op(&p2), &q),
            pairing(&p1, &q).op(&pairing(&p2, &q))
        );
        let q2 = G2::random(&mut r);
        assert_eq!(
            pairing(&p1, &q.op(&q2)),
            pairing(&p1, &q).op(&pairing(&p1, &q2))
        );
    }

    #[test]
    fn identity_slots() {
        let mut r = rng();
        let p = G1::random(&mut r);
        let q = G2::random(&mut r);
        assert!(pairing(&G1::identity(), &q).is_identity());
        assert!(pairing(&p, &G2::identity()).is_identity());
    }

    #[test]
    fn gt_pow_matches_plain_pow_on_unitary_elements() {
        // The final exponentiation's hard part runs on `Gt` operands that
        // are unitary but not yet in μ_r: the engine's cyclotomic squarings
        // and conjugate inverses must still give the plain power.
        let mut r = rng();
        for _ in 0..4 {
            let a = Fq12::random(&mut r);
            let Some(inv) = a.inverse() else { continue };
            let u = a.conjugate_q6() * inv;
            assert!(u.is_unitary());
            for e in [&[12345u64][..], &[u64::MAX; 4][..]] {
                assert_eq!(Gt(u).pow_vartime_limbs(e).0, u.pow_vartime(e));
            }
        }
    }

    #[test]
    fn gt_group_laws() {
        let mut r = rng();
        let a = Gt::random(&mut r);
        let b = Gt::random(&mut r);
        assert!(a.is_in_subgroup());
        assert_eq!(a.op(&b), b.op(&a));
        assert_eq!(a.op(&a.inverse()), Gt::identity());
        let s = Fr::random(&mut r);
        let t = Fr::random(&mut r);
        assert_eq!(a.pow(&s).op(&a.pow(&t)), a.pow(&(s + t)));
    }

    #[test]
    fn gt_serialization() {
        let mut r = rng();
        let a = Gt::random(&mut r);
        assert_eq!(Gt::from_bytes(&a.to_bytes()), Some(a));
        // non-unitary rejected
        let junk = Fq12::random(&mut r);
        if !junk.is_unitary() {
            assert_eq!(Gt::from_bytes(&junk.to_bytes_be()), None);
        }
    }
}
