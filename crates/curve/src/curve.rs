//! The pairing source group `G`: the order-`r` subgroup of the
//! supersingular curve `E : y² = x³ + x` over `F_p`.
//!
//! Points are held in Jacobian coordinates `(X, Y, Z)` with affine
//! `(X/Z², Y/Z³)` and the point at infinity encoded by `Z = 0`. Equality
//! and hashing are defined on the underlying affine point, so the same
//! group element in different coordinates compares equal.

use crate::fixedbase::FixedBase;
use crate::multiexp::OpCosts;
use crate::params::SsParams;
use crate::traits::{Group, GroupKind};
use crate::util::field_modulus_limbs;
use core::hash::{Hash, Hasher};
use core::marker::PhantomData;
use dlr_math::{FieldElement, PrimeField};
use rand::RngCore;

/// An element of the source group `G` (Jacobian coordinates).
#[derive(Clone, Copy, Debug)]
pub struct G<P: SsParams> {
    x: P::Fp,
    y: P::Fp,
    z: P::Fp,
    _marker: PhantomData<P>,
}

impl<P: SsParams> Default for G<P> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<P: SsParams> G<P> {
    fn jacobian(x: P::Fp, y: P::Fp, z: P::Fp) -> Self {
        Self {
            x,
            y,
            z,
            _marker: PhantomData,
        }
    }

    /// Construct from affine coordinates, verifying the curve equation.
    pub fn from_affine(x: P::Fp, y: P::Fp) -> Option<Self> {
        if !Self::is_on_curve_affine(&x, &y) {
            return None;
        }
        Some(Self::jacobian(x, y, P::Fp::one()))
    }

    /// Affine coordinates, or `None` for the point at infinity. A point
    /// already normalized to `Z = 1` (see [`Group::batch_normalize`]) is
    /// returned as stored, with no field inversion.
    pub fn to_affine(&self) -> Option<(P::Fp, P::Fp)> {
        if self.z.is_zero() {
            return None;
        }
        if self.z == P::Fp::one() {
            return Some((self.x, self.y));
        }
        let zinv = self.z.inverse().expect("nonzero z");
        let zinv2 = zinv.square();
        let zinv3 = zinv2 * zinv;
        Some((self.x * zinv2, self.y * zinv3))
    }

    /// Curve membership for affine coordinates: `y² = x³ + x`.
    pub fn is_on_curve_affine(x: &P::Fp, y: &P::Fp) -> bool {
        y.square() == x.square() * *x + *x
    }

    /// True iff this point satisfies the curve equation (in Jacobian form:
    /// `Y² = X³ + X·Z⁴`).
    pub fn is_on_curve(&self) -> bool {
        if self.z.is_zero() {
            return true;
        }
        let z2 = self.z.square();
        let z4 = z2.square();
        self.y.square() == self.x.square() * self.x + self.x * z4
    }

    fn double_internal(&self) -> Self {
        if self.z.is_zero() || self.y.is_zero() {
            return Self::identity();
        }
        // dbl-2007-bl for y² = x³ + a·x with a = 1
        let xx = self.x.square();
        let yy = self.y.square();
        let yyyy = yy.square();
        let zz = self.z.square();
        let s = ((self.x + yy).square() - xx - yyyy).double();
        let m = xx.double() + xx + zz.square(); // 3·XX + a·ZZ², a = 1
        let t = m.square() - s.double();
        let y3 = m * (s - t) - yyyy.double().double().double();
        let z3 = (self.y + self.z).square() - yy - zz;
        Self::jacobian(t, y3, z3)
    }

    /// `self + rhs`: the mixed formula when `rhs` is normalized (`Z = 1`),
    /// add-2007-bl otherwise.
    fn add_internal(&self, rhs: &Self) -> Self {
        if self.z.is_zero() {
            return *rhs;
        }
        if rhs.z.is_zero() {
            return *self;
        }
        if rhs.z == P::Fp::one() {
            return self.add_mixed(rhs);
        }
        // add-2007-bl
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * rhs.z * z2z2;
        let s2 = rhs.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double_internal();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Self::jacobian(x3, y3, z3)
    }

    /// Mixed addition `self + rhs` for an **affine** `rhs` (`Z₂ = 1`, not
    /// infinity): madd-2007-bl, 7M + 4S against the 11M + 5S of
    /// [`Self::add_internal`], which dispatches here. The exponentiation
    /// engine and the fixed-base comb batch-normalize their tables once
    /// ([`Group::batch_normalize`]) to earn this discount on every table
    /// addition.
    fn add_mixed(&self, rhs: &Self) -> Self {
        debug_assert!(rhs.z == P::Fp::one(), "add_mixed rhs must be affine");
        if self.z.is_zero() {
            return *rhs;
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * self.z * z1z1;
        if self.x == u2 {
            if self.y == s2 {
                return self.double_internal();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self::jacobian(x3, y3, z3)
    }

    /// Compressed serialization: a tag byte (0 = infinity, 2/3 = sign of
    /// `y`) plus the x-coordinate — roughly half the uncompressed size.
    pub fn to_bytes_compressed(&self) -> Vec<u8> {
        let len = 1 + P::Fp::byte_len();
        match self.to_affine() {
            None => vec![0u8; len],
            Some((x, y)) => {
                let neg = -y;
                let sign = y.to_bytes_be() > neg.to_bytes_be();
                let mut out = Vec::with_capacity(len);
                out.push(if sign { 3 } else { 2 });
                out.extend_from_slice(&x.to_bytes_be());
                out
            }
        }
    }

    /// Parse a compressed point, recovering `y` via a square root.
    pub fn from_bytes_compressed(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 1 + P::Fp::byte_len() {
            return None;
        }
        match bytes[0] {
            0 => bytes.iter().all(|&b| b == 0).then(Self::identity),
            tag @ (2 | 3) => {
                let x = P::Fp::from_bytes_be(&bytes[1..])?;
                let rhs = x.square() * x + x;
                let y = rhs.sqrt()?;
                let neg = -y;
                let y_sign = y.to_bytes_be() > neg.to_bytes_be();
                let want_sign = tag == 3;
                let y = if y_sign == want_sign { y } else { neg };
                Some(Self::jacobian(x, y, P::Fp::one()))
            }
            _ => None,
        }
    }

    /// `[k]P` for an affine point `P = (x, y)`: the x-only Montgomery
    /// ladder, then `y` recovered once at the end (Okeya–Sakurai).
    ///
    /// `y² = x³ + x` is the Montgomery curve `B·y² = x³ + A·x² + x` with
    /// `A = 0`, `B = 1`. The ladder holds `R₀ = [j]P` and `R₁ = [j+1]P` as
    /// `(X : Z)` pairs ([`xdbl`], [`xadd`]): 5M + 4S per bit of `k`, and it
    /// branches only on those bits. From `(X₂ : Z₂) = [k]P` and
    /// `(X₃ : Z₃) = [k+1]P`,
    /// `Y = Z₃·(x·X₂ + Z₂)·(X₂ + x·Z₂) − X₃·(X₂ − x·Z₂)²` and
    /// `W = 2·y·Z₂·Z₃` give the projective point `(W·X₂ : Y : W·Z₂)`.
    ///
    /// Exact for every `k` when `x ≠ 0`: `Z₂ = 0` is `[k]P = O`, and
    /// `Z₃ = 0` is `[k]P = −P`. The only point with `x = 0` is the
    /// 2-torsion point (0, 0), where the differential addition degenerates;
    /// for even `k` its result is still exact (O).
    fn ladder_mul(x: P::Fp, y: P::Fp, k: &[u64]) -> Self {
        let nbits = dlr_math::limbs::bits_slice(k);
        if nbits == 0 {
            return Self::identity();
        }
        let one = P::Fp::one();
        let mut r0 = (x, one);
        let mut r1 = xdbl(r0);
        for i in (0..nbits - 1).rev() {
            if (k[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
                r0 = xadd(r0, r1, x);
                r1 = xdbl(r1);
            } else {
                r1 = xadd(r0, r1, x);
                r0 = xdbl(r0);
            }
        }
        let ((x2, z2), (x3, z3)) = (r0, r1);
        if z2.is_zero() {
            return Self::identity();
        }
        if z3.is_zero() {
            return Self::jacobian(x, -y, one);
        }
        let xz2 = x * z2;
        let y_num = z3 * (x * x2 + z2) * (x2 + xz2) - x3 * (x2 - xz2).square();
        let w = (y * z2 * z3).double();
        // Projective (X : Y : Z) is Jacobian (X·Z, Y·Z², Z).
        let z = w * z2;
        Self::jacobian(w * x2 * z, y_num * z.square(), z)
    }

    /// Map arbitrary bytes to a group element (try-and-increment +
    /// cofactor clearing on an x-only Montgomery ladder). Deterministic in
    /// `(domain, msg)`.
    pub fn hash_to_group(domain: &[u8], msg: &[u8]) -> Self {
        let xlen = P::Fp::byte_len() + 16; // oversample to smooth the mod-p bias
        // One HKDF-Extract for the whole counter walk: each attempt only
        // pays the Expand blocks (`Prk::expand` output is byte-identical
        // to per-attempt `hkdf` calls with the same info string).
        let prk = dlr_hash::hkdf::Prk::new(domain, msg);
        for ctr in 0u32..u32::MAX {
            let mut info = b"dlr-h2c".to_vec();
            info.extend_from_slice(&ctr.to_be_bytes());
            let bytes = prk.expand(&info, xlen + 1);
            let x = P::Fp::from_bytes_be_reduced(&bytes[..xlen]);
            let rhs = x.square() * x + x;
            if let Some(y) = rhs.sqrt() {
                // pick the sign from the last derived byte for determinism
                let y = if bytes[xlen] & 1 == 1 { -y } else { y };
                let cleared = Self::ladder_mul(x, y, P::COFACTOR);
                if !cleared.z.is_zero() {
                    return cleared;
                }
            }
        }
        unreachable!("hash_to_group exhausted the counter space")
    }
}

/// x-only doubling on `y² = x³ + x`, both coordinates scaled by 2 to drop
/// the `(A + 2)/4 = 1/2` multiply: `AA = (X+Z)²`, `BB = (X−Z)²`,
/// `X₂ = 2·AA·BB`, `Z₂ = (AA − BB)·(AA + BB)`.
fn xdbl<F: FieldElement>((x, z): (F, F)) -> (F, F) {
    let aa = (x + z).square();
    let bb = (x - z).square();
    ((aa * bb).double(), (aa - bb) * (aa + bb))
}

/// x-only differential addition `R₀ + R₁` where `R₁ − R₀` has the affine
/// x-coordinate `xd ≠ 0`: `DA = (X₁−Z₁)(X₀+Z₀)`, `CB = (X₁+Z₁)(X₀−Z₀)`,
/// `X = (DA + CB)²`, `Z = xd·(DA − CB)²`.
fn xadd<F: FieldElement>((x0, z0): (F, F), (x1, z1): (F, F), xd: F) -> (F, F) {
    let da = (x1 - z1) * (x0 + z0);
    let cb = (x1 + z1) * (x0 - z0);
    ((da + cb).square(), xd * (da - cb).square())
}

fn derive_generator<P: SsParams>() -> G<P> {
    G::<P>::hash_to_group(P::GENERATOR_DOMAIN, b"generator")
}

impl<P: SsParams> PartialEq for G<P> {
    fn eq(&self, other: &Self) -> bool {
        let self_inf = self.z.is_zero();
        let other_inf = other.z.is_zero();
        if self_inf || other_inf {
            return self_inf == other_inf;
        }
        // (X1/Z1², Y1/Z1³) == (X2/Z2², Y2/Z2³) cross-multiplied
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1
            && self.y * (z2z2 * other.z) == other.y * (z1z1 * self.z)
    }
}

impl<P: SsParams> Eq for G<P> {}

impl<P: SsParams> Hash for G<P> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the canonical affine form so Jacobian representatives of the
        // same point hash identically.
        match self.to_affine() {
            None => state.write_u8(0),
            Some((x, y)) => {
                state.write_u8(4);
                state.write(&x.to_bytes_be());
                state.write(&y.to_bytes_be());
            }
        }
    }
}

impl<P: SsParams> Group for G<P> {
    type Scalar = P::Fr;
    const NAME: &'static str = "G";
    const KIND: GroupKind = GroupKind::Source;
    /// In hundredths of a full Jacobian addition (11M + 5S), as measured on
    /// the supersingular fields: a mixed addition (7M + 4S) against a
    /// normalized table entry runs at about 0.7 of it and a doubling
    /// (1M + 8S) at about 0.6, and normalizing costs each entry about 0.04
    /// (three multiplications and a share of one inversion).
    const OP_COSTS: OpCosts = OpCosts {
        table: 100,
        digit: 70,
        dbl: 60,
        norm: 4,
    };

    fn identity() -> Self {
        Self::jacobian(P::Fp::one(), P::Fp::one(), P::Fp::zero())
    }

    fn generator() -> Self {
        // Typed per-params cache: the former global Mutex<HashMap> of
        // serialized coordinates re-parsed the point on every call.
        *P::caches().g_generator.get_or_init(derive_generator::<P>)
    }

    fn generator_pow(exp: &Self::Scalar) -> Self {
        P::caches()
            .g_table
            .get_or_init(|| FixedBase::new(&Self::generator()))
            .pow_fixed(exp)
    }

    fn warm_generator_tables() {
        let _ = P::caches()
            .g_table
            .get_or_init(|| FixedBase::new(&Self::generator()));
    }

    fn raw_op(&self, rhs: &Self) -> Self {
        self.add_internal(rhs)
    }

    fn raw_double(&self) -> Self {
        self.double_internal()
    }

    fn inverse(&self) -> Self {
        Self::jacobian(self.x, -self.y, self.z)
    }

    /// One field inversion for the whole batch (Montgomery's trick).
    /// Points at infinity are left untouched.
    fn batch_normalize(points: &mut [Self]) {
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = P::Fp::one();
        for p in points.iter() {
            prefix.push(acc);
            if !p.z.is_zero() {
                acc *= p.z;
            }
        }
        let mut suffix = acc.inverse().expect("product of nonzero z is nonzero");
        for (p, pre) in points.iter_mut().zip(prefix).rev() {
            if p.z.is_zero() {
                continue;
            }
            let zinv = suffix * pre;
            suffix *= p.z;
            let zinv2 = zinv.square();
            p.x *= zinv2;
            p.y = p.y * zinv2 * zinv;
            p.z = P::Fp::one();
        }
    }

    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Hash fresh randomness to the curve: the resulting point has no
        // known discrete logarithm relative to anything.
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::hash_to_group(b"dlr-random-point", &seed)
    }

    fn to_bytes(&self) -> Vec<u8> {
        let len = Self::byte_len();
        match self.to_affine() {
            None => vec![0u8; len],
            Some((x, y)) => {
                let mut out = Vec::with_capacity(len);
                out.push(4);
                out.extend_from_slice(&x.to_bytes_be());
                out.extend_from_slice(&y.to_bytes_be());
                out
            }
        }
    }

    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::byte_len() {
            return None;
        }
        match bytes[0] {
            0 => {
                if bytes.iter().all(|&b| b == 0) {
                    Some(Self::identity())
                } else {
                    None
                }
            }
            4 => {
                let flen = P::Fp::byte_len();
                let x = P::Fp::from_bytes_be(&bytes[1..1 + flen])?;
                let y = P::Fp::from_bytes_be(&bytes[1 + flen..])?;
                Self::from_affine(x, y)
            }
            _ => None,
        }
    }

    fn byte_len() -> usize {
        1 + 2 * P::Fp::byte_len()
    }

    fn is_in_subgroup(&self) -> bool {
        if !self.is_on_curve() {
            return false;
        }
        self.pow_vartime_limbs(&field_modulus_limbs::<P::Fr>())
            .is_identity()
    }
}

impl<P: SsParams> dlr_math::Erase for G<P>
where
    P::Fp: dlr_math::Erase,
{
    fn erase(&mut self) {
        self.x.erase();
        self.y.erase();
        self.z.erase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Ss512, Toy};
    use rand::SeedableRng;

    type GT = G<Toy>;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn generator_is_valid() {
        let g = GT::generator();
        assert!(g.is_on_curve());
        assert!(!g.is_identity());
        assert!(g.is_in_subgroup());
        // deterministic / cached
        assert_eq!(GT::generator(), GT::generator());
    }

    #[test]
    fn group_laws() {
        let mut r = rng();
        let a = GT::random(&mut r);
        let b = GT::random(&mut r);
        let c = GT::random(&mut r);
        assert_eq!(a.op(&b), b.op(&a));
        assert_eq!(a.op(&b).op(&c), a.op(&b.op(&c)));
        assert_eq!(a.op(&GT::identity()), a);
        assert_eq!(a.op(&a.inverse()), GT::identity());
        assert_eq!(a.raw_double(), a.op(&a));
    }

    #[test]
    fn scalar_mult_distributes() {
        let mut r = rng();
        let g = GT::random(&mut r);
        let s = <Toy as SsParams>::Fr::random(&mut r);
        let t = <Toy as SsParams>::Fr::random(&mut r);
        assert_eq!(g.pow(&s).op(&g.pow(&t)), g.pow(&(s + t)));
        assert_eq!(g.pow(&s).pow(&t), g.pow(&(s * t)));
        assert_eq!(g.pow(&<Toy as SsParams>::Fr::zero()), GT::identity());
        assert_eq!(g.pow(&<Toy as SsParams>::Fr::one()), g);
    }

    #[test]
    fn ladder_matches_pow() {
        let mut r = rng();
        let g = GT::random(&mut r);
        for _ in 0..5 {
            let s = <Toy as SsParams>::Fr::random(&mut r);
            assert_eq!(g.pow_ladder(&s), g.pow(&s));
        }
        assert_eq!(g.pow_ladder(&<Toy as SsParams>::Fr::zero()), GT::identity());
        assert_eq!(g.pow_ladder(&<Toy as SsParams>::Fr::one()), g);
    }

    #[test]
    fn order_annihilates() {
        let mut r = rng();
        let g = GT::random(&mut r);
        assert!(g.is_in_subgroup());
        // g^(r-1) · g == identity
        let rm1 = -<Toy as SsParams>::Fr::one();
        assert_eq!(g.pow(&rm1).op(&g), GT::identity());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut r = rng();
        let a = GT::random(&mut r);
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), GT::byte_len());
        assert_eq!(GT::from_bytes(&bytes), Some(a));
        // identity
        let id = GT::identity();
        assert_eq!(GT::from_bytes(&id.to_bytes()), Some(id));
        // off-curve rejected
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        // either parses to a different valid point (unlikely) or None
        if let Some(p) = GT::from_bytes(&bad) {
            assert!(p.is_on_curve());
            assert_ne!(p, a);
        }
        // wrong length rejected
        assert_eq!(GT::from_bytes(&bytes[1..]), None);
        // garbage tag rejected
        let mut tagged = bytes;
        tagged[0] = 7;
        assert_eq!(GT::from_bytes(&tagged), None);
    }

    #[test]
    fn compressed_roundtrip() {
        let mut r = rng();
        for _ in 0..5 {
            let p = GT::random(&mut r);
            let c = p.to_bytes_compressed();
            assert_eq!(c.len(), 1 + <Toy as SsParams>::Fp::byte_len());
            assert_eq!(GT::from_bytes_compressed(&c), Some(p));
            // strictly smaller than uncompressed
            assert!(c.len() < p.to_bytes().len());
        }
        let id = GT::identity();
        assert_eq!(GT::from_bytes_compressed(&id.to_bytes_compressed()), Some(id));
        assert_eq!(GT::from_bytes_compressed(&[9u8; 17]), None);
        assert_eq!(GT::from_bytes_compressed(&[2u8]), None);
    }

    #[test]
    fn hash_to_group_is_deterministic_and_spread() {
        let p1 = GT::hash_to_group(b"domain", b"m1");
        let p2 = GT::hash_to_group(b"domain", b"m1");
        let p3 = GT::hash_to_group(b"domain", b"m2");
        let p4 = GT::hash_to_group(b"other", b"m1");
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert_ne!(p1, p4);
        assert!(p1.is_in_subgroup());
    }

    #[test]
    fn multiexp_matches_naive() {
        let mut r = rng();
        for n in [0usize, 1, 2, 5, 9] {
            let bases: Vec<GT> = (0..n).map(|_| GT::random(&mut r)).collect();
            let exps: Vec<_> = (0..n)
                .map(|_| <Toy as SsParams>::Fr::random(&mut r))
                .collect();
            let fast = GT::product_of_powers(&bases, &exps);
            let slow = crate::multiexp::naive(&bases, &exps);
            assert_eq!(fast, slow, "n={n}");
        }
    }

    #[test]
    fn equality_across_representations() {
        let mut r = rng();
        let a = GT::random(&mut r);
        let doubled = a.raw_double(); // non-trivial Z
        let affine = doubled.to_affine().unwrap();
        let normalized = GT::from_affine(affine.0, affine.1).unwrap();
        assert_eq!(doubled, normalized);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        doubled.hash(&mut h1);
        normalized.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn ss512_generator_smoke() {
        let g = G::<Ss512>::generator();
        assert!(g.is_on_curve());
        assert!(g.is_in_subgroup());
        let mut r = rng();
        let s = <Ss512 as SsParams>::Fr::random(&mut r);
        let h = g.pow(&s);
        assert!(h.is_on_curve());
        assert_eq!(G::<Ss512>::from_bytes(&h.to_bytes()), Some(h));
    }

    #[test]
    fn ops_are_counted() {
        let mut r = rng();
        let a = GT::random(&mut r);
        let s = <Toy as SsParams>::Fr::random(&mut r);
        let (_, report) = crate::counters::measure(|| {
            let _ = a.op(&a);
            let _ = a.pow(&s);
            let _ = GT::product_of_powers(&[a, a], &[s, s]);
        });
        assert_eq!(report.g_op, 1);
        assert_eq!(report.g_pow, 3); // 1 pow + 2 from the multiexp
    }

    /// The cofactor-clearing ladder against the binary double-and-add
    /// reference ([`crate::multiexp::naive_limbs`]), on points outside the
    /// subgroup.
    mod ladder {
        use super::*;
        use crate::params::{Ss1024, Ss768};
        use proptest::prelude::*;

        /// A uniformly random curve point, almost never in the subgroup.
        fn raw_point<P: SsParams>(r: &mut impl RngCore) -> (P::Fp, P::Fp) {
            loop {
                let x = P::Fp::random(r);
                if let Some(y) = (x.square() * x + x).sqrt() {
                    return (x, y);
                }
            }
        }

        fn naive<P: SsParams>(x: P::Fp, y: P::Fp, k: &[u64]) -> G<P> {
            let p = G::<P>::from_affine(x, y).expect("on the curve");
            crate::multiexp::naive_limbs(&[p], &[k])
        }

        /// `n` random points, each with both signs of `y`.
        fn clears_like_the_binary_chain<P: SsParams>(n: usize, seed: u64) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            for _ in 0..n {
                let (x, y) = raw_point::<P>(&mut r);
                for y in [y, -y] {
                    let cleared = G::<P>::ladder_mul(x, y, P::COFACTOR);
                    assert_eq!(cleared, naive(x, y, P::COFACTOR), "{}", P::NAME);
                    assert!(cleared.is_on_curve());
                }
            }
        }

        #[test]
        fn toy_cofactor_matches_binary_chain() {
            clears_like_the_binary_chain::<Toy>(500, 11);
        }

        #[test]
        fn ss_cofactors_match_binary_chain() {
            clears_like_the_binary_chain::<Ss512>(3, 12);
            clears_like_the_binary_chain::<Ss768>(2, 13);
            clears_like_the_binary_chain::<Ss1024>(2, 14);
        }

        #[test]
        fn two_torsion_point_clears_to_identity() {
            let zero = <Toy as SsParams>::Fp::zero();
            assert_eq!(naive::<Toy>(zero, zero, Toy::COFACTOR), GT::identity());
            assert_eq!(GT::ladder_mul(zero, zero, Toy::COFACTOR), GT::identity());
            assert_eq!(GT::ladder_mul(zero, zero, &[2]), GT::identity());
        }

        /// `[r]H` has order dividing the cofactor, so clearing it gives O
        /// (`Z₂ = 0`) and `hash_to_group` would try the next counter.
        #[test]
        fn cofactor_torsion_clears_to_identity() {
            let r_limbs = field_modulus_limbs::<<Toy as SsParams>::Fr>();
            let mut r = rand::rngs::StdRng::seed_from_u64(15);
            let mut seen = 0;
            while seen < 8 {
                let (x, y) = raw_point::<Toy>(&mut r);
                let Some((tx, ty)) = naive::<Toy>(x, y, &r_limbs).to_affine() else {
                    continue;
                };
                seen += 1;
                assert_eq!(GT::ladder_mul(tx, ty, Toy::COFACTOR), GT::identity());
                assert_eq!(naive::<Toy>(tx, ty, Toy::COFACTOR), GT::identity());
            }
        }

        /// Scalars that reach the ladder's edge branches: `[r]P = O`
        /// (`Z₂ = 0`) and `[r − 1]P = −P` (`Z₃ = 0`), plus the shortest ones.
        #[test]
        fn edge_scalars_on_a_subgroup_point() {
            let (x, y) = GT::random(&mut rng()).to_affine().unwrap();
            let r_limbs = field_modulus_limbs::<<Toy as SsParams>::Fr>();
            let r_minus_1 = [r_limbs[0] - 1];
            let p = GT::from_affine(x, y).unwrap();
            assert_eq!(GT::ladder_mul(x, y, &r_limbs), GT::identity());
            assert_eq!(GT::ladder_mul(x, y, &r_minus_1), p.inverse());
            for k in [0u64, 1, 2, 3, 4, 5] {
                assert_eq!(
                    GT::ladder_mul(x, y, &[k]),
                    naive::<Toy>(x, y, &[k]),
                    "k={k}"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any point, any two-limb scalar: the ladder and the binary
            /// chain agree.
            #[test]
            fn ladder_equals_binary_chain(seed in any::<u64>(), k0 in any::<u64>(), k1 in any::<u64>()) {
                let (x, y) = raw_point::<Toy>(&mut rand::rngs::StdRng::seed_from_u64(seed));
                for k in [&[k0][..], &[k0, k1][..], Toy::COFACTOR] {
                    prop_assert_eq!(GT::ladder_mul(x, y, k), naive::<Toy>(x, y, k));
                }
            }
        }
    }
}
