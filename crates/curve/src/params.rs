//! Supersingular-curve parameter sets.
//!
//! All sets share the curve shape `E : y² = x³ + x` over `F_p` with
//! `p ≡ 3 (mod 4)`, which makes `E` supersingular with `#E(F_p) = p + 1`
//! and embedding degree 2. The subgroup order `r` is prime with
//! `p = c·r − 1` (so `c = (p+1)/r` is the cofactor and `r | p + 1`).
//! The distortion map `φ(x, y) = (−x, i·y)` (with `i² = −1` in `F_{p²}`)
//! turns the Tate pairing into a **symmetric** pairing
//! `ê(P, Q) = e(P, φ(Q))` — exactly the Type-1 map `e : G × G → GT` the
//! paper's parameter generator outputs.
//!
//! Parameters were produced by a seeded search (`tools/paramgen.py`): pick
//! a prime `r`, then scan cofactors `c ≡ 0 (mod 4)` until `p = c·r − 1` is
//! prime (then `p ≡ 3 (mod 4)` automatically since `4 | c` and `r` is odd).
//! The `params_validate` tests below re-verify primality and the arithmetic
//! relations from scratch on every test run.
//!
//! | set    | log₂ p | log₂ r | `F_{p²}` | estimated security |
//! |--------|--------|--------|----------|--------------------|
//! | TOY    | 71     | 63     | 142 bits | none: fast unit tests & leakage-game simulation |
//! | SS512  | 512    | 256    | 1024 bits | well under 100 bits (RSA-1024 class); benchmarks only |
//! | SS768  | 768    | 256    | 1536 bits | between SS512 and SS1024, below the ~110-bit range |
//! | SS1024 | 1024   | 256    | 2048 bits | ~110 bits: the first SS set in that range |
//!
//! Security of Type-1 curves is governed by the discrete log in `F_{p²}`,
//! not by `r` (Pollard rho in a 256-bit group costs ~2¹²⁸). The estimates
//! follow the published reassessments after the (ex)TNFS advances:
//! Menezes–Sarkar–Singh, "Challenges with assessing the impact of NFS
//! advances on the security of pairing-based cryptography" (Mycrypt 2016),
//! and Barbulescu–Duquesne, "Updating key size estimations for pairings"
//! (J. Cryptology 2019). They are estimates from the literature, not a
//! production security review of these parameters.

use core::fmt::Debug;
use core::hash::Hash;
use dlr_math::define_prime_field;
use std::sync::OnceLock;

define_prime_field!(
    /// Base field of the TOY curve (71-bit prime, `p ≡ 3 (mod 4)`).
    pub struct FpToy, 2, "0x42ae6467338a04eeeb"
);
define_prime_field!(
    /// Scalar field of the TOY curve (63-bit prime subgroup order).
    pub struct FrToy, 1, "0x5ed5e420ff583487"
);
define_prime_field!(
    /// Base field of SS512 (512-bit prime).
    pub struct Fp512, 8, "0x8000000000000000000000000000000000000000000000000000000000000018ba4ede9892a3b3a5815cab04f516ffb1a9221cd8a5599e9c3c9137d92713e5eb"
);
define_prime_field!(
    /// Shared 256-bit scalar field of SS512/SS768/SS1024.
    pub struct Fr256, 4, "0x9c7b55f33f4a555666c8d7baaa676515d2f48907cb57039e9d59f778aec33793"
);
define_prime_field!(
    /// Base field of SS768 (768-bit prime).
    pub struct Fp768, 12, "0x800000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000004129218e4727200ea510294ff0748b7f3b9e1a9175cce37ae470f806bb6b49c41b3"
);
define_prime_field!(
    /// Base field of SS1024 (1024-bit prime).
    pub struct Fp1024, 16, "0x800000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000025da9ed8b266a7383988013e410c5f981d97fcabbae36e1834e86e45ea9bb92703"
);

/// A supersingular Type-1 parameter set.
///
/// This trait is implemented by the zero-sized marker types [`Toy`],
/// [`Ss512`], [`Ss768`], [`Ss1024`]; downstream code is generic over it
/// (usually through the [`Pairing`](crate::traits::Pairing) impl).
pub trait SsParams:
    Sized + Copy + Clone + Debug + PartialEq + Eq + Hash + Send + Sync + Default + 'static
{
    /// Base field `F_p`.
    type Fp: dlr_math::PrimeField;
    /// Scalar field `Z_r` (prime subgroup order; the paper's `Z_p`).
    type Fr: dlr_math::PrimeField;
    /// Parameter-set name.
    const NAME: &'static str;
    /// Cofactor `c = (p+1)/r`, little-endian limbs.
    const COFACTOR: &'static [u64];
    /// Domain-separation seed for deterministic generator derivation.
    const GENERATOR_DOMAIN: &'static [u8];

    /// The process-wide typed cache cell for this parameter set: the
    /// derived generators and their fixed-base exponentiation tables.
    /// Generic code cannot declare a `static` whose type mentions a type
    /// parameter, so each concrete set carries its own cell — every impl
    /// is the same two lines (see [`Toy`]'s).
    fn caches() -> &'static ParamCaches<Self>;
}

/// Typed per-parameter-set caches (see [`SsParams::caches`]).
///
/// Replaces the former process-global `Mutex<HashMap<TypeId, bytes>>`
/// generator caches, which re-deserialized (and for the curve, re-solved a
/// square root) on every `generator()` call — on the encrypt hot path.
/// Here the element is stored typed and handed out by copy.
pub struct ParamCaches<P: SsParams> {
    /// The cached source-group generator.
    pub g_generator: OnceLock<crate::curve::G<P>>,
    /// The cached target-group generator `e(g, g)`.
    pub gt_generator: OnceLock<crate::gt::Gt<P>>,
    /// Fixed-base tables for the source generator.
    pub g_table: OnceLock<crate::fixedbase::FixedBase<crate::curve::G<P>>>,
    /// Fixed-base tables for the target generator.
    pub gt_table: OnceLock<crate::fixedbase::FixedBase<crate::gt::Gt<P>>>,
}

impl<P: SsParams> ParamCaches<P> {
    /// An empty cell, usable in `static` initializers.
    pub const fn new() -> Self {
        Self {
            g_generator: OnceLock::new(),
            gt_generator: OnceLock::new(),
            g_table: OnceLock::new(),
            gt_table: OnceLock::new(),
        }
    }
}

impl<P: SsParams> Default for ParamCaches<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// TOY parameter set: 71-bit base field for fast tests and simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Toy;

impl SsParams for Toy {
    type Fp = FpToy;
    type Fr = FrToy;
    const NAME: &'static str = "TOY";
    const COFACTOR: &'static [u64] = &[0xb4];
    const GENERATOR_DOMAIN: &'static [u8] = b"dlr-toy-generator";

    fn caches() -> &'static ParamCaches<Self> {
        static CACHES: ParamCaches<Toy> = ParamCaches::new();
        &CACHES
    }
}

const C512: [u64; 4] =
    dlr_math::limbs::parse_hex("0xd16791f07120ce6adfadd171339ecd9e695ed629d5e1ab2b64c64197c9a25de4");
const C768: [u64; 8] = dlr_math::limbs::parse_hex("0xd16791f07120ce6adfadd171339ecd9e695ed629d5e1ab2b64c64197c9a25dbb8bc91b933af06c0a09d588faf465864511d6f944e1050eff21d7a6d8f9265ffc");
const C1024: [u64; 12] = dlr_math::limbs::parse_hex("0xd16791f07120ce6adfadd171339ecd9e695ed629d5e1ab2b64c64197c9a25dbb8bc91b933af06c0a09d588faf465864511d6f944e1050eff21d7a6d8f926595261dd1b09bc1cff6b4da0194f10c8d5b382229cf6ec3cca4628b5816467d2976c");

/// SS512 parameter set: 512-bit base field, 256-bit subgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ss512;

impl SsParams for Ss512 {
    type Fp = Fp512;
    type Fr = Fr256;
    const NAME: &'static str = "SS512";
    const COFACTOR: &'static [u64] = &C512;
    const GENERATOR_DOMAIN: &'static [u8] = b"dlr-ss512-generator";

    fn caches() -> &'static ParamCaches<Self> {
        static CACHES: ParamCaches<Ss512> = ParamCaches::new();
        &CACHES
    }
}

/// SS768 parameter set: 768-bit base field, 256-bit subgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ss768;

impl SsParams for Ss768 {
    type Fp = Fp768;
    type Fr = Fr256;
    const NAME: &'static str = "SS768";
    const COFACTOR: &'static [u64] = &C768;
    const GENERATOR_DOMAIN: &'static [u8] = b"dlr-ss768-generator";

    fn caches() -> &'static ParamCaches<Self> {
        static CACHES: ParamCaches<Ss768> = ParamCaches::new();
        &CACHES
    }
}

/// SS1024 parameter set: 1024-bit base field, 256-bit subgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ss1024;

impl SsParams for Ss1024 {
    type Fp = Fp1024;
    type Fr = Fr256;
    const NAME: &'static str = "SS1024";
    const COFACTOR: &'static [u64] = &C1024;
    const GENERATOR_DOMAIN: &'static [u8] = b"dlr-ss1024-generator";

    fn caches() -> &'static ParamCaches<Self> {
        static CACHES: ParamCaches<Ss1024> = ParamCaches::new();
        &CACHES
    }
}

#[cfg(test)]
mod params_validate {
    use super::*;
    use dlr_math::mont::is_probable_prime;
    use dlr_math::PrimeField;
    use rand::SeedableRng;

    /// Big-endian bytes to little-endian `u64` limbs.
    fn to_limbs(be: &[u8]) -> Vec<u64> {
        let mut le: Vec<u8> = be.to_vec();
        le.reverse();
        le.chunks(8)
            .map(|ch| {
                let mut b = [0u8; 8];
                b[..ch.len()].copy_from_slice(ch);
                u64::from_le_bytes(b)
            })
            .collect()
    }

    /// Schoolbook `c · r` into a wide accumulator, then compare to `p + 1`.
    fn check_cofactor_relation(p_be: &[u8], r_be: &[u8], c: &[u64]) {
        let r = to_limbs(r_be);
        let p = to_limbs(p_be);
        let mut prod = vec![0u64; r.len() + c.len() + 1];
        for (i, &ci) in c.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &rj) in r.iter().enumerate() {
                let t = prod[i + j] as u128 + ci as u128 * rj as u128 + carry;
                prod[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + r.len();
            while carry > 0 {
                let t = prod[k] as u128 + carry;
                prod[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        // subtract 1
        let mut borrow = 1u64;
        for limb in prod.iter_mut() {
            let (d, b) = limb.overflowing_sub(borrow);
            *limb = d;
            borrow = b as u64;
            if borrow == 0 {
                break;
            }
        }
        // compare with p (zero-extended)
        for (i, limb) in prod.iter().enumerate() {
            let expect = p.get(i).copied().unwrap_or(0);
            assert_eq!(*limb, expect, "c*r - 1 != p at limb {i}");
        }
    }

    /// `gcd(c + 1, p + 1) = 1`: no curve point has `[c]P = −P` (that needs
    /// `ord(P) | c + 1`, and `ord(P) | p + 1`), so the cofactor ladder's
    /// `Z₃ = 0` branch is unreachable from `hash_to_group`.
    fn check_cofactor_successor_coprime(p_be: &[u8], c: &[u64]) {
        use dlr_math::bignum;
        let mut a = bignum::add(c, &[1]);
        let mut b = bignum::normalize(bignum::add(&to_limbs(p_be), &[1]));
        while !b.is_empty() {
            let (_, rem) = bignum::div_rem(&a, &b);
            a = std::mem::replace(&mut b, bignum::normalize(rem));
        }
        assert_eq!(bignum::normalize(a), [1], "gcd(c + 1, p + 1) != 1");
    }

    fn validate<P: SsParams, const LP: usize, const LR: usize>() {
        let p = dlr_math::limbs::from_bytes_be::<LP>(&P::Fp::modulus_be_bytes()).unwrap();
        let r = dlr_math::limbs::from_bytes_be::<LR>(&P::Fr::modulus_be_bytes()).unwrap();
        assert!(is_probable_prime(&p), "{}: p not prime", P::NAME);
        assert!(is_probable_prime(&r), "{}: r not prime", P::NAME);
        assert_eq!(p[0] & 3, 3, "{}: p != 3 mod 4", P::NAME);
        assert!(P::Fp::modulus_is_3_mod_4());
        check_cofactor_relation(
            &P::Fp::modulus_be_bytes(),
            &P::Fr::modulus_be_bytes(),
            P::COFACTOR,
        );
        check_cofactor_successor_coprime(&P::Fp::modulus_be_bytes(), P::COFACTOR);
    }

    #[test]
    fn toy() {
        validate::<Toy, 2, 1>();
    }

    #[test]
    fn ss512() {
        validate::<Ss512, 8, 4>();
    }

    #[test]
    fn ss768() {
        validate::<Ss768, 12, 4>();
    }

    #[test]
    fn ss1024() {
        validate::<Ss1024, 16, 4>();
    }

    /// Differential check of the lazy-reduction `F_{p²}` arithmetic at the
    /// production field widths (the math-crate tests cover a 1-limb field;
    /// multi-limb overflow behaviour only shows up here).
    fn lazy_fp2_differential<F: dlr_math::PrimeField>() {
        use dlr_math::{FieldElement, Fp2};
        let mut r = rand::rngs::StdRng::seed_from_u64(9);
        let mut pool: Vec<Fp2<F>> = (0..16).map(|_| Fp2::random(&mut r)).collect();
        let pm1 = -F::one();
        for &x in &[F::zero(), F::one(), pm1] {
            for &y in &[F::zero(), F::one(), pm1] {
                pool.push(Fp2::new(x, y));
            }
        }
        for a in &pool {
            for b in &pool {
                assert_eq!(*a * *b, a.mul_reduced_reference(b));
            }
            assert_eq!(a.square(), a.mul_reduced_reference(a));
            assert_eq!(a.norm(), a.c0 * a.c0 + a.c1 * a.c1);
        }
        // Long p−1-valued accumulation: stresses the overflow limb.
        let worst = Fp2::new(pm1, pm1);
        let (a, b) = (vec![worst; 129], vec![worst; 129]);
        let expect = a
            .iter()
            .zip(b.iter())
            .fold(Fp2::zero(), |acc, (x, y)| acc + x.mul_reduced_reference(y));
        assert_eq!(Fp2::sum_of_products(&a, &b), expect);
    }

    #[test]
    fn lazy_fp2_differential_toy_field() {
        lazy_fp2_differential::<FpToy>();
    }

    #[test]
    fn lazy_fp2_differential_ss512_field() {
        lazy_fp2_differential::<Fp512>();
    }

    #[test]
    fn modulus_bit_lengths() {
        assert_eq!(FpToy::modulus_bits(), 71);
        assert_eq!(FrToy::modulus_bits(), 63);
        assert_eq!(Fp512::modulus_bits(), 512);
        assert_eq!(Fr256::modulus_bits(), 256);
        assert_eq!(Fp768::modulus_bits(), 768);
        assert_eq!(Fp1024::modulus_bits(), 1024);
    }
}
