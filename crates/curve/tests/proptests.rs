//! Property-based tests for the group and pairing layer (TOY parameters —
//! full bilinearity under random scalars, serialization totality).

use dlr_curve::modgroup::{Mini1009, ModGroup};
use dlr_curve::params::FpToy;
use dlr_curve::{multiexp, Group, Pairing, Toy, G};
use dlr_math::{FieldElement, Fp2};
use proptest::prelude::*;
use rand::SeedableRng;

type Fr = <Toy as Pairing>::Scalar;
type Gt = <Toy as Pairing>::Gt;

fn point(seed: u64) -> G<Toy> {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    G::random(&mut r)
}

fn scalar(seed: u64) -> Fr {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed ^ 0xdead);
    Fr::random(&mut r)
}

/// A unitary `GT` element: in `μ_r` for even seeds, `z̄/z` for a random
/// `z` (norm 1, almost surely outside `μ_r`) for odd ones.
fn gt_element(seed: u64) -> Gt {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6774);
    if seed.is_multiple_of(2) {
        return Gt::random(&mut r);
    }
    loop {
        let z = Fp2::<FpToy>::random(&mut r);
        if let Some(inv) = z.inverse() {
            return Gt::from_bytes(&(z.conjugate() * inv).to_bytes_be()).expect("norm 1");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn group_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (p, q, w) = (point(a), point(b), point(c));
        prop_assert_eq!(p.op(&q), q.op(&p));
        prop_assert_eq!(p.op(&q).op(&w), p.op(&q.op(&w)));
        prop_assert_eq!(p.op(&p.inverse()), G::<Toy>::identity());
        prop_assert!(p.is_on_curve());
        prop_assert!(p.is_in_subgroup());
    }

    #[test]
    fn exponent_homomorphism(a in any::<u64>(), x in any::<u64>(), y in any::<u64>()) {
        let p = point(a);
        let (s, t) = (scalar(x), scalar(y));
        prop_assert_eq!(p.pow(&s).op(&p.pow(&t)), p.pow(&(s + t)));
        prop_assert_eq!(p.pow(&s).pow(&t), p.pow(&(s * t)));
        prop_assert_eq!(p.pow(&s).inverse(), p.pow(&(-s)));
    }

    #[test]
    fn bilinearity_random_everything(a in any::<u64>(), b in any::<u64>(), x in any::<u64>(), y in any::<u64>()) {
        let (p, q) = (point(a), point(b));
        let (s, t) = (scalar(x), scalar(y));
        prop_assert_eq!(
            Toy::pair(&p.pow(&s), &q.pow(&t)),
            Toy::pair(&p, &q).pow(&(s * t))
        );
        prop_assert_eq!(Toy::pair(&p, &q), Toy::pair(&q, &p));
    }

    #[test]
    fn pairing_product_rule(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (p, q, w) = (point(a), point(b), point(c));
        prop_assert_eq!(
            Toy::pair(&p.op(&q), &w),
            Toy::pair(&p, &w).op(&Toy::pair(&q, &w))
        );
    }

    #[test]
    fn serialization_roundtrip_g_and_gt(a in any::<u64>(), x in any::<u64>()) {
        let p = point(a);
        prop_assert_eq!(G::<Toy>::from_bytes(&p.to_bytes()), Some(p));
        let e = Toy::pair(&p, &G::generator()).pow(&scalar(x));
        prop_assert_eq!(Gt::from_bytes(&e.to_bytes()), Some(e));
    }

    #[test]
    fn decoders_total(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = G::<Toy>::from_bytes(&bytes);
        let _ = Gt::from_bytes(&bytes);
        let _ = ModGroup::<Mini1009>::from_bytes(&bytes);
    }

    #[test]
    fn multiexp_agreement(seeds in proptest::collection::vec(any::<u64>(), 0..8)) {
        let bases: Vec<G<Toy>> = seeds.iter().map(|&s| point(s)).collect();
        let exps: Vec<Fr> = seeds.iter().map(|&s| scalar(s)).collect();
        prop_assert_eq!(
            G::product_of_powers(&bases, &exps),
            multiexp::naive(&bases, &exps)
        );
    }

    #[test]
    fn gt_multiexp_agreement(seeds in proptest::collection::vec(any::<u64>(), 0..20)) {
        // GT's signed-window engine against one pow per base: zero and
        // r − 1 exponents, and norm-1 bases outside μ_r (z̄/z), included.
        let bases: Vec<Gt> = seeds.iter().map(|&s| gt_element(s)).collect();
        let exps: Vec<Fr> = seeds
            .iter()
            .map(|&s| match s % 5 {
                0 => Fr::zero(),
                1 => -Fr::one(),
                _ => scalar(s),
            })
            .collect();
        prop_assert_eq!(
            Gt::product_of_powers(&bases, &exps),
            multiexp::naive(&bases, &exps)
        );
    }

    #[test]
    fn hash_to_group_lands_in_subgroup(msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let p = G::<Toy>::hash_to_group(b"prop-domain", &msg);
        prop_assert!(p.is_in_subgroup());
        prop_assert!(!p.is_identity());
        // deterministic
        prop_assert_eq!(G::<Toy>::hash_to_group(b"prop-domain", &msg), p);
    }

    #[test]
    fn mini_group_pow_matches_dlog(k in 0u64..1009) {
        let g = ModGroup::<Mini1009>::generator();
        let p = g.pow_vartime_limbs(&[k]);
        prop_assert_eq!(p.dlog(), k);
    }
}
