//! Property-based tests (proptest) over the public API: algebraic
//! invariants of the schemes and fuzzing of every decoder.

use dlr::core::hpske::{self, HpskeCiphertext, HpskeKey};
use dlr::core::{dlr as scheme, kem, pss};
use dlr::curve::modgroup::{Mini1009, ModGroup};
use dlr::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

type MG = ModGroup<Mini1009>;
type MgScalar = <MG as Group>::Scalar;
type E = Toy;

fn rng_from(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn toy_params() -> SchemeParams {
    SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pss_roundtrip_any_length(seed in 0u64..1000, ell in 1usize..12) {
        let mut r = rng_from(seed);
        let key = pss::generate::<MG, _>(ell, &mut r);
        let m = MG::random(&mut r);
        let ct = pss::encrypt(&key, &m, &mut r);
        prop_assert_eq!(pss::decrypt(&key, &ct), Some(m));
    }

    #[test]
    fn hpske_homomorphism_random_products(seed in 0u64..1000, kappa in 1usize..6, n in 1usize..6) {
        let mut r = rng_from(seed);
        let key: HpskeKey<MgScalar> = HpskeKey::generate(kappa, &mut r);
        let ms: Vec<MG> = (0..n).map(|_| MG::random(&mut r)).collect();
        let es: Vec<MgScalar> = (0..n).map(|_| FieldElement::random(&mut r)).collect();
        let cts: Vec<_> = ms.iter().map(|m| hpske::encrypt(&key, m, &mut r)).collect();
        let combined = HpskeCiphertext::product_of_powers(&cts, &es);
        let expect = MG::product_of_powers(&ms, &es);
        prop_assert_eq!(hpske::decrypt(&key, &combined), Some(expect));
    }

    #[test]
    fn hpske_mul_div_inverse(seed in 0u64..1000) {
        let mut r = rng_from(seed);
        let key: HpskeKey<MgScalar> = HpskeKey::generate(3, &mut r);
        let m0 = MG::random(&mut r);
        let m1 = MG::random(&mut r);
        let c0 = hpske::encrypt(&key, &m0, &mut r);
        let c1 = hpske::encrypt(&key, &m1, &mut r);
        prop_assert_eq!(hpske::decrypt(&key, &c0.mul(&c1).div(&c1)), Some(m0));
    }

    #[test]
    fn dlr_roundtrip_survives_random_refresh_schedule(seed in 0u64..200, schedule in proptest::collection::vec(any::<bool>(), 1..6)) {
        let mut r = rng_from(seed);
        let (pk, s1, s2) = scheme::keygen::<E, _>(toy_params(), &mut r);
        let mut p1 = scheme::Party1::new(pk.clone(), s1);
        let mut p2 = scheme::Party2::new(pk.clone(), s2);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = scheme::encrypt(&pk, &m, &mut r);
        for &do_refresh in &schedule {
            if do_refresh {
                scheme::refresh_local(&mut p1, &mut p2, &mut r).unwrap();
            } else {
                prop_assert_eq!(scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
            }
        }
        prop_assert_eq!(scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
    }

    #[test]
    fn ciphertext_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // arbitrary bytes: must cleanly parse or error, never panic
        let _ = scheme::Ciphertext::<E>::from_bytes(&bytes);
    }

    #[test]
    fn message_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let params = toy_params();
        let _ = scheme::DecMsg1::<E>::from_bytes(&bytes, &params);
        let _ = scheme::DecMsg2::<E>::from_bytes(&bytes, &params);
        let _ = scheme::RefMsg1::<E>::from_bytes(&bytes, &params);
        let _ = scheme::RefMsg2::<E>::from_bytes(&bytes, &params);
    }

    #[test]
    fn kem_rejects_any_single_bitflip(seed in 0u64..50, flip_byte in 0usize..64, flip_bit in 0usize..8) {
        let mut r = rng_from(seed);
        let (pk, s1, s2) = scheme::keygen::<E, _>(toy_params(), &mut r);
        let mut p1 = scheme::Party1::new(pk.clone(), s1);
        let mut p2 = scheme::Party2::new(pk.clone(), s2);
        let mut ct = kem::seal(&pk, b"integrity matters here", &mut r);
        let idx = flip_byte % ct.dem.body.len();
        ct.dem.body[idx] ^= 1 << flip_bit;
        prop_assert!(kem::open_local(&mut p1, &mut p2, &ct, &mut r).is_err());
    }

    #[test]
    fn encryption_is_randomized(seed in 0u64..500) {
        let mut r = rng_from(seed);
        let (pk, _s1, _s2) = scheme::keygen::<E, _>(toy_params(), &mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let c1 = scheme::encrypt(&pk, &m, &mut r);
        let c2 = scheme::encrypt(&pk, &m, &mut r);
        prop_assert_ne!(c1, c2);
    }

    #[test]
    fn rerandomize_preserves_plaintext_and_changes_bytes(seed in 0u64..200) {
        let mut r = rng_from(seed);
        let (pk, s1, s2) = scheme::keygen::<E, _>(toy_params(), &mut r);
        let mut p1 = scheme::Party1::new(pk.clone(), s1);
        let mut p2 = scheme::Party2::new(pk.clone(), s2);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = scheme::encrypt(&pk, &m, &mut r);
        let ct2 = scheme::rerandomize(&pk, &ct, &mut r);
        prop_assert_ne!(ct.to_bytes(), ct2.to_bytes());
        prop_assert_eq!(scheme::decrypt_local(&mut p1, &mut p2, &ct2, &mut r).unwrap(), m);
    }
}

// ---------------------------------------------------------------------------
// Differential tests for the exponentiation engines: the comb-table
// `FixedBase::pow_fixed` and the sliding-window `pow`/`pow_vartime_limbs`
// must agree bit-for-bit with the Montgomery ladder (`pow_ladder`) on every
// backend, including the edge scalars the window recoders are most likely
// to mishandle (zero, one, r−1, lone high bits, sparse multi-limb values).
// ---------------------------------------------------------------------------

use dlr::bls12;
use dlr::curve::{FixedBase, G, Gt};

/// Reference square-and-multiply over a raw limb slice (MSB first).
fn naive_pow_limbs<Grp: Group>(base: &Grp, exp: &[u64]) -> Grp {
    let mut acc = Grp::identity();
    for i in (0..64 * exp.len() as u32).rev() {
        acc = acc.raw_double();
        if (exp[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
            acc = acc.raw_op(base);
        }
    }
    acc
}

/// Scalars exercising recoder edge cases (values reduce mod r on small
/// fields, which is itself a case worth hitting).
fn edge_scalars<F: PrimeField>() -> Vec<F> {
    let two64 = F::from_u64(1 << 32) * F::from_u64(1 << 32);
    vec![
        F::zero(),
        F::one(),
        F::zero() - F::one(),                            // r − 1
        F::from_u64(2),
        F::from_u64(1 << 62),                            // lone bit, limb 0
        two64,                                           // lone bit 64
        two64 * F::from_u64(2) + F::one(),               // sparse: bits 65, 0
        two64 * two64 + F::from_u64(0xdead_beef),        // bit 128 + low limb
    ]
}

fn assert_pow_engines_agree<Grp: Group>(
    base: &Grp,
    scalars: &[Grp::Scalar],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let table = FixedBase::new(base);
    for s in scalars {
        let ladder = base.pow_ladder(s);
        prop_assert_eq!(base.pow(s), ladder);
        prop_assert_eq!(table.pow_fixed(s), ladder);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pow_engines_agree_on_toy(seed in 0u64..1000) {
        let mut r = rng_from(seed);
        let mut scalars = edge_scalars::<<G<Toy> as Group>::Scalar>();
        scalars.extend((0..4).map(|_| <G<Toy> as Group>::Scalar::random(&mut r)));
        assert_pow_engines_agree(&G::<Toy>::random(&mut r), &scalars)?;
        assert_pow_engines_agree(&Gt::<Toy>::random(&mut r), &scalars)?;
    }

    #[test]
    fn vartime_limbs_matches_binary_chain(
        seed in 0u64..1000,
        limbs in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..5),
    ) {
        // Arbitrary limb slices — including values far above the group
        // order, as used by subgroup checks and the cofactor reference.
        let mut r = rng_from(seed);
        let g = G::<Toy>::random(&mut r);
        prop_assert_eq!(g.pow_vartime_limbs(&limbs), naive_pow_limbs(&g, &limbs));
        let t = Gt::<Toy>::random(&mut r);
        prop_assert_eq!(t.pow_vartime_limbs(&limbs), naive_pow_limbs(&t, &limbs));
    }
}

proptest! {
    // 512-bit and BLS12-381 group ops are orders of magnitude slower than
    // Toy's; a few random cases on top of the fixed edge set suffice.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn pow_engines_agree_on_ss512(seed in 0u64..100) {
        let mut r = rng_from(seed);
        let mut scalars = edge_scalars::<<G<Ss512> as Group>::Scalar>();
        scalars.push(<G<Ss512> as Group>::Scalar::random(&mut r));
        assert_pow_engines_agree(&G::<Ss512>::random(&mut r), &scalars)?;
    }

    #[test]
    fn pow_engines_agree_on_bls12(seed in 0u64..100) {
        let mut r = rng_from(seed);
        let mut scalars = edge_scalars::<bls12::Fr>();
        scalars.push(bls12::Fr::random(&mut r));
        assert_pow_engines_agree(&bls12::G1::random(&mut r), &scalars)?;
        assert_pow_engines_agree(&bls12::G2::random(&mut r), &scalars)?;
        assert_pow_engines_agree(&bls12::Gt::random(&mut r), &scalars)?;
    }
}
