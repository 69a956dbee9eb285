//! A7 — ablation: the fixed-base exponentiation engine vs naive pow.
//!
//! Four comparisons on the encryption hot-path shape:
//!
//! * `encrypt/fixed` vs `encrypt/naive` — `Enc_pk(m) = (g^t, m·z^t)`
//!   through the cached comb tables (`generator_pow` + `pow_z`) vs the
//!   same formula recomputed with the generic sliding-window `pow`. The
//!   headline claim (≥3× at SS512) lives here; the bench first *asserts*
//!   that both paths produce bit-identical ciphertexts with byte-identical
//!   op counts, so the speedup is pure table reuse, not a changed formula.
//! * `generator_pow/fixed` vs `generator_pow/naive` — the `g^t` half in
//!   isolation, Toy and SS512.
//! * `varbase_pow/window` vs `varbase_pow/ladder` — the signed-window
//!   variable-base engine vs the Montgomery ladder (no tables for either).
//! * `hpske_pow/tables` vs `hpske_pow/direct` — coordinate-wise ciphertext
//!   powers through [`HpskeTables`] vs `HpskeCiphertext::pow`, the
//!   period-fixed-element shape of `CommMode::Reuse`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlr_core::dlr::{self, Ciphertext, PublicKey};
use dlr_core::hpske::{self, HpskeKey, HpskeTables};
use dlr_core::params::SchemeParams;
use dlr_curve::counters::measure;
use dlr_curve::{FixedBase, Group, Pairing, Ss512, Toy, G};
use dlr_math::FieldElement;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The same `(g^t, m·z^t)` formula with no fixed-base tables anywhere:
/// generic sliding-window pow on the generator and on `z`.
fn naive_encrypt<E: Pairing>(pk: &PublicKey<E>, m: &E::Gt, t: &E::Scalar) -> Ciphertext<E> {
    Ciphertext {
        big_a: E::G1::generator().pow(t),
        big_b: m.op(&pk.z.pow(t)),
    }
}

/// Both encrypt paths must be indistinguishable to everything but the
/// clock: same ciphertext bytes, same operation counts.
fn assert_encrypt_parity<E: Pairing>(pk: &PublicKey<E>, m: &E::Gt, t: &E::Scalar) {
    pk.warm();
    let (fixed, fixed_ops) = measure(|| dlr::encrypt_with_randomness(pk, m, t));
    let (naive, naive_ops) = measure(|| naive_encrypt(pk, m, t));
    assert_eq!(fixed.to_bytes(), naive.to_bytes(), "ciphertexts diverged");
    assert_eq!(fixed_ops, naive_ops, "op counts diverged");
}

fn keygen<E: Pairing>(seed: u64) -> (PublicKey<E>, E::Scalar, E::Gt) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = SchemeParams::derive::<E::Scalar>(16, 64);
    let (pk, _s1, _s2) = dlr::keygen::<E, _>(params, &mut rng);
    let t = E::Scalar::random(&mut rng);
    let m = E::Gt::random(&mut rng);
    (pk, t, m)
}

fn benches(c: &mut Criterion) {
    // --- encrypt: cached tables vs naive, Toy and SS512 -------------------
    {
        let mut group = c.benchmark_group("a7/encrypt");
        macro_rules! encrypt_pair {
            ($P:ty, $label:literal, $seed:literal) => {{
                let (pk, t, m) = keygen::<$P>($seed);
                assert_encrypt_parity(&pk, &m, &t);
                group.bench_with_input(BenchmarkId::new("naive", $label), &(), |b, _| {
                    b.iter(|| naive_encrypt(&pk, &m, &t))
                });
                group.bench_with_input(BenchmarkId::new("fixed", $label), &(), |b, _| {
                    b.iter(|| dlr::encrypt_with_randomness(&pk, &m, &t))
                });
            }};
        }
        encrypt_pair!(Toy, "toy", 41);
        encrypt_pair!(Ss512, "ss512", 42);
        group.finish();
    }

    // --- generator_pow in isolation --------------------------------------
    {
        let mut group = c.benchmark_group("a7/generator_pow");
        macro_rules! gen_pair {
            ($P:ty, $label:literal, $seed:literal) => {{
                let mut rng = StdRng::seed_from_u64($seed);
                let t = <G<$P> as Group>::Scalar::random(&mut rng);
                <G<$P>>::warm_generator_tables();
                assert_eq!(<G<$P>>::generator_pow(&t), <G<$P>>::generator().pow(&t));
                group.bench_with_input(BenchmarkId::new("naive", $label), &(), |b, _| {
                    b.iter(|| <G<$P>>::generator().pow(&t))
                });
                group.bench_with_input(BenchmarkId::new("fixed", $label), &(), |b, _| {
                    b.iter(|| <G<$P>>::generator_pow(&t))
                });
            }};
        }
        gen_pair!(Toy, "toy", 43);
        gen_pair!(Ss512, "ss512", 44);
        group.finish();
    }

    // --- variable-base: signed window vs ladder ---------------------------
    {
        let mut group = c.benchmark_group("a7/varbase_pow");
        let mut rng = StdRng::seed_from_u64(45);
        let base = G::<Ss512>::random(&mut rng);
        let t = <G<Ss512> as Group>::Scalar::random(&mut rng);
        assert_eq!(base.pow(&t), base.pow_ladder(&t));
        group.bench_with_input(BenchmarkId::new("ladder", "ss512"), &(), |b, _| b.iter(|| base.pow_ladder(&t)));
        group.bench_with_input(BenchmarkId::new("window", "ss512"), &(), |b, _| b.iter(|| base.pow(&t)));
        // table-build cost, for the DESIGN.md break-even discussion
        group.bench_with_input(BenchmarkId::new("comb_build", "ss512"), &(), |b, _| b.iter(|| FixedBase::new(&base)));
        group.bench_with_input(BenchmarkId::new("comb_eval", "ss512"), &(), |b, _| {
            let table = FixedBase::new(&base);
            b.iter(|| table.pow_fixed(&t))
        });
        group.finish();
    }

    // --- HPSKE period-fixed ciphertext powers ------------------------------
    {
        let mut group = c.benchmark_group("a7/hpske_pow");
        let mut rng = StdRng::seed_from_u64(46);
        let key = HpskeKey::generate(4, &mut rng);
        let m = G::<Ss512>::random(&mut rng);
        let ct = hpske::encrypt(&key, &m, &mut rng);
        let tables = HpskeTables::new(&ct);
        let s = <G<Ss512> as Group>::Scalar::random(&mut rng);
        assert_eq!(tables.pow_fixed(&s), ct.pow(&s));
        group.bench_with_input(BenchmarkId::new("direct", "ss512"), &(), |b, _| b.iter(|| ct.pow(&s)));
        group.bench_with_input(BenchmarkId::new("tables", "ss512"), &(), |b, _| b.iter(|| tables.pow_fixed(&s)));
        group.finish();
    }
}

criterion_group! {
    name = a7;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = benches
}
criterion_main!(a7);
