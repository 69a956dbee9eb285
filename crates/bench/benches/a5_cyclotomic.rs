//! A5 — ablation: cyclotomic vs plain squaring in the BLS12-381 target
//! group (the inner loop of the final exponentiation), and a 256-bit power
//! by the plain square-and-multiply against the `Gt` engine.

use criterion::{criterion_group, criterion_main, Criterion};
use dlr_bls12::fq12::Fq12;
use dlr_bls12::pairing::{final_exponentiation, Gt};
use dlr_curve::Group;
use dlr_math::FieldElement;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(31);
    let f = Fq12::random(&mut rng);
    let u = final_exponentiation(&f).expect("nonzero"); // unitary, order r

    c.bench_function("a5/fq12-square-plain", |b| b.iter(|| u.square()));
    c.bench_function("a5/fq12-square-cyclotomic", |b| {
        b.iter(|| u.cyclotomic_square())
    });
    c.bench_function("a5/fq12-pow256-plain", |b| {
        b.iter(|| u.pow_vartime(&[u64::MAX, u64::MAX, u64::MAX, u64::MAX]))
    });
    // The same power through `Gt`'s exponentiation engine: signed windows,
    // cyclotomic squarings, conjugate inverses.
    let gt = Gt::from_bytes(&u.to_bytes_be()).expect("unitary");
    c.bench_function("a5/fq12-pow256-cyclotomic", |b| {
        b.iter(|| gt.pow_vartime_limbs(&[u64::MAX, u64::MAX, u64::MAX, u64::MAX]))
    });
    c.bench_function("a5/final-exponentiation", |b| {
        b.iter(|| final_exponentiation(&f).unwrap())
    });
}

criterion_group! {
    name = a5;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = benches
}
criterion_main!(a5);
