//! A1 — ablation: the §5.2 ciphertext-reuse remark vs fresh per-protocol
//! ciphertexts over one full period of [`PERIOD`] decryptions and the
//! refresh that closes it. What reuse buys is amortisation over the
//! period's decryptions — `Reuse` builds `f` once and pairs it `PERIOD`
//! times, `Fresh` encrypts `ℓ` fresh `GT` elements on every decryption —
//! so a "period" of a single decryption would hide the effect entirely.

use criterion::{criterion_group, criterion_main, Criterion};
use dlr_core::dlr::{self, CommMode};
use dlr_core::params::SchemeParams;
use dlr_curve::{Group, Pairing, Ss512, Toy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Decryptions per period: the period length of `benchmark/`'s
/// `period_ss512` workload.
const PERIOD: usize = 10;

fn bench_mode<E: Pairing>(c: &mut Criterion, label: &str, lambda: u32, mode: CommMode) {
    let mut rng = StdRng::seed_from_u64(17);
    let params = SchemeParams::derive::<E::Scalar>(16, lambda);
    let (pk, s1, s2) = dlr::keygen::<E, _>(params, &mut rng);
    let mut p1 = dlr::Party1::with_mode(pk.clone(), s1, mode);
    let mut p2 = dlr::Party2::new(pk.clone(), s2);
    let m = E::Gt::random(&mut rng);
    let ct = dlr::encrypt(&pk, &m, &mut rng);

    c.bench_function(&format!("a1/period-of-{PERIOD}/{label}"), |b| {
        b.iter(|| {
            for _ in 0..PERIOD {
                let out = dlr::decrypt_local(&mut p1, &mut p2, &ct, &mut rng).unwrap();
                assert!(out == m, "{label}: wrong plaintext");
            }
            dlr::refresh_local(&mut p1, &mut p2, &mut rng).unwrap();
        })
    });
}

fn benches(c: &mut Criterion) {
    bench_mode::<Toy>(c, "toy-l256/reuse", 256, CommMode::Reuse);
    bench_mode::<Toy>(c, "toy-l256/fresh", 256, CommMode::Fresh);
    // The repo benchmark's shape (`period_ss512`: SS512, λ = 64).
    bench_mode::<Ss512>(c, "ss512-l64/reuse", 64, CommMode::Reuse);
    bench_mode::<Ss512>(c, "ss512-l64/fresh", 64, CommMode::Fresh);
}

criterion_group! {
    name = a1;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = benches
}
criterion_main!(a1);
