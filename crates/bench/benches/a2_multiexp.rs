//! A2 — ablation: the multi-exponentiation engines (signed-window Straus,
//! Pippenger bucket windows, naive per-base exponentiation) across the
//! batch widths `P2`'s protocol role produces. The TOY grid shows the
//! small-batch regime; the SS512 `ℓ = 3κ = 1542` case (heavy-leakage
//! profile `derive_for_bits(256, 128, 131072)`, κ = 514) is the wide
//! regime the Pippenger engine targets. Each engine runs at the width the
//! planner would give it on the curve group.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlr_core::params::SchemeParams;
use dlr_curve::{multiexp, Group, Pairing, Ss512, SsParams, Toy, G};
use dlr_math::{FieldElement, PrimeField};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Random bases and exponents (as scalars and as canonical limbs) plus the
/// signed and Pippenger widths for this shape.
#[allow(clippy::type_complexity)]
fn batch<P: SsParams>(
    n: usize,
    rng: &mut StdRng,
) -> (Vec<G<P>>, Vec<P::Fr>, Vec<Vec<u64>>, usize, usize) {
    let bases: Vec<G<P>> = (0..n).map(|_| G::random(rng)).collect();
    let exps: Vec<P::Fr> = (0..n).map(|_| P::Fr::random(rng)).collect();
    let limbs = exps.iter().map(|e| e.to_canonical_limbs()).collect();
    let bits = P::Fr::modulus_bits() as usize;
    let ws = multiexp::signed_window(n, bits, G::<P>::OP_COSTS);
    let wp = multiexp::best_window(n, bits, multiexp::pippenger_cost);
    (bases, exps, limbs, ws, wp)
}

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(19);
    let mut group = c.benchmark_group("a2/multiexp");
    for n in [4usize, 16, 64] {
        let (bases, exps, limbs, ws, wp) = batch::<Toy>(n, &mut rng);
        let bits = <Toy as Pairing>::Scalar::modulus_bits() as usize;
        group.bench_with_input(BenchmarkId::new("signed", n), &n, |b, _| {
            b.iter(|| multiexp::signed_straus(&bases, &limbs, ws))
        });
        group.bench_with_input(BenchmarkId::new("pippenger", n), &n, |b, _| {
            b.iter(|| multiexp::pippenger_with_window(&bases, &limbs, bits, wp))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| multiexp::naive(&bases, &exps))
        });
    }
    group.finish();

    // The wide-batch regime on a production-width curve. ℓ = 3κ is the
    // Πss share width of the decryption protocol; the heavy-leakage
    // profile drives κ to 514, far past the signed/Pippenger crossover.
    let params = SchemeParams::derive_for_bits(256, 128, 131072);
    let n = 3 * params.kappa;
    assert_eq!(n, 1542, "heavy-leakage 3κ moved; update the A8 docs");
    let (bases, _, limbs, ws, wp) = batch::<Ss512>(n, &mut rng);
    let bits = <Ss512 as Pairing>::Scalar::modulus_bits() as usize;
    let mut group = c.benchmark_group("a2/multiexp-ss512");
    group.bench_with_input(BenchmarkId::new("signed", n), &n, |b, _| {
        b.iter(|| multiexp::signed_straus(&bases, &limbs, ws))
    });
    group.bench_with_input(BenchmarkId::new("pippenger", n), &n, |b, _| {
        b.iter(|| multiexp::pippenger_with_window(&bases, &limbs, bits, wp))
    });
    group.finish();
}

criterion_group! {
    name = a2;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = benches
}
criterion_main!(a2);
