//! A6 — ablation: the batched pairing engine vs per-element pairing.
//!
//! Two comparisons on the decryption hot-path shape (`κ+1` second
//! arguments per fixed `A`, ℓ-term pairing products):
//!
//! * `multi/prepared` vs `multi/direct` — one prepared chain + batched
//!   final exponentiation vs one `tate_pairing` per element, which
//!   prepares the same chain again for every element and pays its own
//!   final exponentiation;
//! * `product/shared` vs `product/fold` — shared squaring chain and single
//!   final exponentiation vs folding per-element pairings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlr_curve::{pairing, Group, Pairing, PreparedPoint, Toy, G};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let a = G::<Toy>::random(&mut rng);

    let mut group = c.benchmark_group("a6/multi_pairing");
    for n in [4usize, 16, 64] {
        let qs: Vec<G<Toy>> = (0..n).map(|_| G::random(&mut rng)).collect();
        group.bench_with_input(BenchmarkId::new("direct", n), &n, |b, _| {
            b.iter(|| qs.iter().map(|q| pairing::tate_pairing::<Toy>(&a, q)).collect::<Vec<_>>())
        });
        group.bench_with_input(BenchmarkId::new("prepared", n), &n, |b, _| {
            b.iter(|| {
                let prep = PreparedPoint::<Toy>::prepare(&a);
                prep.multi_pairing(&qs)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("a6/pairing_product");
    for n in [4usize, 16, 64] {
        let pairs: Vec<(G<Toy>, G<Toy>)> = (0..n)
            .map(|_| (G::random(&mut rng), G::random(&mut rng)))
            .collect();
        group.bench_with_input(BenchmarkId::new("fold", n), &n, |b, _| {
            b.iter(|| {
                pairs
                    .iter()
                    .fold(dlr_curve::Gt::<Toy>::identity(), |acc, (p, q)| {
                        acc.op(&Toy::pair(p, q))
                    })
            })
        });
        group.bench_with_input(BenchmarkId::new("shared", n), &n, |b, _| {
            b.iter(|| pairing::pairing_product::<Toy>(&pairs))
        });
    }
    group.finish();
}

criterion_group! {
    name = a6;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = benches
}
criterion_main!(a6);
