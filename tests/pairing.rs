//! The differential grid for the one Miller walker (`dlr_curve::pairing`):
//! every entry point of the supersingular `Pairing` implementation, and
//! `pairing::tate_pairing`, against the reference
//! `pairing::tate_pairing_reference` (an affine walker with one inversion
//! per step and the generic final exponentiation).
//!
//! Arguments, in either slot: the identity, the generator, a random
//! subgroup point `P` and its inverse `−P`, the 2-torsion point (0, 0), an
//! uncleared point `H` and `[r]H` (both outside the prime-order subgroup).
//! Pairing products run at n = 0, 1, 2, 3. The counter semantics ride
//! along: preparing counts nothing, every evaluation counts one pairing,
//! and a product of n pairs counts n.

use dlr::curve::counters;
use dlr::curve::pairing::{self, tate_pairing_reference};
use dlr::curve::{Gt, SsParams, G};
use dlr::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random point of `y² = x³ + x`, almost never in the subgroup.
fn uncleared<P: SsParams>(rng: &mut StdRng) -> G<P> {
    loop {
        let x = P::Fp::random(rng);
        if let Some(y) = (x.square() * x + x).sqrt() {
            return G::from_affine(x, y).expect("on the curve");
        }
    }
}

/// The scalar field's modulus `r` as little-endian limbs.
fn modulus_limbs<F: PrimeField>() -> Vec<u64> {
    let mut le = F::modulus_be_bytes();
    le.reverse();
    le.chunks(8)
        .map(|ch| {
            let mut b = [0u8; 8];
            b[..ch.len()].copy_from_slice(ch);
            u64::from_le_bytes(b)
        })
        .collect()
}

/// The named arguments every slot of the grid takes.
fn arguments<P: SsParams>(rng: &mut StdRng) -> Vec<(&'static str, G<P>)> {
    let zero = P::Fp::zero();
    let p = G::<P>::random(rng);
    let h = uncleared::<P>(rng);
    assert!(
        !h.is_in_subgroup(),
        "the grid needs a point outside the subgroup"
    );
    vec![
        ("O", G::identity()),
        ("g", G::generator()),
        ("P", p),
        ("-P", p.inverse()),
        (
            "(0,0)",
            G::from_affine(zero, zero).expect("(0, 0) is on the curve"),
        ),
        ("H", h),
        ("[r]H", h.pow_vartime_limbs(&modulus_limbs::<P::Fr>())),
    ]
}

/// `f()` with the pairings it counted.
fn pairings<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, ops) = counters::measure(f);
    (out, ops.pairings)
}

fn grid<P: SsParams>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let args = arguments::<P>(&mut rng);
    let points: Vec<G<P>> = args.iter().map(|(_, a)| *a).collect();
    // want[i][j] = ê(args[i], args[j]) by the reference.
    let want: Vec<Vec<Gt<P>>> = points
        .iter()
        .map(|a| {
            points
                .iter()
                .map(|b| tate_pairing_reference::<P>(a, b))
                .collect()
        })
        .collect();
    let n = points.len() as u64;
    let mut nontrivial = 0;

    for (i, (na, a)) in args.iter().enumerate() {
        let (prep, counted) = pairings(|| P::prepare(a));
        assert_eq!(counted, 0, "{} prepare({na})", P::NAME);
        let (prep_q, counted) = pairings(|| P::prepare_q(a));
        assert_eq!(counted, 0, "{} prepare_q({na})", P::NAME);

        for (j, (nb, b)) in args.iter().enumerate() {
            let what = format!("{} e({na}, {nb})", P::NAME);
            nontrivial += usize::from(!want[i][j].is_identity());
            let (got, counted) = pairings(|| P::pair(a, b));
            assert_eq!((got, counted), (want[i][j], 1), "pair: {what}");
            let (got, counted) = pairings(|| pairing::tate_pairing::<P>(a, b));
            assert_eq!((got, counted), (want[i][j], 1), "tate_pairing: {what}");
            let (got, counted) = pairings(|| P::pair_prepared(&prep, b));
            assert_eq!((got, counted), (want[i][j], 1), "pair_prepared: {what}");
            // `pair_prepared_q(b, prepare_q(a))` is e(b, a) to the trait and
            // replays a's chain at b, as the map is symmetric on the
            // subgroup: it owes the reference at (a, b).
            let (got, counted) = pairings(|| P::pair_prepared_q(b, &prep_q));
            assert_eq!((got, counted), (want[i][j], 1), "pair_prepared_q: {what}");
            if a.is_in_subgroup() && b.is_in_subgroup() {
                assert_eq!(want[i][j], want[j][i], "symmetry: {what}");
            }
        }

        let (got, counted) = pairings(|| P::multi_pair(a, &points));
        assert_eq!(
            (got, counted),
            (want[i].clone(), n),
            "{} multi_pair({na})",
            P::NAME
        );
        let (got, counted) = pairings(|| P::multi_pair_prepared(&prep, &points));
        assert_eq!(
            (got, counted),
            (want[i].clone(), n),
            "{} multi_pair_prepared({na})",
            P::NAME
        );
    }
    assert!(nontrivial > 0, "every value came out trivial");

    let preps: Vec<_> = points.iter().map(P::prepare_q).collect();
    for (j, (nb, b)) in args.iter().enumerate() {
        let column: Vec<Gt<P>> = want.iter().map(|row| row[j]).collect();
        let (got, counted) = pairings(|| P::multi_pair_prepared_q(b, &preps));
        assert_eq!(
            (got, counted),
            (column, n),
            "{} multi_pair_prepared_q({nb})",
            P::NAME
        );
    }

    // Products over windows of the pair list, so every pair meets the
    // identity, the subgroup and both outsiders as neighbours.
    let all: Vec<(usize, usize)> = (0..points.len())
        .flat_map(|i| (0..points.len()).map(move |j| (i, j)))
        .collect();
    let (got, counted) = pairings(|| P::pairing_product(&[]));
    assert_eq!(
        (got, counted),
        (Gt::identity(), 0),
        "{} empty product",
        P::NAME
    );
    for width in 1..=3 {
        for window in all.windows(width) {
            let pairs: Vec<(G<P>, G<P>)> = window
                .iter()
                .map(|&(i, j)| (points[i], points[j]))
                .collect();
            let expect = window
                .iter()
                .fold(Gt::identity(), |acc, &(i, j)| acc.raw_op(&want[i][j]));
            let names: Vec<String> = window
                .iter()
                .map(|&(i, j)| format!("e({}, {})", args[i].0, args[j].0))
                .collect();
            let what = format!("{} {}", P::NAME, names.join("·"));
            let (got, counted) = pairings(|| P::pairing_product(&pairs));
            assert_eq!(
                (got, counted),
                (expect, width as u64),
                "pairing_product: {what}"
            );
            let (got, _) = pairings(|| pairing::pairing_product::<P>(&pairs));
            assert_eq!(got, expect, "pairing::pairing_product: {what}");
        }
    }
}

#[test]
fn grid_toy() {
    grid::<Toy>(1);
}

#[test]
fn grid_ss512() {
    grid::<Ss512>(2);
}
