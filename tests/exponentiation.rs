//! The differential grid for the one exponentiation engine
//! (`dlr_curve::multiexp`): on every group, `product_of_powers`,
//! `pow_vartime_limbs` and the engine entry `multiexp::product` against
//! the binary double-and-add reference `multiexp::naive_limbs`.
//!
//! The grid crosses batch widths 0, 1, 2, 3, 14, 17, 64 (plus, on TOY, the
//! first width the planner hands to Pippenger) with exponents 0, 1, r − 1,
//! r, r + 1, random and cofactor-width, and bases that are the identity,
//! random, or outside the prime-order subgroup where the group has such
//! elements: the curve's 2-torsion point (0, 0) and uncleared points, and
//! norm-1 target-group elements outside μ_r.

use dlr::bls12::fields::{fq2_sqrt, Fq2};
use dlr::bls12::fq12::Fq12;
use dlr::bls12::{self, groups, params as bls_params};
use dlr::curve::modgroup::{Mini1009, MiniParams, ModGroup};
use dlr::curve::multiexp::{self, Plan};
use dlr::curve::{Gt, SsParams, G};
use dlr::math::Fp2;
use dlr::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// What the grid needs beyond [`Group`]: elements outside the prime-order
/// subgroup, and the cofactor (an exponent wider than `r`).
trait Fixture: Group {
    fn outsiders(rng: &mut StdRng) -> Vec<Self>;
    fn cofactor() -> Vec<u64>;
}

impl Fixture for ModGroup<Mini1009> {
    fn outsiders(_: &mut StdRng) -> Vec<Self> {
        Vec::new() // every element of the type is in the subgroup
    }
    fn cofactor() -> Vec<u64> {
        vec![(Mini1009::P - 1) / Mini1009::R]
    }
}

/// A random point of `y² = x³ + x`, almost never in the subgroup.
fn uncleared<P: SsParams>(rng: &mut StdRng) -> G<P> {
    loop {
        let x = P::Fp::random(rng);
        if let Some(y) = (x.square() * x + x).sqrt() {
            return G::from_affine(x, y).expect("on the curve");
        }
    }
}

impl<P: SsParams> Fixture for G<P> {
    fn outsiders(rng: &mut StdRng) -> Vec<Self> {
        let zero = P::Fp::zero();
        let two_torsion = G::from_affine(zero, zero).expect("(0, 0) is on the curve");
        vec![two_torsion, uncleared(rng), uncleared(rng)]
    }
    fn cofactor() -> Vec<u64> {
        P::COFACTOR.to_vec()
    }
}

/// `z̄/z` for a random `z`: norm 1, almost never in μ_r.
fn unitary_outside_mu_r<P: SsParams>(rng: &mut StdRng) -> Gt<P> {
    loop {
        let z = Fp2::<P::Fp>::random(rng);
        let Some(inv) = z.inverse() else { continue };
        let u = Gt::<P>::from_bytes(&(z.conjugate() * inv).to_bytes_be()).expect("norm 1");
        if !u.is_in_subgroup() {
            return u;
        }
    }
}

impl<P: SsParams> Fixture for Gt<P> {
    fn outsiders(rng: &mut StdRng) -> Vec<Self> {
        vec![unitary_outside_mu_r(rng), unitary_outside_mu_r(rng)]
    }
    fn cofactor() -> Vec<u64> {
        P::COFACTOR.to_vec() // μ_r has index (p + 1)/r in the norm-1 group
    }
}

impl Fixture for bls12::G1 {
    fn outsiders(rng: &mut StdRng) -> Vec<Self> {
        loop {
            let x = bls12::Fq::random(rng);
            if let Some(y) = (x.square() * x + groups::b_g1()).sqrt() {
                return vec![bls12::G1::from_affine(x, y).expect("on the curve")];
            }
        }
    }
    fn cofactor() -> Vec<u64> {
        bls_params::g1_cofactor().to_vec()
    }
}

impl Fixture for bls12::G2 {
    fn outsiders(rng: &mut StdRng) -> Vec<Self> {
        loop {
            let x = Fq2::random(rng);
            if let Some(y) = fq2_sqrt(&(x.square() * x + groups::b_g2())) {
                return vec![bls12::G2::from_affine(x, y).expect("on the twist")];
            }
        }
    }
    fn cofactor() -> Vec<u64> {
        bls_params::g2_cofactor().to_vec()
    }
}

impl Fixture for bls12::Gt {
    fn outsiders(rng: &mut StdRng) -> Vec<Self> {
        loop {
            let a = Fq12::random(rng);
            let Some(inv) = a.inverse() else { continue };
            let u =
                bls12::Gt::from_bytes(&(a.conjugate_q6() * inv).to_bytes_be()).expect("unitary");
            if !u.is_in_subgroup() {
                return vec![u];
            }
        }
    }
    fn cofactor() -> Vec<u64> {
        // μ_r has index Φ₁₂(q)/r in the cyclotomic subgroup: the exponent
        // of the final exponentiation's hard part.
        bls_params::hard_part_exponent().to_vec()
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

/// `a + 1` over little-endian limbs, growing a limb on overflow.
fn plus_one(a: &[u64]) -> Vec<u64> {
    let mut out = a.to_vec();
    for limb in out.iter_mut() {
        let (v, carry) = limb.overflowing_add(1);
        *limb = v;
        if !carry {
            return out;
        }
    }
    out.push(1);
    out
}

/// Bit length of little-endian limbs.
fn bit_len(e: &[u64]) -> usize {
    e.iter()
        .rposition(|l| *l != 0)
        .map_or(0, |k| 64 * k + 64 - e[k].leading_zeros() as usize)
}

/// Exponent kind `i`, as limbs and as the scalar that equals it mod `r`
/// (a random one for the cofactor-width kinds). Every kind has a fixed bit
/// length except the random scalar, which stays below `r`, so the
/// planner's view of a batch depends on its width only.
fn exponent<Gr: Fixture>(i: usize, rng: &mut StdRng) -> (Vec<u64>, Gr::Scalar) {
    let r = modulus_limbs::<Gr::Scalar>();
    let one = Gr::Scalar::one();
    // Offset so that a one-wide batch holds a random exponent.
    let kind = (i + 5) % 14;
    match kind % 7 {
        0 => (vec![0], Gr::Scalar::zero()),
        1 => (vec![1], one),
        2 => ((-one).to_canonical_limbs(), -one),
        3 => (r, Gr::Scalar::zero()),
        4 => (plus_one(&r), one),
        5 => {
            let s = Gr::Scalar::random(rng);
            (s.to_canonical_limbs(), s)
        }
        _ => {
            let cofactor = Gr::cofactor();
            let wide = if kind == 6 {
                cofactor
            } else {
                // Random, with the cofactor's bit length.
                let top = bit_len(&cofactor) - 1;
                let mut w: Vec<u64> = (0..cofactor.len()).map(|_| rng.next_u64()).collect();
                let last = w.len() - 1;
                w[last] &= u64::MAX >> (63 - top % 64);
                w[last] |= 1 << (top % 64);
                w
            };
            (wide, Gr::Scalar::random(rng))
        }
    }
}

/// The shape the planner sees for a batch: the number of nonzero
/// exponents, and their highest bit.
fn shape(exps: &[Vec<u64>]) -> (usize, usize) {
    let live: Vec<usize> = exps.iter().map(|e| bit_len(e)).filter(|&b| b > 0).collect();
    (live.len(), live.iter().copied().max().unwrap_or(0))
}

fn grid<Gr: Fixture>(seed: u64, toy: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let outsiders = Gr::outsiders(&mut rng);
    let g = Gr::random(&mut rng);
    let mut ns = vec![0usize, 1, 2, 3, 14, 17, 64];
    let mut first_pippenger = None;
    if toy {
        // The first width whose batch the planner hands to Pippenger.
        let exps: Vec<Vec<u64>> = (0..4096).map(|i| exponent::<Gr>(i, &mut rng).0).collect();
        let first = (1..=exps.len())
            .find(|&n| {
                let (live, bits) = shape(&exps[..n]);
                matches!(multiexp::plan(live, bits, Gr::OP_COSTS), Plan::Pippenger(_))
            })
            .expect("some width takes the Pippenger route");
        ns.push(first);
        first_pippenger = Some(first);
    }
    for n in ns {
        let (limbs, scalars): (Vec<Vec<u64>>, Vec<Gr::Scalar>) =
            (0..n).map(|i| exponent::<Gr>(i, &mut rng)).unzip();
        let mut cur = g;
        let bases: Vec<Gr> = (0..n)
            .map(|i| {
                cur = cur.raw_op(&g);
                match i % 4 {
                    3 => Gr::identity(),
                    0 => cur,
                    _ if outsiders.is_empty() => cur.raw_double(),
                    1 => outsiders[i % outsiders.len()],
                    _ => outsiders[i % outsiders.len()].raw_op(&cur),
                }
            })
            .collect();
        let (live, bits) = shape(&limbs);
        let route = (live > 0).then(|| multiexp::plan(live, bits, Gr::OP_COSTS));
        let what = format!("{} n={n} {route:?}", Gr::NAME);
        let pippenger = matches!(route, Some(Plan::Pippenger(_)));
        assert_eq!(pippenger, Some(n) == first_pippenger, "route: {what}");

        assert_eq!(
            multiexp::product(&bases, &limbs),
            multiexp::naive_limbs(&bases, &limbs),
            "product: {what}"
        );
        assert_eq!(
            Gr::product_of_powers(&bases, &scalars),
            multiexp::naive(&bases, &scalars),
            "product_of_powers: {what}"
        );
        for (b, e) in bases.iter().zip(&limbs).take(21) {
            assert_eq!(
                b.pow_vartime_limbs(e),
                multiexp::naive_limbs(&[*b], &[e]),
                "pow_vartime_limbs: {what} e={e:x?}"
            );
        }
    }
}

#[test]
fn grid_mini1009() {
    grid::<ModGroup<Mini1009>>(1, false);
}

#[test]
fn grid_g_toy() {
    grid::<G<Toy>>(2, true);
}

#[test]
fn grid_g_ss512() {
    grid::<G<Ss512>>(3, false);
}

#[test]
fn grid_gt_toy() {
    grid::<Gt<Toy>>(4, true);
}

#[test]
fn grid_gt_ss512() {
    grid::<Gt<Ss512>>(5, false);
}

#[test]
fn grid_bls12_g1() {
    grid::<bls12::G1>(6, false);
}

#[test]
fn grid_bls12_g2() {
    grid::<bls12::G2>(7, false);
}

#[test]
fn grid_bls12_gt() {
    grid::<bls12::Gt>(8, false);
}
