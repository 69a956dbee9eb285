//! Multi-exponentiation: size-adaptive Pippenger bucket windows with a
//! shared-doubling Straus fallback for small batches.
//!
//! The heart of the paper's protocols is `∏ aᵢ^{sᵢ}` over `ℓ ≈ 3κ` bases
//! (Πss decryption, HPSKE products, the `P2` computation in both the
//! decryption and refresh protocols). Two engines cover the size spectrum:
//!
//! * **Straus interleaving** ([`straus_raw`]) shares the ~`log r` doublings
//!   across all bases, turning `ℓ` full exponentiations into one doubling
//!   chain plus `ℓ·log r / w` table additions. Its per-base table build
//!   (`2^w − 1` group ops each) makes it the small-`ℓ` winner.
//! * **Pippenger bucket windows** ([`pippenger_raw`]) spend no per-base
//!   setup at all: each window of exponent bits scatters the bases into
//!   `2^w − 1` buckets and collapses them with the running-sum trick, so
//!   the asymptotic cost is `bits/w · (ℓ + 2^{w+1})` — the wide-`ℓ` winner
//!   (heavy-leakage parameter sets push `ℓ = 3κ` into the thousands).
//!
//! [`multiexp`] picks the cheaper engine per call from a deterministic
//! group-operation cost model; the default [`Group::product_of_powers`]
//! routes through it. Both engines skip zero scalars, start the doubling
//! chain at the highest set bit, and choose their window width from the
//! batch shape rather than a hardcoded constant. The `bench_a2_multiexp`
//! ablation quantifies the crossover (EXPERIMENTS.md table A8).
//!
//! Groups with a free inverse override that default with a signed-window
//! engine: the curve group with its own mixed-addition wNAF, the target
//! group with the generic [`signed_straus_with_window`] (inverse =
//! conjugation). Both still hand wide batches to Pippenger when its cost
//! model wins.

use crate::traits::Group;
use dlr_math::limbs::{bits_slice, window, wnaf_digits};
use dlr_math::PrimeField;

/// Widest window either engine will use (bounds bucket/table memory).
const MAX_WINDOW: usize = 13;

/// Naive multi-exponentiation (one full `pow` per base). Used as the
/// correctness reference and as the ablation baseline.
pub fn naive<G: Group>(bases: &[G], exps: &[G::Scalar]) -> G {
    assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
    let mut acc = G::identity();
    for (b, e) in bases.iter().zip(exps.iter()) {
        acc = acc.raw_op(&b.pow_vartime_limbs(&e.to_canonical_limbs()));
    }
    acc
}

/// Straus table-build + interleave cost in group operations, for `n`
/// nonzero bases of `bits` significant exponent bits at window `w`.
pub fn straus_cost(n: usize, bits: usize, w: usize) -> usize {
    let windows = bits.div_ceil(w);
    // Per-base table: 2^w − 1 ops. Doubling chain: w per window. Table
    // additions: one per base per window, minus the expected 2^−w zero
    // digits (scaled integer math to stay deterministic).
    n * ((1 << w) - 1) + windows * w + ((windows * n * ((1 << w) - 1)) >> w)
}

/// Pippenger cost in group operations: per window, one bucket add per
/// base plus `2·(2^w − 1)` running-sum ops plus `w` doublings.
pub fn pippenger_cost(n: usize, bits: usize, w: usize) -> usize {
    let windows = bits.div_ceil(w);
    windows * (n + 2 * ((1 << w) - 1) + w)
}

/// Deterministic argmin of a cost model over the window range.
pub fn best_window(n: usize, bits: usize, cost: fn(usize, usize, usize) -> usize) -> usize {
    let mut best = (1, cost(n, bits, 1));
    for w in 2..=MAX_WINDOW.min(bits.max(1)) {
        let c = cost(n, bits, w);
        if c < best.1 {
            best = (w, c);
        }
    }
    best.0
}

/// Canonical limbs of every exponent plus the highest set bit across the
/// batch (`None` when every exponent is zero).
fn canonical_exponents<G: Group>(exps: &[G::Scalar]) -> (Vec<Vec<u64>>, Option<usize>) {
    let limbs: Vec<Vec<u64>> = exps.iter().map(|e| e.to_canonical_limbs()).collect();
    let max_bits = limbs
        .iter()
        .map(|l| bits_slice(l) as usize)
        .max()
        .filter(|b| *b > 0);
    (limbs, max_bits)
}

/// Straus interleaved multi-exponentiation with an adaptive window width,
/// uninstrumented (callers go through [`Group::product_of_powers`]).
///
/// Sparse-exponent aware: bases whose scalar is zero get no table (their
/// factor is the identity), zero digits skip the table addition, and the
/// shared doubling chain starts at the highest set bit across all
/// exponents rather than the full modulus width — `∏ aᵢ^{sᵢ}` with small
/// or mostly-zero `sᵢ` costs proportionally less. The window width is the
/// cost-model argmin for the batch shape `(n, bits)` instead of the former
/// hardcoded 4 bits, so single-base and few-bit calls stop overpaying for
/// table space.
pub fn straus_raw<G: Group>(bases: &[G], exps: &[G::Scalar]) -> G {
    assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
    if bases.is_empty() {
        return G::identity();
    }
    let (exp_limbs, max_bits) = canonical_exponents::<G>(exps);
    let Some(max_bits) = max_bits else {
        return G::identity();
    };
    let nonzero = exp_limbs.iter().filter(|l| bits_slice(l) > 0).count();
    let w = best_window(nonzero, max_bits, straus_cost);
    straus_with_window(bases, &exp_limbs, max_bits, w)
}

/// Straus engine at an explicit window width (exposed to the benches for
/// window ablations; protocol code uses [`straus_raw`] / [`multiexp`]).
pub fn straus_with_window<G: Group>(
    bases: &[G],
    exp_limbs: &[Vec<u64>],
    max_bits: usize,
    w: usize,
) -> G {
    // Per-base tables: table[i][d] = bases[i]^d, d ∈ [0, 2^w);
    // zero-scalar bases contribute nothing and get no table.
    let table_size = 1usize << w;
    let tables: Vec<Option<Vec<G>>> = bases
        .iter()
        .zip(exp_limbs)
        .map(|(b, limbs)| {
            if limbs.iter().all(|l| *l == 0) {
                return None;
            }
            let mut t = Vec::with_capacity(table_size);
            t.push(G::identity());
            for d in 1..table_size {
                t.push(t[d - 1].raw_op(b));
            }
            Some(t)
        })
        .collect();

    let windows = max_bits.div_ceil(w);

    let mut acc = G::identity();
    for win in (0..windows).rev() {
        for _ in 0..w {
            acc = acc.raw_double();
        }
        let bit_pos = win * w;
        for (limbs, table) in exp_limbs.iter().zip(&tables) {
            let Some(table) = table else { continue };
            let d = window(limbs, bit_pos, w);
            if d != 0 {
                acc = acc.raw_op(&table[d]);
            }
        }
    }
    acc
}

/// Interleaved signed-window (wNAF) Straus at an explicit window width,
/// uninstrumented, for groups whose [`Group::inverse`] is (nearly) free —
/// the target group, where it is a conjugation.
///
/// Each exponent is recoded by [`wnaf_digits`]: odd digits
/// `|d| < 2^{w−1}`, at most one nonzero per `w + 1` bits on average. So a
/// base needs a table of its odd powers `b, b³, …, b^{2^{w−1}−1}` only
/// (`2^{w−2}` entries, half the unsigned table), and a negative digit
/// multiplies by the inverse of the entry. One shared squaring chain runs
/// over the longest recoding. Zero exponents get no table and no digits.
/// Correct for any exponent limbs, including values at or above the group
/// order and bases outside the prime-order subgroup: the recoding is the
/// exact integer, not a residue.
///
/// # Panics
///
/// Panics if `w` is outside `2..=8` (the recoder's digit range).
pub fn signed_straus_with_window<G: Group>(bases: &[G], exp_limbs: &[Vec<u64>], w: usize) -> G {
    assert_eq!(bases.len(), exp_limbs.len(), "bases/exps length mismatch");
    assert!((2..=8).contains(&w), "wnaf width out of range");
    let tsize = 1usize << (w - 2);
    let mut nafs: Vec<Vec<i8>> = Vec::with_capacity(bases.len());
    let mut table: Vec<G> = Vec::with_capacity(bases.len() * tsize);
    for (b, limbs) in bases.iter().zip(exp_limbs) {
        let naf = wnaf_digits(limbs, w);
        if naf.is_empty() {
            continue;
        }
        nafs.push(naf);
        let sq = b.raw_double();
        table.push(*b);
        for _ in 1..tsize {
            let next = table[table.len() - 1].raw_op(&sq);
            table.push(next);
        }
    }
    let max_len = nafs.iter().map(Vec::len).max().unwrap_or(0);

    let mut acc = G::identity();
    for pos in (0..max_len).rev() {
        acc = acc.raw_double();
        for (i, naf) in nafs.iter().enumerate() {
            let Some(&d) = naf.get(pos) else { continue };
            if d == 0 {
                continue;
            }
            let entry = &table[i * tsize + (d.unsigned_abs() as usize >> 1)];
            acc = if d > 0 {
                acc.raw_op(entry)
            } else {
                acc.raw_op(&entry.inverse())
            };
        }
    }
    acc
}

/// Pippenger bucket-window multi-exponentiation, uninstrumented.
///
/// For each window of exponent bits (most significant first) every base
/// with a nonzero digit `d` is added into bucket `d`; the buckets collapse
/// with the running-sum trick (`Σ d·B_d` via two adds per nonempty bucket,
/// high to low), and the accumulator shifts by `w` doublings between
/// windows. No per-base precomputation, so cost grows as
/// `bits/w · (n + 2^{w+1})` — past a few hundred bases this beats Straus'
/// table builds decisively. Zero scalars are skipped up front and the
/// doubling chain starts at the batch's highest set bit.
pub fn pippenger_raw<G: Group>(bases: &[G], exps: &[G::Scalar]) -> G {
    assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
    let (exp_limbs, max_bits) = canonical_exponents::<G>(exps);
    let Some(max_bits) = max_bits else {
        return G::identity();
    };
    let nonzero = exp_limbs.iter().filter(|l| bits_slice(l) > 0).count();
    let w = best_window(nonzero, max_bits, pippenger_cost);
    pippenger_with_window(bases, &exp_limbs, max_bits, w)
}

/// Pippenger engine over pre-recoded exponent limbs at an explicit window
/// width. [`pippenger_raw`] recodes then delegates here;
/// [`crate::batch::BatchDecryptCtx`] calls it directly so a whole flush of
/// requests shares one recoding of the fixed share vector.
pub fn pippenger_with_window<G: Group>(
    bases: &[G],
    exp_limbs: &[Vec<u64>],
    max_bits: usize,
    w: usize,
) -> G {
    let pairs: Vec<(&G, &Vec<u64>)> = bases
        .iter()
        .zip(exp_limbs)
        .filter(|(_, l)| bits_slice(l) > 0)
        .collect();
    let windows = max_bits.div_ceil(w);

    let mut acc = G::identity();
    let mut buckets: Vec<Option<G>> = vec![None; 1 << w];
    for win in (0..windows).rev() {
        for _ in 0..w {
            acc = acc.raw_double();
        }
        for slot in buckets.iter_mut() {
            *slot = None;
        }
        let bit_pos = win * w;
        for (b, limbs) in &pairs {
            let d = window(limbs, bit_pos, w);
            if d != 0 {
                buckets[d] = Some(match &buckets[d] {
                    Some(acc) => acc.raw_op(b),
                    None => **b,
                });
            }
        }
        // Running-sum trick: walking buckets high→low, `running` holds
        // B_j + B_{j+1} + …, and Σ running = Σ j·B_j.
        let mut running: Option<G> = None;
        let mut sum: Option<G> = None;
        for bucket in buckets[1..].iter().rev() {
            if let Some(b) = bucket {
                running = Some(match &running {
                    Some(r) => r.raw_op(b),
                    None => *b,
                });
            }
            if let Some(r) = &running {
                sum = Some(match &sum {
                    Some(s) => s.raw_op(r),
                    None => *r,
                });
            }
        }
        if let Some(s) = &sum {
            acc = acc.raw_op(s);
        }
    }
    acc
}

/// Size-adaptive dispatch: evaluate both engines' cost models at their own
/// best window for this batch shape and run the cheaper one. Deterministic
/// in `(n, bits)`, so repeated runs of a protocol make identical choices.
pub fn multiexp<G: Group>(bases: &[G], exps: &[G::Scalar]) -> G {
    assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
    if bases.is_empty() {
        return G::identity();
    }
    let (exp_limbs, max_bits) = canonical_exponents::<G>(exps);
    let Some(max_bits) = max_bits else {
        return G::identity();
    };
    let nonzero = exp_limbs.iter().filter(|l| bits_slice(l) > 0).count();
    let ws = best_window(nonzero, max_bits, straus_cost);
    let wp = best_window(nonzero, max_bits, pippenger_cost);
    if pippenger_cost(nonzero, max_bits, wp) < straus_cost(nonzero, max_bits, ws) {
        pippenger_with_window(bases, &exp_limbs, max_bits, wp)
    } else {
        straus_with_window(bases, &exp_limbs, max_bits, ws)
    }
}

/// Recoded batch shape shared by [`multiexp`] and
/// [`crate::batch::BatchDecryptCtx`]: canonical limbs plus the highest set
/// bit (`None` when every exponent is zero). Public within the crate so the
/// batch context reuses the exact recoding the dispatcher would produce.
pub(crate) fn recode<G: Group>(exps: &[G::Scalar]) -> (Vec<Vec<u64>>, Option<usize>) {
    canonical_exponents::<G>(exps)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Cross-checks of straus vs naive on dense random exponents live in
    // `modgroup::tests` and `curve::tests`; the sparse/degenerate shapes
    // the zero-skipping paths introduce are covered here, plus the
    // pippenger/straus/naive differential grid.

    use crate::modgroup::{Mini1009, ModGroup};
    use dlr_math::FieldElement;
    use rand::SeedableRng;

    type MG = ModGroup<Mini1009>;
    type S = <MG as Group>::Scalar;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    #[test]
    fn straus_matches_naive_on_sparse_exponents() {
        let mut r = rng();
        let bases: Vec<MG> = (0..6).map(|_| MG::random(&mut r)).collect();
        // Exponent vectors mixing zeros, tiny values and full-width values.
        let shapes: Vec<Vec<S>> = vec![
            vec![S::zero(); 6],
            {
                let mut e = vec![S::zero(); 6];
                e[3] = S::one();
                e
            },
            {
                let mut e = vec![S::zero(); 6];
                e[0] = S::from_u64(2);
                e[5] = S::from_u64(15);
                e
            },
            (0..6)
                .map(|i| if i % 2 == 0 { S::zero() } else { S::random(&mut r) })
                .collect(),
            vec![S::from_u64(1), S::zero(), S::from_u64(16), S::zero(), S::from_u64(17), S::zero()],
        ];
        for exps in shapes {
            assert_eq!(straus_raw(&bases, &exps), naive(&bases, &exps));
            assert_eq!(pippenger_raw(&bases, &exps), naive(&bases, &exps));
            assert_eq!(multiexp(&bases, &exps), naive(&bases, &exps));
        }
    }

    #[test]
    fn straus_all_zero_is_identity() {
        let mut r = rng();
        let bases: Vec<MG> = (0..4).map(|_| MG::random(&mut r)).collect();
        let exps = vec![S::zero(); 4];
        assert!(straus_raw(&bases, &exps).is_identity());
        assert!(pippenger_raw(&bases, &exps).is_identity());
        assert!(multiexp(&bases, &exps).is_identity());
    }

    #[test]
    fn straus_single_small_exponent() {
        let mut r = rng();
        let b = MG::random(&mut r);
        for e in 0..20u64 {
            let exps = [S::from_u64(e)];
            assert_eq!(straus_raw(&[b], &exps), naive(&[b], &exps));
            assert_eq!(pippenger_raw(&[b], &exps), naive(&[b], &exps));
        }
    }

    #[test]
    fn engines_agree_across_widths() {
        // ℓ grid from the issue: {1, 2, 3κ (κ=3 → 9), 64}, dense scalars.
        let mut r = rng();
        for n in [1usize, 2, 9, 64] {
            let bases: Vec<MG> = (0..n).map(|_| MG::random(&mut r)).collect();
            let exps: Vec<S> = (0..n).map(|_| S::random(&mut r)).collect();
            let expect = naive(&bases, &exps);
            assert_eq!(straus_raw(&bases, &exps), expect, "straus n={n}");
            assert_eq!(pippenger_raw(&bases, &exps), expect, "pippenger n={n}");
            assert_eq!(multiexp(&bases, &exps), expect, "dispatch n={n}");
        }
    }

    #[test]
    fn engines_agree_on_cofactor_points_with_saturated_exponents() {
        // Scalars are canonical mod r, but curve elements need not have
        // order r: cofactor-component points make every `exp mod r`
        // implicitly "above" the element order. Saturated `r − 1`
        // exponents additionally fill every window digit.
        use crate::params::{FrToy, Toy};
        let mut r = rng();
        type FrT = FrToy;
        for n in [1usize, 2, 9, 64] {
            let mut bases: Vec<crate::G<Toy>> =
                (0..n).map(|_| crate::G::random(&mut r)).collect();
            bases[0] = crate::util::out_of_subgroup_point::<Toy>();
            let exps: Vec<FrT> = (0..n)
                .map(|i| match i % 3 {
                    0 => -FrT::one(), // r − 1
                    1 => FrT::zero(),
                    _ => FrT::random(&mut r),
                })
                .collect();
            let expect = naive(&bases, &exps);
            assert_eq!(straus_raw(&bases, &exps), expect, "straus n={n}");
            assert_eq!(pippenger_raw(&bases, &exps), expect, "pippenger n={n}");
            assert_eq!(multiexp(&bases, &exps), expect, "dispatch n={n}");
            // The curve group overrides product_of_powers with the wNAF
            // engine — the cofactor/saturated shapes here are exactly the
            // ones where signed tables can hit infinity entries.
            assert_eq!(
                crate::G::<Toy>::product_of_powers(&bases, &exps),
                expect,
                "wnaf n={n}"
            );
        }
    }

    #[test]
    fn explicit_windows_all_agree() {
        let mut r = rng();
        let bases: Vec<MG> = (0..7).map(|_| MG::random(&mut r)).collect();
        let exps: Vec<S> = (0..7).map(|_| S::random(&mut r)).collect();
        let expect = naive(&bases, &exps);
        let (limbs, max_bits) = canonical_exponents::<MG>(&exps);
        let max_bits = max_bits.unwrap();
        for w in 1..=8 {
            assert_eq!(
                straus_with_window(&bases, &limbs, max_bits, w),
                expect,
                "w={w}"
            );
        }
    }

    #[test]
    fn cost_models_pick_sane_windows() {
        // Few bases: Straus must not pay huge tables.
        assert!(best_window(1, 10, straus_cost) <= 2);
        // Wide batches push both engines to wider windows.
        assert!(best_window(1500, 256, pippenger_cost) >= 6);
        // Dispatcher prefers Pippenger for wide batches, Straus for narrow.
        let (ns, nb) = (4usize, 256usize);
        let ws = best_window(ns, nb, straus_cost);
        let wp = best_window(ns, nb, pippenger_cost);
        assert!(straus_cost(ns, nb, ws) <= pippenger_cost(ns, nb, wp));
        let (ns, nb) = (1500usize, 256usize);
        let ws = best_window(ns, nb, straus_cost);
        let wp = best_window(ns, nb, pippenger_cost);
        assert!(pippenger_cost(ns, nb, wp) < straus_cost(ns, nb, ws));
    }
}
