//! The exponentiation engine: interleaved signed-window (wNAF) Straus,
//! handing wide batches to Pippenger bucket windows.
//!
//! The heart of the paper's protocols is `∏ aᵢ^{sᵢ}` over `ℓ ≈ 3κ` bases
//! (Πss decryption, HPSKE products, the `P2` computation in both the
//! decryption and refresh protocols). Every group runs it through
//! [`product`]: the default [`Group::product_of_powers`] recodes its
//! scalars and calls it, and [`Group::pow_vartime_limbs`] is its `n = 1`
//! case. No group overrides either. Two engines cover the size spectrum:
//!
//! * **Signed-window Straus** ([`signed_straus`]) shares the
//!   ~`log r` doublings across all bases. Each exponent is recoded into
//!   odd digits `|d| < 2^{w−1}`, so a base needs only its odd powers
//!   (`2^{w−2}` table entries), a negative digit uses the entry's inverse,
//!   and about one bit in `w + 1` costs a table operation. It is the
//!   narrow-batch winner.
//! * **Pippenger bucket windows** ([`pippenger_with_window`]) spend no
//!   per-base setup at all: each window of exponent bits scatters the
//!   bases into `2^w − 1` buckets and collapses them with the running-sum
//!   trick, so the cost is `bits/w · (ℓ + 2^{w+1})`, the wide-`ℓ` winner
//!   (heavy-leakage parameter sets push `ℓ = 3κ` into the thousands).
//!
//! [`plan`] picks the engine and its window width from a deterministic
//! cost model in the batch shape, weighted by the group's relative
//! operation costs ([`Group::OP_COSTS`]), so repeated runs of a protocol
//! make identical choices. The signed engine calls
//! [`Group::batch_normalize`] on its table once; the curve group uses that
//! hook to put every entry at `Z = 1`, where its addition takes the
//! cheaper mixed formula. Zero exponents are skipped, and the shared
//! doubling chain starts at the highest set bit.
//! Exponent limbs may be any length, including values at or above the
//! group order (subgroup checks exponentiate by `r` itself), and bases
//! need not lie in the prime-order subgroup: the recodings are exact
//! integers, not residues.
//!
//! [`naive`] is the independent reference every engine is tested
//! against: a plain binary double-and-add per base.

use crate::traits::Group;
use dlr_math::limbs::{bits_slice, window, wnaf_digits};
use dlr_math::PrimeField;

/// Widest Pippenger window (bounds bucket memory).
const MAX_WINDOW: usize = 13;

/// A group's relative operation costs, in any unit common to the four
/// weights, as the planner sees them. The defaults are unit costs; the
/// pairing groups state what their formulas cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCosts {
    /// A general group operation (table build, Pippenger's every step).
    pub table: usize,
    /// The main loop's operation with a (normalized) table entry.
    pub digit: usize,
    /// A doubling (squaring).
    pub dbl: usize,
    /// Each table entry's share of [`Group::batch_normalize`].
    pub norm: usize,
}

impl OpCosts {
    /// Every operation costs the same and normalization is free.
    pub const UNIT: Self = Self {
        table: 1,
        digit: 1,
        dbl: 1,
        norm: 0,
    };
}

/// The engine and window width [`plan`] chose for a batch shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Signed-window Straus at this wNAF width.
    Signed(usize),
    /// Pippenger bucket windows at this width.
    Pippenger(usize),
}

/// Modelled cost of the signed engine on `n` nonzero exponents of `bits`
/// significant bits at width `w`: per base one doubling, `2^{w−2} − 1`
/// table operations and the normalization of `2^{w−2}` entries; one
/// shared doubling per bit; one digit operation per nonzero digit (about
/// `bits/(w+1) + 1` per base).
fn signed_cost(n: usize, bits: usize, w: usize, costs: OpCosts) -> usize {
    let table = 1usize << (w - 2);
    n * (costs.dbl + (table - 1) * costs.table + table * costs.norm)
        + bits * costs.dbl
        + n * (bits / (w + 1) + 1) * costs.digit
}

/// The signed engine's cheapest width in `2..=8` (the first on ties).
pub fn signed_window(n: usize, bits: usize, costs: OpCosts) -> usize {
    (2..=8usize)
        .min_by_key(|&w| signed_cost(n, bits, w, costs))
        .expect("nonempty width range")
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

/// The engine and width for `n` nonzero exponents of `bits` significant
/// bits: Pippenger at its best width when its unit-cost model, scaled to
/// `costs.table`, is strictly cheaper than the signed engine at its best
/// width; the signed engine otherwise.
pub fn plan(n: usize, bits: usize, costs: OpCosts) -> Plan {
    let w = signed_window(n, bits, costs);
    let wp = best_window(n, bits, pippenger_cost);
    if pippenger_cost(n, bits, wp) * costs.table < signed_cost(n, bits, w, costs) {
        Plan::Pippenger(wp)
    } else {
        Plan::Signed(w)
    }
}

/// `∏ basesᵢ^{expsᵢ}` for exponents given as little-endian limb slices of
/// any length, uninstrumented: the one engine behind
/// [`Group::product_of_powers`] and [`Group::pow_vartime_limbs`]. Plans
/// on the number of nonzero exponents and their highest bit, then runs
/// the engine [`plan`] picks; both engines skip zero exponents.
///
/// # Panics
///
/// Panics if `bases` and `exps` have different lengths.
pub fn product<G: Group, E: AsRef<[u64]>>(bases: &[G], exps: &[E]) -> G {
    assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
    let (n, bits) = exps
        .iter()
        .map(|e| bits_slice(e.as_ref()) as usize)
        .filter(|&b| b > 0)
        .fold((0, 0), |(n, max), b| (n + 1, max.max(b)));
    if n == 0 {
        return G::identity();
    }
    match plan(n, bits, G::OP_COSTS) {
        Plan::Signed(w) => signed_straus(bases, exps, w),
        Plan::Pippenger(w) => pippenger_with_window(bases, exps, bits, w),
    }
}

/// Interleaved signed-window (wNAF) Straus at an explicit window width,
/// uninstrumented.
///
/// Each exponent is recoded by [`wnaf_digits`]: odd digits
/// `|d| < 2^{w−1}`, at most one nonzero per `w + 1` bits on average. So a
/// base needs a table of its odd powers `b, b³, …, b^{2^{w−1}−1}` only
/// (`2^{w−2}` entries, half the unsigned table). The whole table goes
/// through [`Group::batch_normalize`] once, then gets its
/// [`Group::inverse`]s once, for the negative digits. One shared doubling
/// chain runs over the longest recoding. Zero exponents get no table and
/// no digits.
///
/// # Panics
///
/// Panics if the lengths differ or `w` is outside `2..=8` (the recoder's
/// digit range).
pub fn signed_straus<G: Group, E: AsRef<[u64]>>(bases: &[G], exps: &[E], w: usize) -> G {
    assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
    assert!((2..=8).contains(&w), "wnaf width out of range");
    let tsize = 1usize << (w - 2);
    let mut nafs: Vec<Vec<i8>> = Vec::with_capacity(bases.len());
    let mut table: Vec<G> = Vec::with_capacity(bases.len() * tsize);
    for (b, e) in bases.iter().zip(exps) {
        let naf = wnaf_digits(e.as_ref(), w);
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
    G::batch_normalize(&mut table);
    let negated: Vec<G> = table.iter().map(G::inverse).collect();
    let max_len = nafs.iter().map(Vec::len).max().unwrap_or(0);

    let mut acc = G::identity();
    for pos in (0..max_len).rev() {
        acc = acc.raw_double();
        for (i, naf) in nafs.iter().enumerate() {
            let Some(&d) = naf.get(pos) else { continue };
            if d == 0 {
                continue;
            }
            let k = i * tsize + (d.unsigned_abs() as usize >> 1);
            acc = acc.raw_op(if d > 0 { &table[k] } else { &negated[k] });
        }
    }
    acc
}

/// Pippenger engine over exponent limbs at an explicit window width.
///
/// For each window of exponent bits (most significant first) every base
/// with a nonzero digit `d` is added into bucket `d`; the buckets collapse
/// with the running-sum trick (`Σ d·B_d` via two adds per nonempty bucket,
/// high to low), and the accumulator shifts by `w` doublings between
/// windows. No per-base precomputation, so cost grows as
/// `bits/w · (n + 2^{w+1})`. Zero exponents are skipped up front and the
/// doubling chain starts at `max_bits`, which must cover every exponent.
pub fn pippenger_with_window<G: Group, E: AsRef<[u64]>>(
    bases: &[G],
    exps: &[E],
    max_bits: usize,
    w: usize,
) -> G {
    assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
    let pairs: Vec<(&G, &[u64])> = bases
        .iter()
        .zip(exps)
        .map(|(b, e)| (b, e.as_ref()))
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

/// Reference multi-exponentiation over scalars: [`naive_limbs`] on their
/// canonical limbs. The correctness reference and the ablation baseline.
pub fn naive<G: Group>(bases: &[G], exps: &[G::Scalar]) -> G {
    let limbs: Vec<Vec<u64>> = exps.iter().map(|e| e.to_canonical_limbs()).collect();
    naive_limbs(bases, &limbs)
}

/// Reference multi-exponentiation over limb slices of any length: one
/// plain left-to-right binary double-and-add per base, over
/// [`Group::raw_double`] and [`Group::raw_op`] only, so it shares no code
/// with the engines it checks.
///
/// # Panics
///
/// Panics if `bases` and `exps` have different lengths.
pub fn naive_limbs<G: Group, E: AsRef<[u64]>>(bases: &[G], exps: &[E]) -> G {
    assert_eq!(bases.len(), exps.len(), "bases/exps length mismatch");
    let mut acc = G::identity();
    for (b, e) in bases.iter().zip(exps) {
        let e = e.as_ref();
        let mut pow = G::identity();
        for i in (0..bits_slice(e) as usize).rev() {
            pow = pow.raw_double();
            if (e[i / 64] >> (i % 64)) & 1 == 1 {
                pow = pow.raw_op(b);
            }
        }
        acc = acc.raw_op(&pow);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Ss512, SsParams, Toy};
    use crate::{Gt, G};

    /// The planner returns the engine and width that the curve's and the
    /// target group's own planners chose before the engines were merged
    /// (values recorded from those planners), for the shapes the protocol
    /// runs (TOY: κ = 3, ℓ = 17 and SS512: κ = 2, ℓ = 14 from
    /// `SchemeParams::derive(16, 64)`; G runs κ, ℓ and 2ℓ bases, GT ℓ),
    /// single bases at 64 and 256 bits, and the first Pippenger width.
    #[test]
    fn planner_matches_the_replaced_per_group_planners() {
        let (g, gt) = (G::<Toy>::OP_COSTS, Gt::<Toy>::OP_COSTS);
        assert_eq!(G::<Ss512>::OP_COSTS, g);
        assert_eq!(Gt::<Ss512>::OP_COSTS, gt);
        let toy = <Toy as SsParams>::Fr::modulus_bits() as usize;
        let ss = <Ss512 as SsParams>::Fr::modulus_bits() as usize;
        assert_eq!((toy, ss), (63, 256));
        use Plan::{Pippenger, Signed};
        let pinned = [
            // (costs, bits, n, plan)
            (g, toy, 3, Signed(4)),
            (g, toy, 17, Signed(4)),
            (g, toy, 34, Signed(4)),
            (g, 64, 1, Signed(4)),
            (g, toy, 599, Pippenger(7)),
            (g, 62, 599, Pippenger(7)),
            (g, 64, 761, Pippenger(6)),
            (g, ss, 2, Signed(5)),
            (g, ss, 14, Signed(5)),
            (g, ss, 28, Signed(5)),
            (g, ss, 1, Signed(5)),
            (g, ss, 2728, Pippenger(8)),
            (g, 255, 2729, Pippenger(8)),
            (gt, toy, 17, Signed(4)),
            (gt, 64, 1, Signed(4)),
            (gt, toy, 226, Pippenger(5)),
            (gt, 62, 227, Pippenger(5)),
            (gt, ss, 14, Signed(5)),
            (gt, ss, 1, Signed(5)),
            (gt, ss, 694, Pippenger(7)),
            (gt, 255, 694, Pippenger(7)),
        ];
        for (costs, bits, n, want) in pinned {
            assert_eq!(plan(n, bits, costs), want, "{costs:?} bits={bits} n={n}");
            // ... and the batch just below each first Pippenger width stays signed.
            if matches!(want, Pippenger(_)) {
                assert!(
                    matches!(plan(n - 1, bits, costs), Signed(_)),
                    "bits={bits} n={}",
                    n - 1
                );
            }
        }
    }

    #[test]
    fn unit_costs_pick_sane_plans() {
        // One short exponent: the smallest table.
        assert_eq!(plan(1, 10, OpCosts::UNIT), Plan::Signed(2));
        // Wide batches go to Pippenger at a wide window.
        assert!(matches!(plan(1500, 256, OpCosts::UNIT), Plan::Pippenger(w) if w >= 6));
        assert!(matches!(plan(4, 256, OpCosts::UNIT), Plan::Signed(_)));
    }
}
