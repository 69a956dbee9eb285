//! Fixed-base exponentiation: precomputed radix-2^w block tables
//! (Lim–Lee / BGMW style combs).
//!
//! DLR encryption is two exponentiations with **fixed** bases —
//! `Enc_pk(m) = (g^t, m·z^t)` with `g` the generator and `z = e(g1, g2)`
//! from the public key — so the doubling chain of a generic square-and-
//! multiply is pure waste: every power of two of the base can be computed
//! once and reused forever. [`FixedBase`] stores `base^(d·2^{b·w})` for
//! each width-`w` digit position `b` and digit value `d ∈ 1..2^w`; an
//! exponentiation then costs one group operation per nonzero digit and
//! **zero doublings**. The table goes through [`Group::batch_normalize`]
//! once when built, so on the curve each of those operations is a mixed
//! addition against a `Z = 1` entry.
//!
//! For a 256-bit scalar at `w = 5` that is ≤ 52 operations versus ~384 for
//! the binary chain (256 doublings + ~128 multiplies) — the source of the
//! A7 ablation's speedup (see `EXPERIMENTS.md`).
//!
//! # Counter semantics
//!
//! [`FixedBase::pow_fixed`] returns the same group element as
//! [`Group::pow`] on the same inputs and bumps exactly one `pow` counter of
//! the same family; table construction uses only uninstrumented `raw_*`
//! operations. Operation-count reports therefore cannot distinguish the
//! precomputed path from the naive one (see `crates/metrics/README.md`).

use crate::counters;
use crate::traits::{Group, GroupKind};
use dlr_math::limbs::{bits_slice, window};
use dlr_math::PrimeField;
use std::sync::{Arc, OnceLock};

/// Radix width for a scalar of `bits` bits. Wider windows cost
/// exponentially more precompute and memory but save linearly on
/// evaluation; past `w = 5` the table build dominates for our sizes.
fn default_window(bits: u32) -> usize {
    if bits <= 192 {
        4
    } else {
        5
    }
}

/// Precomputed radix-2^w tables for exponentiating one fixed base.
///
/// Build once with [`FixedBase::new`] (or behind a [`LazyFixedBase`] /
/// `OnceLock` when the base outlives the call site), then call
/// [`FixedBase::pow_fixed`] per exponent.
#[derive(Clone, Debug)]
pub struct FixedBase<G: Group> {
    base: G,
    window: usize,
    /// Row `b` (of `2^window − 1` entries) holds `base^(d·2^{b·window})`
    /// for `d ∈ 1..2^window`, at index `b·(2^window − 1) + d − 1`.
    table: Vec<G>,
}

impl<G: Group> FixedBase<G> {
    /// Precompute tables covering the full scalar bit length, with the
    /// default window for this scalar size.
    pub fn new(base: &G) -> Self {
        Self::with_window(base, default_window(G::Scalar::modulus_bits()))
    }

    /// Precompute with an explicit radix width `w ∈ 1..=8`.
    pub fn with_window(base: &G, window: usize) -> Self {
        assert!((1..=8).contains(&window), "fixed-base window out of range");
        let bits = G::Scalar::modulus_bits() as usize;
        let blocks = bits.div_ceil(window);
        let row_len = (1usize << window) - 1;
        let mut table = Vec::with_capacity(blocks * row_len);
        // `cur` walks the radix powers base^(2^{b·w}); each block row is
        // cur, cur², …, cur^{2^w−1} by repeated multiplication, and the
        // next radix power is row-top · cur — no doubling chain needed.
        let mut cur = *base;
        for _ in 0..blocks {
            table.push(cur);
            for _ in 1..row_len {
                let prev = table[table.len() - 1];
                table.push(prev.raw_op(&cur));
            }
            cur = table[table.len() - 1].raw_op(&cur);
        }
        G::batch_normalize(&mut table);
        Self {
            base: *base,
            window,
            table,
        }
    }

    /// The base these tables were built for.
    pub fn base(&self) -> &G {
        &self.base
    }

    /// The radix width `w`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total table footprint in group elements.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// `base^exp` — identical group element to `self.base().pow(exp)`, and
    /// the identical single `pow` counter bump.
    pub fn pow_fixed(&self, exp: &G::Scalar) -> G {
        match G::KIND {
            GroupKind::Target => counters::count_gt_pow(),
            _ => counters::count_g_pow(),
        }
        self.pow_raw_limbs(&exp.to_canonical_limbs())
    }

    /// Uninstrumented digit-recombination core over little-endian limbs.
    /// Exponents wider than the covered bit length (never produced by
    /// canonical scalars) fall back to the generic engine
    /// ([`Group::pow_vartime_limbs`]).
    pub fn pow_raw_limbs(&self, exp: &[u64]) -> G {
        let row_len = (1usize << self.window) - 1;
        if bits_slice(exp) as usize > self.window * (self.table.len() / row_len) {
            return self.base.pow_vartime_limbs(exp);
        }
        let mut acc = G::identity();
        for (b, row) in self.table.chunks(row_len).enumerate() {
            let d = window(exp, b * self.window, self.window);
            if d != 0 {
                acc = acc.raw_op(&row[d - 1]);
            }
        }
        acc
    }
}

/// A shareable, lazily-built [`FixedBase`] cell for bases that live inside
/// long-lived values — the `z` of a `dlr::PublicKey`, the `z` of IBE
/// public parameters. The first exponentiation builds the tables; clones
/// share them (`Arc`).
///
/// Equality and hashing deliberately ignore the cache so embedding one in
/// a struct leaves its derived `PartialEq`/`Eq`/`Hash` semantics — and its
/// wire format, which never serializes the cache — unchanged.
pub struct LazyFixedBase<G: Group>(Arc<OnceLock<FixedBase<G>>>);

impl<G: Group> LazyFixedBase<G> {
    /// An empty cell; tables are built on first use.
    pub fn new() -> Self {
        Self(Arc::new(OnceLock::new()))
    }

    /// The tables for `base`, built on first call. Callers must pass the
    /// same base on every call against one cell (debug-asserted): the cell
    /// belongs to the value that owns the base.
    pub fn tables(&self, base: &G) -> &FixedBase<G> {
        let tables = self.0.get_or_init(|| FixedBase::new(base));
        debug_assert_eq!(
            tables.base(),
            base,
            "LazyFixedBase reused with a different base"
        );
        tables
    }

    /// Build the tables now — for warming caches off the hot path (the
    /// server keyring does this outside its generation locks). No-op when
    /// already built.
    pub fn warm(&self, base: &G) {
        let _ = self.tables(base);
    }

    /// True once the tables have been built.
    pub fn is_warm(&self) -> bool {
        self.0.get().is_some()
    }

    /// `base^exp` through the cached tables: same value and counter bump
    /// as `base.pow(exp)`.
    pub fn pow(&self, base: &G, exp: &G::Scalar) -> G {
        self.tables(base).pow_fixed(exp)
    }
}

impl<G: Group> Clone for LazyFixedBase<G> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<G: Group> Default for LazyFixedBase<G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: Group> core::fmt::Debug for LazyFixedBase<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("LazyFixedBase")
            .field(&if self.is_warm() { "warm" } else { "cold" })
            .finish()
    }
}

impl<G: Group> PartialEq for LazyFixedBase<G> {
    fn eq(&self, _other: &Self) -> bool {
        true // caches carry no semantic state
    }
}

impl<G: Group> Eq for LazyFixedBase<G> {}

impl<G: Group> core::hash::Hash for LazyFixedBase<G> {
    fn hash<H: core::hash::Hasher>(&self, _state: &mut H) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::G;
    use crate::gt::Gt;
    use crate::params::{SsParams, Toy};
    use dlr_math::FieldElement;
    use rand::SeedableRng;

    type Fr = <Toy as SsParams>::Fr;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn edge_scalars(r: &mut impl rand::RngCore) -> Vec<Fr> {
        let mut out = vec![
            Fr::zero(),
            Fr::one(),
            -Fr::one(), // r − 1
            Fr::from_u64(2),
            Fr::from_u64(1 << 62),
        ];
        for _ in 0..8 {
            out.push(Fr::random(r));
        }
        out
    }

    #[test]
    fn matches_pow_on_source_group() {
        let mut r = rng();
        let base = G::<Toy>::random(&mut r);
        let fb = FixedBase::new(&base);
        for s in edge_scalars(&mut r) {
            assert_eq!(fb.pow_fixed(&s), base.pow(&s), "scalar {s:?}");
        }
    }

    #[test]
    fn matches_pow_on_target_group() {
        let mut r = rng();
        let base = Gt::<Toy>::random(&mut r);
        let fb = FixedBase::new(&base);
        for s in edge_scalars(&mut r) {
            assert_eq!(fb.pow_fixed(&s), base.pow(&s), "scalar {s:?}");
        }
    }

    #[test]
    fn every_window_width_agrees() {
        let mut r = rng();
        let base = G::<Toy>::random(&mut r);
        let s = Fr::random(&mut r);
        let expect = base.pow(&s);
        for w in 1..=8 {
            let fb = FixedBase::with_window(&base, w);
            assert_eq!(fb.pow_fixed(&s), expect, "window {w}");
            assert!(fb.table_len() >= 1);
        }
    }

    #[test]
    fn identity_base_and_identity_result() {
        let fb = FixedBase::new(&G::<Toy>::identity());
        assert_eq!(fb.pow_fixed(&Fr::from_u64(12345)), G::<Toy>::identity());
        let mut r = rng();
        let base = G::<Toy>::random(&mut r);
        let fb = FixedBase::new(&base);
        assert_eq!(fb.pow_fixed(&Fr::zero()), G::<Toy>::identity());
    }

    #[test]
    fn wide_limb_fallback_matches_generic_chain() {
        let mut r = rng();
        let base = G::<Toy>::random(&mut r);
        let fb = FixedBase::new(&base);
        // Wider than the table coverage (Toy scalars are 63-bit): must
        // fall back to the generic engine, not truncate. Checked against
        // the binary double-and-add reference, not the engine itself.
        let wide = [u64::MAX, 0x1f];
        let expect = crate::multiexp::naive_limbs(&[base], &[wide]);
        assert_eq!(fb.pow_raw_limbs(&wide), expect);
    }

    #[test]
    fn counter_parity_with_pow() {
        let mut r = rng();
        let g = G::<Toy>::random(&mut r);
        let t = Gt::<Toy>::random(&mut r);
        let s = Fr::random(&mut r);
        let fg = FixedBase::new(&g);
        let ft = FixedBase::new(&t);
        let (_, naive) = counters::measure(|| {
            let _ = g.pow(&s);
            let _ = t.pow(&s);
        });
        let (_, fixed) = counters::measure(|| {
            let _ = fg.pow_fixed(&s);
            let _ = ft.pow_fixed(&s);
        });
        assert_eq!(naive, fixed, "op reports must be indistinguishable");
        assert_eq!(fixed.g_pow, 1);
        assert_eq!(fixed.gt_pow, 1);
    }

    #[test]
    fn table_build_is_uninstrumented() {
        let mut r = rng();
        let base = G::<Toy>::random(&mut r);
        let (_, report) = counters::measure(|| {
            let _ = FixedBase::new(&base);
        });
        assert_eq!(report.g_op, 0);
        assert_eq!(report.g_pow, 0);
    }

    #[test]
    fn lazy_cell_shares_and_compares_equal() {
        let mut r = rng();
        let base = G::<Toy>::random(&mut r);
        let cell = LazyFixedBase::new();
        assert!(!cell.is_warm());
        let copy = cell.clone();
        let s = Fr::random(&mut r);
        assert_eq!(cell.pow(&base, &s), base.pow(&s));
        // the clone shares the built tables
        assert!(copy.is_warm());
        assert_eq!(cell, LazyFixedBase::new()); // equality ignores contents
        copy.warm(&base); // no-op
    }
}
