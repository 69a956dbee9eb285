//! HPSKE — homomorphic proxy secret key encryption (Definition 5.1,
//! construction of Lemma 5.2).
//!
//! `Π_comm` encrypts the inter-device communication of the decryption and
//! refresh protocols. It is:
//!
//! * **multiplicatively homomorphic coordinate-wise**:
//!   `Dec'(c_0 · c_1) = m_0 · m_1` (Def. 5.1 part 1) — this is what lets
//!   `P2` compute on ciphertexts it cannot decrypt ("proxy");
//! * **entropy-preserving under leakage** (Def. 5.1 part 2): `ℓ` random
//!   plaintexts keep `≥ log p + 2 log(1/ε)` pseudo average min-entropy even
//!   given their ciphertexts and `λ` bits of leakage on the key, coins and
//!   plaintexts — validated *exactly* on mini groups by experiment F5.
//!
//! Construction (Lemma 5.2): `sk_comm = (σ_1, …, σ_κ) ∈ Z_p^κ`;
//! `Enc'(m) = (b_1, …, b_κ, m·∏ b_j^{σ_j})` with `b_j` random group
//! elements; `Dec'(b_1, …, b_κ, b_0) = b_0 / ∏ b_j^{σ_j}`.
//!
//! Because the key is a plain exponent vector, **one key works for both
//! `G` and `GT`** ("HPSKE for ℓ, G, GT") — which the §5.2 ciphertext-reuse
//! remark exploits: a ciphertext over `G` paired coordinate-wise with a
//! point `A` becomes a valid ciphertext over `GT` under the same key (see
//! [`pair_ciphertext`]).

use dlr_curve::{Group, Pairing};
use dlr_math::PrimeField;
use rand::RngCore;

/// HPSKE secret key `(σ_1, …, σ_κ)` — shared across every group with
/// scalar field `F`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpskeKey<F> {
    /// The exponent vector.
    pub sigma: Vec<F>,
}

impl<F: PrimeField> HpskeKey<F> {
    /// `Gen'`: sample a `κ`-element key.
    pub fn generate<R: RngCore + ?Sized>(kappa: usize, rng: &mut R) -> Self {
        Self {
            sigma: (0..kappa).map(|_| F::random(rng)).collect(),
        }
    }

    /// Key length `κ`.
    pub fn kappa(&self) -> usize {
        self.sigma.len()
    }
}

/// HPSKE ciphertext `(b_1, …, b_κ, c_0)` over a group `G`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HpskeCiphertext<G> {
    /// Random coins `b_j` (group elements).
    pub b: Vec<G>,
    /// Payload component `m · ∏ b_j^{σ_j}`.
    pub c0: G,
}

/// `Enc'` with caller-chosen coins (the reuse remark requires the caller to
/// keep the coins so it can later pair them).
pub fn encrypt_with_coins<G: Group>(
    key: &HpskeKey<G::Scalar>,
    m: &G,
    coins: Vec<G>,
) -> HpskeCiphertext<G> {
    assert_eq!(coins.len(), key.sigma.len(), "coin count must equal κ");
    let mask = G::product_of_powers(&coins, &key.sigma);
    HpskeCiphertext {
        c0: m.op(&mask),
        b: coins,
    }
}

/// `Enc'`: encrypt a group element under fresh random coins.
pub fn encrypt<G: Group, R: RngCore + ?Sized>(
    key: &HpskeKey<G::Scalar>,
    m: &G,
    rng: &mut R,
) -> HpskeCiphertext<G> {
    dlr_metrics::span("hpske.enc", || {
        let coins: Vec<G> = (0..key.sigma.len()).map(|_| G::random(rng)).collect();
        encrypt_with_coins(key, m, coins)
    })
}

/// `Dec'`: recover the plaintext. Returns `None` on a length mismatch.
pub fn decrypt<G: Group>(key: &HpskeKey<G::Scalar>, ct: &HpskeCiphertext<G>) -> Option<G> {
    dlr_metrics::span("hpske.dec", || {
        if ct.b.len() != key.sigma.len() {
            return None;
        }
        let mask = G::product_of_powers(&ct.b, &key.sigma);
        Some(ct.c0.div(&mask))
    })
}

impl<G: Group> HpskeCiphertext<G> {
    /// Every coordinate, `(b_1, …, b_κ, c_0)`, for in-place rewriting
    /// (see [`normalize`]).
    pub fn coordinates_mut(&mut self) -> impl Iterator<Item = &mut G> {
        self.b.iter_mut().chain([&mut self.c0])
    }

    /// Coordinate-wise product (Def. 5.1 part 1):
    /// `Dec'(self · rhs) = Dec'(self) · Dec'(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertexts have different `κ`.
    pub fn mul(&self, rhs: &Self) -> Self {
        assert_eq!(self.b.len(), rhs.b.len(), "κ mismatch");
        Self {
            b: self
                .b
                .iter()
                .zip(rhs.b.iter())
                .map(|(x, y)| x.op(y))
                .collect(),
            c0: self.c0.op(&rhs.c0),
        }
    }

    /// Coordinate-wise inverse: `Dec'(self^{-1}) = Dec'(self)^{-1}`.
    pub fn invert(&self) -> Self {
        Self {
            b: self.b.iter().map(Group::inverse).collect(),
            c0: self.c0.inverse(),
        }
    }

    /// Coordinate-wise quotient.
    pub fn div(&self, rhs: &Self) -> Self {
        self.mul(&rhs.invert())
    }

    /// Coordinate-wise power: `Dec'(self^s) = Dec'(self)^s`.
    pub fn pow(&self, s: &G::Scalar) -> Self {
        Self {
            b: self.b.iter().map(|x| x.pow(s)).collect(),
            c0: self.c0.pow(s),
        }
    }

    /// `∏ ctsᵢ^{expsᵢ}` computed coordinate-wise with one multi-
    /// exponentiation per coordinate — this is the entirety of `P2`'s
    /// per-protocol computation (the "auxiliary device is simple" claim of
    /// §1.1).
    ///
    /// # Panics
    ///
    /// Panics if lengths are inconsistent.
    pub fn product_of_powers(cts: &[Self], exps: &[G::Scalar]) -> Self {
        assert_eq!(cts.len(), exps.len(), "cts/exps length mismatch");
        assert!(!cts.is_empty(), "need at least one ciphertext");
        let kappa = cts[0].b.len();
        let mut b = Vec::with_capacity(kappa);
        for j in 0..kappa {
            let bases: Vec<G> = cts.iter().map(|ct| ct.b[j]).collect();
            b.push(G::product_of_powers(&bases, exps));
        }
        let bases: Vec<G> = cts.iter().map(|ct| ct.c0).collect();
        let c0 = G::product_of_powers(&bases, exps);
        Self { b, c0 }
    }

    /// Serialized length for a given `κ`.
    pub fn byte_len(kappa: usize) -> usize {
        (kappa + 1) * G::byte_len()
    }
}

/// Fixed-base exponentiation tables for one HPSKE ciphertext — one
/// [`FixedBase`](dlr_curve::FixedBase) per coordinate (`κ` coins plus the
/// payload).
///
/// Worth building only when the *same* ciphertext is raised to many
/// scalars. The two-party protocols never do that: the period-fixed `f_i`
/// of [`CommMode::Reuse`](crate::dlr::CommMode) are *paired* with `A` once
/// per decryption on `P1` and exponentiated exactly once per period (by
/// `P2`, in the refresh), and the `d_i` that `P2` exponentiates per
/// decryption change with every ciphertext. The protocol path therefore
/// keeps [`HpskeCiphertext::product_of_powers`] — tables would cost more
/// than they save — and these tables serve callers that hold one
/// ciphertext and apply many exponents to it (`bench a7_fixed_base`
/// measures the break-even).
///
/// [`pow_fixed`](Self::pow_fixed) bumps exactly the counters
/// [`HpskeCiphertext::pow`] does (`κ+1` group pows), so op-count reports
/// are comparable across the two evaluation strategies.
#[derive(Debug, Clone)]
pub struct HpskeTables<G: Group> {
    b: Vec<dlr_curve::FixedBase<G>>,
    c0: dlr_curve::FixedBase<G>,
}

impl<G: Group> HpskeTables<G> {
    /// Precompute tables for every coordinate of `ct`. Uninstrumented
    /// (table construction is setup work, not protocol ops).
    pub fn new(ct: &HpskeCiphertext<G>) -> Self {
        Self {
            b: ct.b.iter().map(dlr_curve::FixedBase::new).collect(),
            c0: dlr_curve::FixedBase::new(&ct.c0),
        }
    }

    /// Key length `κ` of the underlying ciphertext.
    pub fn kappa(&self) -> usize {
        self.b.len()
    }

    /// Coordinate-wise power via the tables — same result and same
    /// counter footprint as [`HpskeCiphertext::pow`] on the source
    /// ciphertext.
    pub fn pow_fixed(&self, s: &G::Scalar) -> HpskeCiphertext<G> {
        HpskeCiphertext {
            b: self.b.iter().map(|t| t.pow_fixed(s)).collect(),
            c0: self.c0.pow_fixed(s),
        }
    }
}

/// The §5.2 reuse map: pair every coordinate of a `G`-ciphertext with a
/// point `A`, yielding a valid `GT`-ciphertext **of `e(A, m)` under the
/// same key**:
///
/// ```text
/// (b_1, …, b_κ, m·∏ b_j^{σ_j})  ↦  (e(A,b_1), …, e(A,b_κ), e(A,m)·∏ e(A,b_j)^{σ_j})
/// ```
pub fn pair_ciphertext<E: Pairing>(
    a: &E::G1,
    ct: &HpskeCiphertext<E::G2>,
) -> HpskeCiphertext<E::Gt> {
    pair_ciphertext_prepared::<E>(&E::prepare(a), ct)
}

/// [`pair_ciphertext`] with `A` already [`prepare`](Pairing::prepare)d.
pub fn pair_ciphertext_prepared<E: Pairing>(
    prep: &E::Prepared,
    ct: &HpskeCiphertext<E::G2>,
) -> HpskeCiphertext<E::Gt> {
    pair_ciphertexts_prepared::<E>(prep, core::slice::from_ref(ct))
        .pop()
        .expect("one ciphertext in, one out")
}

/// Every coordinate of every ciphertext, `(b_1, …, b_κ, c_0)` per
/// ciphertext, in order.
fn coordinates<G: Group>(cts: &[HpskeCiphertext<G>]) -> Vec<G> {
    cts.iter()
        .flat_map(|ct| ct.b.iter().chain([&ct.c0]).copied())
        .collect()
}

/// The §5.2 reuse map over a whole period's ciphertext set: every
/// coordinate of every `f_i` paired with one prepared `A`. The decryption
/// protocols of both `P1` layouts go through here, so the Miller chain of
/// `A` is walked once per `dec_start` and all `n·(κ+1)` evaluations share
/// one [`multi_pair_prepared`](Pairing::multi_pair_prepared) call (one
/// batched final exponentiation, on the calling thread).
///
/// Ciphertexts that were [`normalize`]d when the period started are
/// evaluated as stored; anything else pays one coordinate conversion per
/// point per call.
pub fn pair_ciphertexts_prepared<E: Pairing>(
    prep: &E::Prepared,
    cts: &[HpskeCiphertext<E::G2>],
) -> Vec<HpskeCiphertext<E::Gt>> {
    let mut paired = E::multi_pair_prepared(prep, &coordinates(cts)).into_iter();
    cts.iter()
        .map(|ct| HpskeCiphertext {
            b: paired.by_ref().take(ct.b.len()).collect(),
            c0: paired.next().expect("κ+1 slots in, κ+1 out"),
        })
        .collect()
}

/// Put group elements that will be re-read — paired once per decrypt,
/// serialized once per refresh, mirrored into secret memory — into the
/// group's normalized representation, with one shared
/// [`Group::batch_normalize`] pass (one field inversion on a curve). Pass
/// ciphertexts through [`HpskeCiphertext::coordinates_mut`]. Every element
/// is unchanged as a group element.
pub fn normalize<'a, G: Group + 'a>(slots: impl IntoIterator<Item = &'a mut G>) {
    let mut slots: Vec<&mut G> = slots.into_iter().collect();
    let mut points: Vec<G> = slots.iter().map(|slot| **slot).collect();
    G::batch_normalize(&mut points);
    for (slot, point) in slots.iter_mut().zip(points) {
        **slot = point;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_curve::modgroup::{Mini1009, ModGroup};
    use dlr_curve::{Gt, Toy, G};
    use dlr_math::FieldElement;
    use rand::SeedableRng;

    type MG = ModGroup<Mini1009>;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    // Manual micro-benchmark for the encryption hot path (the numbers
    // cited in DESIGN.md §4 "Arithmetic floor" come from min-of-N runs
    // of this — criterion is too noisy on the single-core CI box):
    //   cargo test --release -p dlr-core --lib -- --ignored hpske_micro_timings --nocapture
    #[test]
    #[ignore]
    fn hpske_micro_timings() {
        use dlr_curve::Group;
        use std::time::Instant;
        let mut r = rng();
        let key = HpskeKey::<<Toy as dlr_curve::Pairing>::Scalar>::generate(3, &mut r);
        let m = G::<Toy>::random(&mut r);
        let iters = 2_000u32;
        let best = |f: &mut dyn FnMut() -> u64| (0..5).map(|_| f()).min().unwrap();
        let enc = best(&mut || {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(encrypt(&key, &m, &mut r));
            }
            t.elapsed().as_nanos() as u64 / iters as u64
        });
        let coins: Vec<G<Toy>> = (0..3).map(|_| G::random(&mut r)).collect();
        let pop = best(&mut || {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(G::<Toy>::product_of_powers(&coins, &key.sigma));
            }
            t.elapsed().as_nanos() as u64 / iters as u64
        });
        let rnd = best(&mut || {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(G::<Toy>::random(&mut r));
            }
            t.elapsed().as_nanos() as u64 / iters as u64
        });
        eprintln!("TOY: hpske.enc={enc}ns | product_of_powers(3)={pop}ns g-random={rnd}ns");
        // Primitive point-op costs behind the multiexp (uncounted raw ops).
        let a = G::<Toy>::random(&mut r);
        let b = G::<Toy>::random(&mut r);
        let piters = 200_000u32;
        let add = best(&mut || {
            let t = Instant::now();
            let mut acc = a;
            for _ in 0..piters {
                acc = acc.raw_op(&b);
            }
            std::hint::black_box(acc);
            t.elapsed().as_nanos() as u64 / piters as u64
        });
        let dbl = best(&mut || {
            let t = Instant::now();
            let mut acc = a;
            for _ in 0..piters {
                acc = acc.raw_double();
            }
            std::hint::black_box(acc);
            t.elapsed().as_nanos() as u64 / piters as u64
        });
        eprintln!("TOY: raw_op={add}ns raw_double={dbl}ns");
    }

    #[test]
    fn roundtrip_g_and_gt() {
        let mut r = rng();
        let key = HpskeKey::generate(3, &mut r);
        let mg = G::<Toy>::random(&mut r);
        let ct = encrypt(&key, &mg, &mut r);
        assert_eq!(decrypt(&key, &ct), Some(mg));
        // same key works over GT
        let mt = Gt::<Toy>::random(&mut r);
        let ct = encrypt(&key, &mt, &mut r);
        assert_eq!(decrypt(&key, &ct), Some(mt));
    }

    #[test]
    fn homomorphism_mul() {
        let mut r = rng();
        let key = HpskeKey::generate(4, &mut r);
        let m0 = MG::random(&mut r);
        let m1 = MG::random(&mut r);
        let c0 = encrypt(&key, &m0, &mut r);
        let c1 = encrypt(&key, &m1, &mut r);
        assert_eq!(decrypt(&key, &c0.mul(&c1)), Some(m0.op(&m1)));
        assert_eq!(decrypt(&key, &c0.div(&c1)), Some(m0.div(&m1)));
    }

    #[test]
    fn homomorphism_pow() {
        let mut r = rng();
        let key = HpskeKey::generate(4, &mut r);
        let m = MG::random(&mut r);
        let s = <MG as Group>::Scalar::random(&mut r);
        let ct = encrypt(&key, &m, &mut r);
        assert_eq!(decrypt(&key, &ct.pow(&s)), Some(m.pow(&s)));
    }

    #[test]
    fn product_of_powers_is_p2s_job() {
        let mut r = rng();
        let key = HpskeKey::generate(3, &mut r);
        let ms: Vec<MG> = (0..5).map(|_| MG::random(&mut r)).collect();
        let ss: Vec<_> = (0..5).map(|_| <MG as Group>::Scalar::random(&mut r)).collect();
        let cts: Vec<_> = ms.iter().map(|m| encrypt(&key, m, &mut r)).collect();
        let combined = HpskeCiphertext::product_of_powers(&cts, &ss);
        let expect = MG::product_of_powers(&ms, &ss);
        assert_eq!(decrypt(&key, &combined), Some(expect));
    }

    #[test]
    fn pair_ciphertext_reuse_remark() {
        let mut r = rng();
        let key = HpskeKey::generate(2, &mut r);
        let m = G::<Toy>::random(&mut r);
        let a = G::<Toy>::random(&mut r);
        let ct_g = encrypt(&key, &m, &mut r);
        let ct_gt = pair_ciphertext::<Toy>(&a, &ct_g);
        // decrypts (under the SAME key) to e(A, m)
        let expect = <Toy as dlr_curve::Pairing>::pair(&a, &m);
        assert_eq!(decrypt(&key, &ct_gt), Some(expect));
    }

    #[test]
    fn wrong_kappa_rejected() {
        let mut r = rng();
        let key = HpskeKey::generate(4, &mut r);
        let short = HpskeKey {
            sigma: key.sigma[..2].to_vec(),
        };
        let m = MG::random(&mut r);
        let ct = encrypt(&key, &m, &mut r);
        assert_eq!(decrypt(&short, &ct), None);
    }

    #[test]
    fn tables_match_direct_pow() {
        let mut r = rng();
        let key = HpskeKey::generate(3, &mut r);
        let m = G::<Toy>::random(&mut r);
        let ct = encrypt(&key, &m, &mut r);
        let tables = HpskeTables::new(&ct);
        assert_eq!(tables.kappa(), 3);
        for _ in 0..8 {
            let s = <G<Toy> as Group>::Scalar::random(&mut r);
            assert_eq!(tables.pow_fixed(&s), ct.pow(&s));
        }
        // edge scalars
        assert_eq!(
            tables.pow_fixed(&<G<Toy> as Group>::Scalar::zero()),
            ct.pow(&<G<Toy> as Group>::Scalar::zero())
        );
        assert_eq!(
            tables.pow_fixed(&<G<Toy> as Group>::Scalar::one()),
            ct.pow(&<G<Toy> as Group>::Scalar::one())
        );
    }

    #[test]
    fn tables_count_like_pow() {
        let mut r = rng();
        let key = HpskeKey::generate(4, &mut r);
        let m = Gt::<Toy>::random(&mut r);
        let ct = encrypt(&key, &m, &mut r);
        let s = <Gt<Toy> as Group>::Scalar::random(&mut r);
        // Table construction must not touch the counters.
        let (tables, build) = dlr_curve::counters::measure(|| HpskeTables::new(&ct));
        assert_eq!(build.gt_pow, 0);
        assert_eq!(build.gt_op, 0);
        let (_, direct) = dlr_curve::counters::measure(|| ct.pow(&s));
        let (_, fixed) = dlr_curve::counters::measure(|| tables.pow_fixed(&s));
        assert_eq!(fixed.gt_pow, direct.gt_pow);
        assert_eq!(fixed.gt_pow, 5); // κ+1 coordinates
        assert_eq!(fixed.gt_op, direct.gt_op);
    }

    #[test]
    #[should_panic(expected = "κ mismatch")]
    fn mul_checks_kappa() {
        let mut r = rng();
        let k2 = HpskeKey::generate(2, &mut r);
        let k3 = HpskeKey::generate(3, &mut r);
        let m = MG::random(&mut r);
        let a = encrypt(&k2, &m, &mut r);
        let b = encrypt(&k3, &m, &mut r);
        let _ = a.mul(&b);
    }
}
