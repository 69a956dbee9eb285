//! The modified Tate pairing `ê(P, Q) = e_r(P, φ(Q))^{(p²−1)/r}`.
//!
//! `E : y² = x³ + x` over `F_p` with `p ≡ 3 (mod 4)` is supersingular with
//! distortion map `φ(x, y) = (−x, i·y)` into `E(F_{p²})`. Pairing `P`
//! against the distorted image of `Q` yields a **symmetric, non-degenerate**
//! bilinear map `G × G → GT` — the Type-1 map the paper's constructions are
//! written for.
//!
//! Implementation notes:
//! * one Miller walker, `miller_chain`, serves every pairing: it walks
//!   the doubling/addition chain of the first argument in Jacobian
//!   coordinates over `F_p` and pays two batched inversions for the whole
//!   chain, emitting the line coefficients `(λ, θ)` that
//!   [`PreparedPoint`] caches. A pairing is a prepare followed by a
//!   replay; [`tate_pairing`] is exactly that, and [`pairing_product`]
//!   replays many chains in lockstep under one squaring per bit of `r`;
//! * the distorted point's x-coordinate `−x_Q` lies in the base field, so
//!   each line evaluation is `(λ·x_Q + θ) + y_Q·i` with all arithmetic in
//!   `F_p` (one `F_p` mul) and only the accumulator living in `F_{p²}`;
//! * vertical lines evaluate into `F_p*`, which the final exponentiation
//!   `z ↦ z^{(p−1)·c}` kills (`z^{p−1} = 1` for `z ∈ F_p*`) — standard
//!   denominator elimination;
//! * the final exponentiation uses Frobenius: `z^{p−1} = z̄ · z^{−1}`,
//!   then one `pow` by the cofactor `c = (p+1)/r`;
//! * [`tate_pairing_reference`] (an affine walker with one inversion per
//!   step, plus the generic final exponentiation) is what tests compare
//!   every entry point against.

use crate::counters;
use crate::curve::G;
use crate::gt::Gt;
use crate::params::SsParams;
use crate::prepared::PreparedPoint;
use crate::traits::{Group, Pairing};
use dlr_math::limbs::{bits_slice, window};
use dlr_math::{FieldElement, Fp2, PrimeField};

/// Affine point (never infinity) used inside the Miller walkers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Affine<F> {
    pub(crate) x: F,
    pub(crate) y: F,
}

/// One emitted operation of a Miller chain.
///
/// The doubling/addition schedule for a fixed first argument `P` depends
/// only on `P` and the bits of `r` — never on `Q` — so the chain can be
/// walked once, its line coefficients cached, and replayed against many
/// second arguments (see [`crate::prepared::PreparedPoint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MillerOp<F> {
    /// Square the `F_{p²}` accumulator.
    Square,
    /// Multiply the accumulator by the line
    /// `l(φ(Q)) = (λ·x_Q + θ) + y_Q·i` with `θ = λ·x_T − y_T`.
    Line {
        /// Slope of the tangent/chord at the current `T`.
        lambda: F,
        /// Precombined intercept `λ·x_T − y_T`.
        theta: F,
    },
}

impl<F: PrimeField> MillerOp<F> {
    /// Apply this operation to the accumulator for the distorted point
    /// `φ(Q) = (−x_Q, i·y_Q)`. Line evaluations cost one `F_p`
    /// multiplication plus the `F_{p²}` accumulator multiply.
    #[inline]
    pub(crate) fn apply(&self, f: &mut Fp2<F>, xq: &F, yq: &F) {
        match self {
            MillerOp::Square => *f = f.square(),
            MillerOp::Line { lambda, theta } => {
                // Fused multiply-add: λ·x_Q + θ pays one Montgomery
                // reduction (same canonical value as the eager form).
                *f *= Fp2::new(lambda.mul_add(xq, theta), *yq);
            }
        }
    }
}

/// Jacobian doubling on `y² = x³ + x` (`a = 1`) of a point with `Y ≠ 0`:
/// `M = 3X² + Z⁴`, `S = 4XY²`, `Z₃ = 2YZ`.
fn jacobian_double<F: PrimeField>((x, y, z): (F, F, F)) -> (F, F, F) {
    let xx = x.square();
    let m = xx.double() + xx + z.square().square();
    let yy = y.square();
    let s = (x * yy).double().double();
    let x3 = m.square() - s.double();
    let y3 = m * (s - x3) - yy.square().double().double().double();
    (x3, y3, (y * z).double())
}

/// Walk the Miller chain of `p` over the bits of the subgroup order `r`,
/// returning every accumulator operation in order — the one production
/// Miller walker.
///
/// The running point advances in Jacobian coordinates with no per-step
/// inversion; then every logged intermediate is normalized and every slope
/// denominator inverted with two [`dlr_math::batch_inverse`] calls. The
/// normalized intermediates are canonical affine coordinates and every
/// degeneracy (vertical tangent or chord → no line, running point to
/// infinity; the final addition of any in-subgroup chain lands on
/// `T = −P`) is taken case for case as the affine reference walker takes
/// it, so the emitted `(λ, θ)` sequence is **bit-identical** to the
/// reference's for every input.
///
/// Every chain emits exactly one [`MillerOp::Square`] per bit of `r` below
/// the top one, followed by that bit's lines.
pub(crate) fn miller_chain<P: SsParams>(p: Affine<P::Fp>) -> Vec<MillerOp<P::Fp>> {
    /// What a chain slot multiplies into the accumulator: nothing (the
    /// squaring per bit), a tangent line at the next logged point, or a
    /// chord line through the next logged point and the base point.
    enum Slot {
        Square,
        Tangent,
        Chord,
    }

    let r_limbs = crate::util::field_modulus_limbs::<P::Fr>();
    let one = P::Fp::one();
    // Jacobian running point (x, y) = (X/Z², Y/Z³), `None` at infinity;
    // `pre` logs the coordinates *before* each line-emitting op.
    let mut t = Some((p.x, p.y, one));
    let mut pre: Vec<(P::Fp, P::Fp, P::Fp)> = Vec::new();
    let mut slots: Vec<Slot> = Vec::new();
    for i in (0..bits_slice(&r_limbs) as usize - 1).rev() {
        slots.push(Slot::Square);
        if let Some(cur) = t {
            if cur.1.is_zero() {
                // Vertical tangent (2-torsion): subfield factor only, and
                // the running point doubles to infinity.
                t = None;
            } else {
                slots.push(Slot::Tangent);
                pre.push(cur);
                t = Some(jacobian_double(cur));
            }
        }
        if window(&r_limbs, i, 1) == 1 {
            t = match t {
                // O + P = P, trivial function.
                None => Some((p.x, p.y, one)),
                Some(cur @ (tx, ty, tz)) => {
                    let zz = tz.square();
                    let u2 = p.x * zz;
                    let s2 = p.y * zz * tz;
                    if u2 != tx {
                        slots.push(Slot::Chord);
                        pre.push(cur);
                        let h = u2 - tx;
                        let r = s2 - ty;
                        let hh = h.square();
                        let hhh = h * hh;
                        let v = tx * hh;
                        let x3 = r.square() - hhh - v.double();
                        let y3 = r * (v - x3) - ty * hhh;
                        Some((x3, y3, tz * h))
                    } else if s2 == ty && !ty.is_zero() {
                        // T = P: the tangent case.
                        slots.push(Slot::Tangent);
                        pre.push(cur);
                        Some(jacobian_double(cur))
                    } else {
                        // T = −P (the final addition of every in-subgroup
                        // chain) or 2-torsion T = P: vertical line, no
                        // accumulator work, running point to infinity.
                        None
                    }
                }
            };
        }
    }

    // The walker cannot fail. Every logged Z is a product of nonzero
    // factors — 1, then 2·Y with Y ≠ 0 for each doubling and
    // H = x_P·Z² − X ≠ 0 for each chord, each checked by the branch that
    // took the step (p is odd) — so the first batched inversion succeeds.
    // Each slope denominator is nonzero by the branch that logged it:
    // 2·y_T with y_T ≠ 0 for a tangent, x_P − x_T ≠ 0 for a chord.
    let zs: Vec<P::Fp> = pre.iter().map(|t| t.2).collect();
    let zinv = dlr_math::batch_inverse(&zs).expect("every logged Z is nonzero");
    let aff: Vec<Affine<P::Fp>> = pre
        .iter()
        .zip(&zinv)
        .map(|((x, y, _), zi)| {
            let zi2 = zi.square();
            Affine {
                x: *x * zi2,
                y: *y * zi2 * *zi,
            }
        })
        .collect();
    let lines = || slots.iter().filter(|slot| !matches!(slot, Slot::Square)).zip(&aff);
    let denoms: Vec<P::Fp> = lines()
        .map(|(kind, t)| match kind {
            Slot::Tangent => t.y.double(),
            _ => p.x - t.x,
        })
        .collect();
    let dinv = dlr_math::batch_inverse(&denoms).expect("every slope denominator is nonzero");

    let mut pending = lines().zip(dinv);
    slots
        .iter()
        .map(|slot| {
            if matches!(slot, Slot::Square) {
                return MillerOp::Square;
            }
            let ((kind, t), inv) = pending.next().expect("one inverse per line");
            let numerator = match kind {
                Slot::Tangent => {
                    let xx = t.x.square();
                    xx.double() + xx + one
                }
                _ => p.y - t.y,
            };
            let lambda = numerator * inv;
            MillerOp::Line {
                lambda,
                theta: lambda.mul_add(&t.x, &(-t.y)),
            }
        })
        .collect()
}

/// Reference final exponentiation `z ↦ z^{(p²−1)/r} = (z̄ / z)^c`: one
/// `F_{p²}` inversion and the generic binary power. The shipping
/// [`final_exponentiation`] must return this exact element; it is also the
/// path for the two inputs the Lucas ladder cannot take (`z̄/z = ±1`).
pub(crate) fn final_exponentiation_reference<P: SsParams>(z: Fp2<P::Fp>) -> Gt<P> {
    debug_assert!(!z.is_zero());
    // z^{p−1} = conj(z) · z^{−1}  (Frobenius on F_{p²} is conjugation)
    let u = z.conjugate() * z.inverse().expect("nonzero");
    Gt::from_unitary(u.pow_vartime(P::COFACTOR))
}

/// The one `F_p` value whose inverse [`cofactor_power`] needs for
/// `z = x + y·i`: `N(z)·2xy`. Zero exactly when `z̄/z = ±1` (`x = 0` or
/// `y = 0`; `N(z) ≠ 0` for nonzero `z` because `−1` is a non-residue).
fn cofactor_denominator<F: PrimeField>(z: &Fp2<F>) -> F {
    z.norm() * (z.c0 * z.c1).double()
}

/// `(z̄/z)^c` given `inv = cofactor_denominator(z)^{-1}`.
///
/// `u = z̄/z = z̄²/N(z)` is unitary for every nonzero `z`, so the cofactor
/// power runs as a Lucas ladder over `F_p`
/// ([`Fp2::unitary_pow_vartime`]). With `t = 2xy` and `N = x² + y²`:
/// `u = ((x²−y²) − t·i)/N`, and the ladder's `Im(u)^{-1} = −N/t`; both
/// `N^{-1} = inv·t` and `t^{-1} = inv·N` come out of the one supplied
/// inverse, so no `F_{p²}` inversion is needed at all.
fn cofactor_power<P: SsParams>(z: &Fp2<P::Fp>, inv: &P::Fp) -> Gt<P> {
    let n = z.norm();
    let t = (z.c0 * z.c1).double();
    let n_inv = *inv * t;
    let u = Fp2::new((z.c0 - z.c1) * (z.c0 + z.c1) * n_inv, -(t * n_inv));
    let im_inv = -(n * (*inv * n));
    Gt::from_unitary(u.unitary_pow_vartime(P::COFACTOR, &im_inv))
}

/// Final exponentiation `z ↦ z^{(p²−1)/r} = (z̄ / z)^c` mapping into `μ_r`.
pub fn final_exponentiation<P: SsParams>(z: Fp2<P::Fp>) -> Gt<P> {
    debug_assert!(!z.is_zero());
    match cofactor_denominator(&z).inverse() {
        Some(inv) => cofactor_power::<P>(&z, &inv),
        None => final_exponentiation_reference::<P>(z),
    }
}

/// Batch final exponentiation: map a vector of Miller outputs into `μ_r`
/// with **one** `F_p` inversion via Montgomery's simultaneous-inversion
/// trick ([`dlr_math::batch_inverse`]); the per-element cofactor powers are
/// unavoidable (distinct bases).
///
/// Zero entries map to the identity — the same out-of-subgroup guard as
/// [`tate_pairing`], and the sentinel [`crate::prepared::PreparedPoint`]
/// uses for identity-slot evaluations.
pub fn batch_final_exponentiation<P: SsParams>(zs: &[Fp2<P::Fp>]) -> Vec<Gt<P>> {
    let denominators: Vec<P::Fp> = zs.iter().map(cofactor_denominator).collect();
    let nonzero: Vec<P::Fp> = denominators.iter().filter(|d| !d.is_zero()).copied().collect();
    let inverses = dlr_math::batch_inverse(&nonzero).expect("zeros filtered out");
    let mut inv_iter = inverses.iter();
    zs.iter()
        .zip(&denominators)
        .map(|(z, d)| {
            if z.is_zero() {
                Gt::identity()
            } else if d.is_zero() {
                final_exponentiation_reference::<P>(*z)
            } else {
                cofactor_power::<P>(z, inv_iter.next().expect("one inverse per nonzero"))
            }
        })
        .collect()
}

/// The pairing product `∏ ê(P_i, Q_i)` with a **shared squaring chain and
/// a single final exponentiation**.
///
/// Each first argument is prepared (`miller_chain`), then the chains are
/// replayed in lockstep into one accumulator: every chain emits exactly one
/// `Square` per bit of `r`, so one `F_{p²}` squaring per bit serves every
/// pair, and the final exponentiation (a homomorphism) is applied once to
/// the fused product. Bumps the `pairings` counter once per constituent —
/// the work performed is equivalent, just de-duplicated.
///
/// Pairs with an identity slot contribute the identity factor. If a fused
/// Miller value vanishes (only possible for inputs outside the order-`r`
/// subgroup), the product falls back to evaluating the prepared chains one
/// by one, so the result always equals `∏ tate_pairing(P_i, Q_i)` exactly.
pub fn pairing_product<P: SsParams>(pairs: &[(G<P>, G<P>)]) -> Gt<P> {
    for _ in pairs {
        counters::count_pairing();
    }
    // Pairs with an identity slot contribute e(·, O) = e(O, ·) = 1.
    let live: Vec<_> = pairs
        .iter()
        .filter_map(|(p, q)| {
            let q = q.to_affine()?;
            (!p.is_identity()).then(|| (PreparedPoint::prepare(p), q))
        })
        .collect();
    if live.is_empty() {
        return Gt::identity();
    }

    let mut segments: Vec<_> = live.iter().map(|(prep, _)| prep.lines_per_bit()).collect();
    let mut f = Fp2::<P::Fp>::one();
    for _ in 1..bits_slice(&crate::util::field_modulus_limbs::<P::Fr>()) {
        f = f.square(); // one squaring serves every chain
        for (chain, (_, (xq, yq))) in segments.iter_mut().zip(&live) {
            for op in chain.next().expect("one segment per bit of r") {
                op.apply(&mut f, xq, yq);
            }
        }
    }

    if f.is_zero() {
        // Some constituent Miller value vanished (out-of-subgroup input):
        // recover exact per-element semantics. Pairings were counted above.
        return live.iter().fold(Gt::identity(), |acc, (prep, (xq, yq))| {
            let fi = prep.miller_eval(xq, yq);
            if fi.is_zero() {
                acc
            } else {
                acc.raw_op(&final_exponentiation::<P>(fi))
            }
        });
    }
    final_exponentiation::<P>(f)
}

/// The modified Tate pairing `ê : G × G → GT`: prepare `p`, replay its
/// chain against `q`. Bumps `pairings` once.
pub fn tate_pairing<P: SsParams>(p: &G<P>, q: &G<P>) -> Gt<P> {
    PreparedPoint::prepare(p).pair(q)
}

/// Line coefficients for one affine doubling step, and `2T`.
///
/// `None` coefficients mean a vertical tangent (2-torsion `T`): the line
/// evaluates into `F_p*`, which the final exponentiation kills
/// (denominator elimination), so no accumulator work is emitted.
fn double_coeffs<F: PrimeField>(t: Affine<F>) -> (Option<(F, F)>, Option<Affine<F>>) {
    if t.y.is_zero() {
        return (None, None);
    }
    let xx = t.x.square();
    let three_x2_plus_1 = xx.double() + xx + F::one();
    let lambda = three_x2_plus_1 * t.y.double().inverse().expect("y != 0");
    let x3 = lambda.square() - t.x.double();
    let y3 = lambda.mul_add(&(t.x - x3), &(-t.y));
    // line through (T, T): λ·x_Q + (λ·x_T − y_T) is the F_p part at φ(Q)
    let theta = lambda.mul_add(&t.x, &(-t.y));
    (Some((lambda, theta)), Some(Affine { x: x3, y: y3 }))
}

/// Line coefficients for one affine addition step, and `T + P`.
fn add_coeffs<F: PrimeField>(
    t: Affine<F>,
    p: Affine<F>,
) -> (Option<(F, F)>, Option<Affine<F>>) {
    if t.x == p.x {
        if t.y == p.y {
            return double_coeffs(t);
        }
        // T = −P: the chord is vertical — subfield factor only.
        return (None, None);
    }
    let lambda = (p.y - t.y) * (p.x - t.x).inverse().expect("x1 != x2");
    let x3 = lambda.square() - t.x - p.x;
    let y3 = lambda.mul_add(&(t.x - x3), &(-t.y));
    let theta = lambda.mul_add(&t.x, &(-t.y));
    (Some((lambda, theta)), Some(Affine { x: x3, y: y3 }))
}

/// Reference Miller walker: affine coordinates, one `F_p` inversion per
/// doubling/addition step, emitting every accumulator operation in order.
/// [`miller_chain`] must emit this exact sequence.
pub(crate) fn miller_chain_reference<P: SsParams>(
    p: Affine<P::Fp>,
    mut visit: impl FnMut(MillerOp<P::Fp>),
) {
    let r_limbs = crate::util::field_modulus_limbs::<P::Fr>();
    let mut t: Option<Affine<P::Fp>> = Some(p);
    for i in (0..bits_slice(&r_limbs) as usize - 1).rev() {
        visit(MillerOp::Square);
        if let Some(cur) = t {
            let (coeffs, next) = double_coeffs(cur);
            if let Some((lambda, theta)) = coeffs {
                visit(MillerOp::Line { lambda, theta });
            }
            t = next;
        }
        if window(&r_limbs, i, 1) == 1 {
            if let Some(cur) = t {
                let (coeffs, next) = add_coeffs(cur, p);
                if let Some((lambda, theta)) = coeffs {
                    visit(MillerOp::Line { lambda, theta });
                }
                t = next;
            } else {
                // T was the point at infinity: O + P = P, trivial function.
                t = Some(p);
            }
        }
    }
}

/// Reference pairing: the affine Miller walker (one `F_p` inversion per
/// step) evaluated at `φ(q)`, then the generic final exponentiation
/// `(z̄/z)^c` by binary powering. It shares only the line evaluation
/// with the production path and bumps no counter; every pairing entry point
/// must return its exact element (the identity when a slot is the identity
/// or the Miller value vanishes).
pub fn tate_pairing_reference<P: SsParams>(p: &G<P>, q: &G<P>) -> Gt<P> {
    let (Some((x, y)), Some((xq, yq))) = (p.to_affine(), q.to_affine()) else {
        return Gt::identity();
    };
    let mut f = Fp2::<P::Fp>::one();
    miller_chain_reference::<P>(Affine { x, y }, |op| op.apply(&mut f, &xq, &yq));
    if f.is_zero() {
        return Gt::identity();
    }
    final_exponentiation_reference::<P>(f)
}

impl<P: SsParams> Pairing for P {
    type Scalar = P::Fr;
    type G1 = G<P>;
    type G2 = G<P>;
    type Gt = Gt<P>;
    type Prepared = crate::prepared::PreparedPoint<P>;
    const NAME: &'static str = P::NAME;

    fn pair(p: &Self::G1, q: &Self::G2) -> Self::Gt {
        tate_pairing::<P>(p, q)
    }

    fn pair_generators() -> Self::Gt {
        // Gt::generator() caches e(g, g).
        Gt::<P>::generator()
    }

    fn prepare(p: &Self::G1) -> Self::Prepared {
        crate::prepared::PreparedPoint::prepare(p)
    }

    fn pair_prepared(prep: &Self::Prepared, q: &Self::G2) -> Self::Gt {
        prep.pair(q)
    }

    fn multi_pair_prepared(prep: &Self::Prepared, qs: &[Self::G2]) -> Vec<Self::Gt> {
        prep.multi_pairing(qs)
    }

    fn pairing_product(pairs: &[(Self::G1, Self::G2)]) -> Self::Gt {
        pairing_product::<P>(pairs)
    }

    // The Type-1 map is symmetric — ê(P, Q) = ê(Q, P) exactly (same
    // canonical Gt element) — so a prepared *second* slot reuses the
    // first-slot machinery with the arguments swapped.
    type PreparedQ = crate::prepared::PreparedPoint<P>;

    fn prepare_q(q: &Self::G2) -> Self::PreparedQ {
        crate::prepared::PreparedPoint::prepare(q)
    }

    fn pair_prepared_q(p: &Self::G1, prep: &Self::PreparedQ) -> Self::Gt {
        prep.pair(p)
    }

    fn multi_pair_prepared_q(p: &Self::G1, preps: &[Self::PreparedQ]) -> Vec<Self::Gt> {
        crate::prepared::multi_pairing_many(preps, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Ss512, Toy};
    use rand::SeedableRng;

    type Fr = <Toy as SsParams>::Fr;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    /// The raw Miller value `f_{r,p}(φ(q))` of two non-identity points.
    fn miller_value<P: SsParams>(p: &G<P>, q: &G<P>) -> Fp2<P::Fp> {
        let (xq, yq) = q.to_affine().expect("not the identity");
        PreparedPoint::prepare(p).miller_eval(&xq, &yq)
    }

    /// The reference walker's ops for `p`.
    fn reference_chain<P: SsParams>(p: &G<P>) -> Vec<MillerOp<P::Fp>> {
        let (x, y) = p.to_affine().expect("not the identity");
        let mut ops = Vec::new();
        miller_chain_reference::<P>(Affine { x, y }, |op| ops.push(op));
        ops
    }

    #[test]
    fn non_degenerate_on_generator() {
        let g = G::<Toy>::generator();
        let e = Toy::pair(&g, &g);
        assert!(!e.is_identity());
        assert!(e.is_in_subgroup());
    }

    #[test]
    fn bilinearity() {
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let q = G::<Toy>::random(&mut r);
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let lhs = Toy::pair(&p.pow(&a), &q.pow(&b));
        let rhs = Toy::pair(&p, &q).pow(&(a * b));
        assert_eq!(lhs, rhs);
        // additivity in the first slot
        let p2 = G::<Toy>::random(&mut r);
        assert_eq!(
            Toy::pair(&p.op(&p2), &q),
            Toy::pair(&p, &q).op(&Toy::pair(&p2, &q))
        );
    }

    #[test]
    fn symmetry() {
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let q = G::<Toy>::random(&mut r);
        assert_eq!(Toy::pair(&p, &q), Toy::pair(&q, &p));
    }

    #[test]
    fn identity_slots() {
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let id = G::<Toy>::identity();
        assert!(Toy::pair(&p, &id).is_identity());
        assert!(Toy::pair(&id, &p).is_identity());
    }

    #[test]
    fn inverse_slot() {
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let q = G::<Toy>::random(&mut r);
        assert_eq!(Toy::pair(&p.inverse(), &q), Toy::pair(&p, &q).inverse());
    }

    #[test]
    fn pair_generators_cached_consistent() {
        let direct = Toy::pair(&G::<Toy>::generator(), &G::<Toy>::generator());
        assert_eq!(Toy::pair_generators(), direct);
        assert_eq!(Gt::<Toy>::generator(), direct);
    }

    #[test]
    fn pairing_counter_bumps() {
        let g = G::<Toy>::generator();
        let (_, report) = crate::counters::measure(|| {
            let _ = Toy::pair(&g, &g);
        });
        assert_eq!(report.pairings, 1);
    }

    #[test]
    fn ss512_bilinearity_smoke() {
        let mut r = rng();
        let g = G::<Ss512>::generator();
        let a = <Ss512 as SsParams>::Fr::random(&mut r);
        let lhs = Ss512::pair(&g.pow(&a), &g);
        let rhs = Ss512::pair(&g, &g).pow(&a);
        assert_eq!(lhs, rhs);
        assert!(!lhs.is_identity());
    }

    /// Reference for the product tests: fold per-element pairings with the
    /// uninstrumented op, as the default trait implementation does.
    fn product_reference(pairs: &[(G<Toy>, G<Toy>)]) -> Gt<Toy> {
        pairs
            .iter()
            .fold(Gt::identity(), |acc, (p, q)| acc.raw_op(&tate_pairing_reference::<Toy>(p, q)))
    }

    #[test]
    fn pairing_product_matches_per_element() {
        let mut r = rng();
        for n in [0usize, 1, 2, 3, 7] {
            let pairs: Vec<(G<Toy>, G<Toy>)> = (0..n)
                .map(|_| (G::<Toy>::random(&mut r), G::<Toy>::random(&mut r)))
                .collect();
            assert_eq!(pairing_product::<Toy>(&pairs), product_reference(&pairs), "n={n}");
        }
    }

    #[test]
    fn pairing_product_identity_slots() {
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let q = G::<Toy>::random(&mut r);
        let id = G::<Toy>::identity();
        let pairs = [(p, id), (id, q), (p, q), (id, id)];
        assert_eq!(pairing_product::<Toy>(&pairs), product_reference(&pairs));
        assert!(pairing_product::<Toy>(&[(p, id), (id, q)]).is_identity());
    }

    #[test]
    fn pairing_product_out_of_subgroup_fallback() {
        let mut r = rng();
        let oos = crate::util::out_of_subgroup_point::<Toy>();
        assert!(!oos.is_in_subgroup());
        let p = G::<Toy>::random(&mut r);
        let q = G::<Toy>::random(&mut r);
        // Products mixing subgroup and non-subgroup slots in both
        // positions must still equal the per-element fold exactly.
        for pairs in [
            vec![(oos, q)],
            vec![(p, oos)],
            vec![(oos, oos), (p, q)],
            vec![(p, q), (oos, q), (q, p)],
        ] {
            assert_eq!(pairing_product::<Toy>(&pairs), product_reference(&pairs));
        }
    }

    #[test]
    fn pairing_product_counter_semantics() {
        let mut r = rng();
        let pairs: Vec<(G<Toy>, G<Toy>)> = (0..4)
            .map(|_| (G::<Toy>::random(&mut r), G::<Toy>::random(&mut r)))
            .collect();
        let (_, ops) = crate::counters::measure(|| pairing_product::<Toy>(&pairs));
        assert_eq!(ops.pairings, 4);
        assert_eq!(ops.gt_op, 0);
        assert_eq!(ops.gt_pow, 0);
    }

    #[test]
    fn batch_final_exponentiation_matches_single() {
        let mut r = rng();
        // Miller values of real pairings plus a zero sentinel.
        let mut zs = Vec::new();
        for _ in 0..5 {
            let p = G::<Toy>::random(&mut r);
            let q = G::<Toy>::random(&mut r);
            zs.push(miller_value(&p, &q));
        }
        zs.push(Fp2::zero());
        let batched = batch_final_exponentiation::<Toy>(&zs);
        for (z, e) in zs.iter().zip(&batched) {
            if z.is_zero() {
                assert!(e.is_identity());
            } else {
                assert_eq!(*e, final_exponentiation::<Toy>(*z));
            }
        }
    }

    #[test]
    fn lucas_final_exponentiation_edge_inputs() {
        // z̄/z = +1 (y = 0) and −1 (x = 0): the ladder has no imaginary
        // part to divide by, so these take the reference path.
        let mut r = rng();
        let x = <Toy as SsParams>::Fp::random(&mut r);
        let edge = [Fp2::from_base(x), Fp2::new(<Toy as SsParams>::Fp::zero(), x)];
        for z in edge {
            assert!(cofactor_denominator(&z).is_zero());
            assert_eq!(final_exponentiation::<Toy>(z), final_exponentiation_reference::<Toy>(z));
        }
        let mut zs = edge.to_vec();
        zs.push(Fp2::zero());
        // Out-of-subgroup Miller values in both slots ride in the same batch.
        let oos = crate::util::out_of_subgroup_point::<Toy>();
        let p = G::<Toy>::random(&mut r);
        for (a, b) in [(oos, p), (p, oos), (oos, oos)] {
            let z = miller_value(&a, &b);
            if !z.is_zero() {
                zs.push(z);
            }
        }
        for (z, e) in zs.iter().zip(batch_final_exponentiation::<Toy>(&zs)) {
            if z.is_zero() {
                assert!(e.is_identity());
            } else {
                assert_eq!(e, final_exponentiation_reference::<Toy>(*z));
                assert_eq!(e, final_exponentiation::<Toy>(*z));
            }
        }
    }

    #[test]
    fn ss512_lucas_final_exponentiation_smoke() {
        let mut r = rng();
        let zs: Vec<Fp2<<Ss512 as SsParams>::Fp>> = (0..3).map(|_| Fp2::random(&mut r)).collect();
        for (z, e) in zs.iter().zip(batch_final_exponentiation::<Ss512>(&zs)) {
            assert_eq!(e, final_exponentiation_reference::<Ss512>(*z));
            assert_eq!(e, final_exponentiation::<Ss512>(*z));
        }
    }

    #[test]
    fn batched_chain_walker_is_bit_identical() {
        // Random subgroup points, the generator, −P, and first arguments
        // outside the subgroup that take the degenerate branches: the
        // 2-torsion point (0, 0) (vertical tangent at the first step), an
        // uncleared point, and [r]H (order dividing the cofactor).
        let mut r = rng();
        let zero = <Toy as SsParams>::Fp::zero();
        let oos = crate::util::out_of_subgroup_point::<Toy>();
        let r_limbs = crate::util::field_modulus_limbs::<<Toy as SsParams>::Fr>();
        let p = G::<Toy>::random(&mut r);
        let mut points = vec![
            G::<Toy>::generator(),
            p,
            p.inverse(),
            G::<Toy>::from_affine(zero, zero).expect("(0, 0) is on the curve"),
            oos,
            oos.pow_vartime_limbs(&r_limbs),
        ];
        points.extend((0..4).map(|_| G::<Toy>::random(&mut r)));
        for p in points.iter().filter(|p| !p.is_identity()) {
            let (x, y) = p.to_affine().unwrap();
            assert_eq!(miller_chain::<Toy>(Affine { x, y }), reference_chain(p), "{p:?}");
        }
        // SS512 once (slow chain, still exact).
        let g = G::<Ss512>::generator();
        let (x, y) = g.to_affine().unwrap();
        assert_eq!(miller_chain::<Ss512>(Affine { x, y }), reference_chain(&g));
    }

    // Manual micro-benchmark over the arithmetic stack (field, tower,
    // sampling, pairing atoms). Min-of-N loops instead of criterion —
    // the single-core CI box's ±25% run-to-run variance drowns its
    // statistics; DESIGN.md §4 "Arithmetic floor" cites these numbers:
    //   cargo test --release -p dlr-curve --lib -- --ignored micro_timings --nocapture
    #[test]
    #[ignore]
    fn micro_timings() {
        use dlr_math::Fp2;
        use std::time::Instant;

        fn best_of<F: FnMut() -> u64>(mut f: F) -> u64 {
            (0..5).map(|_| f()).min().unwrap()
        }

        fn fp2_suite<F: dlr_math::PrimeField>(label: &str, iters: u32) {
            let mut r = rand::rngs::StdRng::seed_from_u64(3);
            let a: Fp2<F> = Fp2::random(&mut r);
            let b: Fp2<F> = Fp2::random(&mut r);
            let lazy = best_of(|| {
                let mut acc = a;
                let t = Instant::now();
                for _ in 0..iters {
                    acc *= b;
                }
                let ns = t.elapsed().as_nanos() as u64 / iters as u64;
                std::hint::black_box(acc);
                ns
            });
            let eager = best_of(|| {
                let mut acc = a;
                let t = Instant::now();
                for _ in 0..iters {
                    acc = acc.mul_reduced_reference(&b);
                }
                let ns = t.elapsed().as_nanos() as u64 / iters as u64;
                std::hint::black_box(acc);
                ns
            });
            let sq_lazy = best_of(|| {
                let mut acc = a;
                let t = Instant::now();
                for _ in 0..iters {
                    acc = acc.square();
                }
                let ns = t.elapsed().as_nanos() as u64 / iters as u64;
                std::hint::black_box(acc);
                ns
            });
            let sq_eager = best_of(|| {
                let mut acc = a;
                let t = Instant::now();
                for _ in 0..iters {
                    acc = acc.mul_reduced_reference(&acc.clone());
                }
                let ns = t.elapsed().as_nanos() as u64 / iters as u64;
                std::hint::black_box(acc);
                ns
            });
            eprintln!(
                "{label}: fp2 mul lazy={lazy}ns eager={eager}ns | sq lazy={sq_lazy}ns sq-as-mul={sq_eager}ns"
            );
        }

        fn pairing_suite<P: SsParams>(label: &str, iters: u32) {
            let mut r = rand::rngs::StdRng::seed_from_u64(4);
            let p = G::<P>::random(&mut r);
            let q = G::<P>::random(&mut r);
            let pair_ns = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(P::pair(&p, &q));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            let (x, y) = p.to_affine().unwrap();
            let a = Affine { x, y };
            let prep = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(PreparedPoint::prepare(&p));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            let prep_ref = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    let mut ops = Vec::new();
                    miller_chain_reference::<P>(a, |op| ops.push(op));
                    std::hint::black_box(ops);
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            let pair_ref = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(tate_pairing_reference::<P>(&p, &q));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            let prepared = P::prepare_q(&q);
            let eval = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(P::pair_prepared_q(&p, &prepared));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            eprintln!(
                "{label}: pair={pair_ns}ns reference={pair_ref}ns eval-prepared={eval}ns | prepare={prep}ns reference chain={prep_ref}ns"
            );
        }

        fn fp_suite<F: dlr_math::PrimeField>(label: &str, iters: u32) {
            let mut r = rand::rngs::StdRng::seed_from_u64(5);
            let a = F::random(&mut r);
            let b = F::random(&mut r);
            let c = F::random(&mut r);
            let fused = best_of(|| {
                let mut acc = a;
                let t = Instant::now();
                for _ in 0..iters {
                    acc = acc.mul_add(&b, &c);
                }
                let ns = t.elapsed().as_nanos() as u64 / iters as u64;
                std::hint::black_box(acc);
                ns
            });
            let split = best_of(|| {
                let mut acc = a;
                let t = Instant::now();
                for _ in 0..iters {
                    acc = acc * b + c;
                }
                let ns = t.elapsed().as_nanos() as u64 / iters as u64;
                std::hint::black_box(acc);
                ns
            });
            let bytes: Vec<u8> = (0..F::byte_len() + 16).map(|i| i as u8 ^ 0x5a).collect();
            let reduced = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters / 8 {
                    std::hint::black_box(F::from_bytes_be_reduced(&bytes));
                }
                t.elapsed().as_nanos() as u64 / (iters / 8) as u64
            });
            let sq = a.square();
            let sqrt_ns = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters / 8 {
                    std::hint::black_box(sq.sqrt());
                }
                t.elapsed().as_nanos() as u64 / (iters / 8) as u64
            });
            eprintln!(
                "{label}: fp mul_add fused={fused}ns split={split}ns | from_bytes_be_reduced={reduced}ns sqrt={sqrt_ns}ns"
            );
        }

        fn sampling_suite<P: SsParams>(label: &str, iters: u32) {
            let hk = best_of(|| {
                let t = Instant::now();
                for i in 0..iters {
                    std::hint::black_box(dlr_hash::hkdf::hkdf(
                        b"domain",
                        &i.to_be_bytes(),
                        b"dlr-h2c\0\0\0\0",
                        P::Fp::byte_len() + 17,
                    ));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            let h2c = best_of(|| {
                let t = Instant::now();
                for i in 0..iters {
                    std::hint::black_box(G::<P>::hash_to_group(b"bench", &i.to_be_bytes()));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            let mut r = rand::rngs::StdRng::seed_from_u64(6);
            let rnd = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(G::<P>::random(&mut r));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            eprintln!("{label}: hkdf={hk}ns hash_to_group={h2c}ns g-random={rnd}ns");
        }

        fp2_suite::<crate::params::FpToy>("TOY", 2_000_000);
        fp2_suite::<crate::params::Fp512>("SS512", 200_000);
        fp_suite::<crate::params::FpToy>("TOY", 2_000_000);
        fp_suite::<crate::params::Fp512>("SS512", 200_000);
        sampling_suite::<Toy>("TOY", 20_000);
        pairing_suite::<Toy>("TOY", 2_000);
        pairing_suite::<Ss512>("SS512", 30);
    }

    #[test]
    fn prepared_second_slot_is_bit_identical_to_pair() {
        // Type-1 symmetry: ê(P, Q) = ê(Q, P) for subgroup points, and equal
        // residues have one canonical representation — so the swapped-slot
        // prepared evaluation must match `pair` exactly, not just up to
        // equality of abstract values.
        let mut r = rng();
        let p = G::<Toy>::random(&mut r);
        let qs: Vec<G<Toy>> = (0..5).map(|_| G::<Toy>::random(&mut r)).collect();
        let preps: Vec<_> = qs.iter().map(Toy::prepare_q).collect();
        for (q, prep) in qs.iter().zip(&preps) {
            assert_eq!(Toy::pair_prepared_q(&p, prep), Toy::pair(&p, q));
        }
        let expected: Vec<_> = qs.iter().map(|q| Toy::pair(&p, q)).collect();
        assert_eq!(Toy::multi_pair_prepared_q(&p, &preps), expected);
        // Identity in either slot.
        let id = G::<Toy>::identity();
        assert_eq!(
            Toy::pair_prepared_q(&p, &Toy::prepare_q(&id)),
            Toy::pair(&p, &id)
        );
        assert_eq!(
            Toy::pair_prepared_q(&id, &preps[0]),
            Toy::pair(&id, &qs[0])
        );
    }

    #[test]
    fn ss512_pairing_product_smoke() {
        let mut r = rng();
        let g = G::<Ss512>::generator();
        let q = G::<Ss512>::random(&mut r);
        let pairs = [(g, q), (q, g)];
        let prod = crate::pairing::pairing_product::<Ss512>(&pairs);
        let expect = tate_pairing_reference::<Ss512>(&g, &q)
            .raw_op(&tate_pairing_reference::<Ss512>(&q, &g));
        assert_eq!(prod, expect);
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        fn point(seed: u64) -> G<Toy> {
            G::<Toy>::hash_to_group(b"pairing-diff", &seed.to_be_bytes())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Prepared evaluation is bit-identical to the reference.
            #[test]
            fn prepared_equals_reference(sp in any::<u64>(), sq in any::<u64>()) {
                let (p, q) = (point(sp), point(sq));
                let prep = PreparedPoint::<Toy>::prepare(&p);
                prop_assert_eq!(prep.pair(&q), tate_pairing_reference::<Toy>(&p, &q));
            }

            /// The Lucas-ladder cofactor power is bit-identical to the
            /// generic `pow_vartime(COFACTOR)` on arbitrary nonzero inputs
            /// (every `z̄/z` is unitary), single and batched.
            #[test]
            fn lucas_final_exp_equals_reference(seeds in proptest::collection::vec(any::<u64>(), 1..6)) {
                let zs: Vec<Fp2<<Toy as SsParams>::Fp>> = seeds
                    .iter()
                    .map(|s| Fp2::random(&mut rand::rngs::StdRng::seed_from_u64(*s)))
                    .filter(|z| !z.is_zero())
                    .collect();
                let batched = batch_final_exponentiation::<Toy>(&zs);
                for (z, e) in zs.iter().zip(&batched) {
                    let reference = final_exponentiation_reference::<Toy>(*z);
                    prop_assert_eq!(*e, reference);
                    prop_assert_eq!(final_exponentiation::<Toy>(*z), reference);
                }
            }

            /// Batched product equals the per-element fold.
            #[test]
            fn product_equals_fold(
                ps in proptest::collection::vec(any::<u64>(), 0..5),
                qs in proptest::collection::vec(any::<u64>(), 0..5),
            ) {
                let pairs: Vec<(G<Toy>, G<Toy>)> = ps
                    .iter()
                    .zip(qs.iter())
                    .map(|(a, b)| (point(*a), point(*b)))
                    .collect();
                prop_assert_eq!(pairing_product::<Toy>(&pairs), product_reference(&pairs));
            }

            /// `multi_pair` equals mapping the reference.
            #[test]
            fn multi_equals_map(sp in any::<u64>(), qs in proptest::collection::vec(any::<u64>(), 0..6)) {
                let p = point(sp);
                let qs: Vec<G<Toy>> = qs.iter().map(|s| point(*s)).collect();
                let batched = Toy::multi_pair(&p, &qs);
                for (q, e) in qs.iter().zip(&batched) {
                    prop_assert_eq!(*e, tate_pairing_reference::<Toy>(&p, q));
                }
            }
        }
    }
}
