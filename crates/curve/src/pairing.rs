//! The modified Tate pairing `ê(P, Q) = e_r(P, φ(Q))^{(p²−1)/r}`.
//!
//! `E : y² = x³ + x` over `F_p` with `p ≡ 3 (mod 4)` is supersingular with
//! distortion map `φ(x, y) = (−x, i·y)` into `E(F_{p²})`. Pairing `P`
//! against the distorted image of `Q` yields a **symmetric, non-degenerate**
//! bilinear map `G × G → GT` — the Type-1 map the paper's constructions are
//! written for.
//!
//! Implementation notes:
//! * the Miller loop runs in affine coordinates over `F_p` only — the
//!   distorted point's x-coordinate `−x_Q` lies in the base field, so each
//!   line evaluation is `(λ(x_Q + x_T) − y_T) + y_Q·i` with all arithmetic
//!   in `F_p` (two `F_p` muls) and only the accumulator living in `F_{p²}`;
//! * vertical lines evaluate into `F_p*`, which the final exponentiation
//!   `z ↦ z^{(p−1)·c}` kills (`z^{p−1} = 1` for `z ∈ F_p*`) — standard
//!   denominator elimination;
//! * the final exponentiation uses Frobenius: `z^{p−1} = z̄ · z^{−1}`,
//!   then one `pow` by the cofactor `c = (p+1)/r`.

use crate::counters;
use crate::curve::G;
use crate::gt::Gt;
use crate::params::SsParams;
use crate::traits::{Group, Pairing};
use dlr_math::{FieldElement, Fp2, PrimeField};

/// Affine point (never infinity) used inside the Miller loop.
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

/// Line coefficients for one doubling step, and `2T`.
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

/// Line coefficients for one addition step, and `T + P`.
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

/// Walk the Miller doubling/addition chain of `p` over the bits of the
/// subgroup order `r`, emitting every accumulator operation in order.
///
/// Both the direct [`miller_loop`] and
/// [`PreparedPoint::prepare`](crate::prepared::PreparedPoint::prepare) are
/// thin wrappers over this walker, so a prepared evaluation replays the
/// *exact* operation sequence of a direct pairing by construction.
pub(crate) fn miller_chain<P: SsParams>(
    p: Affine<P::Fp>,
    mut visit: impl FnMut(MillerOp<P::Fp>),
) {
    let r_limbs = crate::util::field_modulus_limbs::<P::Fr>();
    let mut nbits = 0u32;
    for (i, w) in r_limbs.iter().enumerate() {
        if *w != 0 {
            nbits = i as u32 * 64 + (64 - w.leading_zeros());
        }
    }

    let mut t: Option<Affine<P::Fp>> = Some(p);
    let mut i = nbits - 1;
    while i > 0 {
        i -= 1;
        visit(MillerOp::Square);
        if let Some(cur) = t {
            let (coeffs, next) = double_coeffs(cur);
            if let Some((lambda, theta)) = coeffs {
                visit(MillerOp::Line { lambda, theta });
            }
            t = next;
        }
        if (r_limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
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

/// Walk the Miller chain of `p` with **batched inversions**: the running
/// point advances in Jacobian coordinates (no per-step inversion), then
/// every intermediate is normalized and every slope denominator inverted
/// with two [`dlr_math::batch_inverse`] calls — two field inversions total
/// instead of one per doubling/addition step.
///
/// The normalized intermediates are canonical affine coordinates and every
/// degeneracy of the reference walker (vertical tangent/chord → no line,
/// running point to infinity — the final addition of any in-subgroup chain
/// lands on `T = −P`) is mirrored case for case, so the emitted `(λ, θ)`
/// sequence is **bit-identical** to [`miller_chain`]'s for every input.
/// `None` is unreachable in practice (a logged step can never have a zero
/// denominator) and only kept so callers retain the reference fallback.
pub(crate) fn miller_chain_batched<P: SsParams>(
    p: Affine<P::Fp>,
) -> Option<Vec<MillerOp<P::Fp>>> {
    let r_limbs = crate::util::field_modulus_limbs::<P::Fr>();
    let mut nbits = 0u32;
    for (i, w) in r_limbs.iter().enumerate() {
        if *w != 0 {
            nbits = i as u32 * 64 + (64 - w.leading_zeros());
        }
    }

    /// What a chain slot multiplies into the accumulator: nothing (the
    /// squaring is implicit per bit), a tangent line at the logged step, or
    /// a chord line through the logged step and the base point.
    enum Slot {
        Square,
        Tangent(usize),
        Chord(usize),
    }

    // Jacobian running point (x, y) = (X/Z², Y/Z³); `pre` logs the
    // coordinates *before* each line-emitting op.
    let (mut tx, mut ty, mut tz) = (p.x, p.y, P::Fp::one());
    let mut infinity = false;
    let mut pre: Vec<(P::Fp, P::Fp, P::Fp)> = Vec::new();
    let mut slots: Vec<Slot> = Vec::new();
    let mut i = nbits - 1;
    while i > 0 {
        i -= 1;
        slots.push(Slot::Square);
        if !infinity {
            if ty.is_zero() {
                // Vertical tangent (2-torsion): subfield factor only, and
                // the running point doubles to infinity.
                infinity = true;
            } else {
                slots.push(Slot::Tangent(pre.len()));
                pre.push((tx, ty, tz));
                // Doubling on y² = x³ + x (a = 1): M = 3X² + Z⁴, S = 4XY².
                let xx = tx.square();
                let zz = tz.square();
                let m = xx.double() + xx + zz.square();
                let yy = ty.square();
                let s = (tx * yy).double().double();
                let x3 = m.square() - s.double();
                let eight_y4 = yy.square().double().double().double();
                let y3 = m * (s - x3) - eight_y4;
                let z3 = (ty * tz).double();
                tx = x3;
                ty = y3;
                tz = z3;
            }
        }
        if (r_limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
            if infinity {
                // O + P = P, trivial function.
                tx = p.x;
                ty = p.y;
                tz = P::Fp::one();
                infinity = false;
            } else {
                let zz = tz.square();
                let u2 = p.x * zz;
                if u2 == tx {
                    // Same x-coordinate: either T = P (tangent case) or
                    // T = −P (vertical chord — the final addition of every
                    // in-subgroup chain).
                    let s2 = p.y * zz * tz;
                    if s2 == ty && !ty.is_zero() {
                        slots.push(Slot::Tangent(pre.len()));
                        pre.push((tx, ty, tz));
                        let xx = tx.square();
                        let m = xx.double() + xx + zz.square();
                        let yy = ty.square();
                        let s = (tx * yy).double().double();
                        let x3 = m.square() - s.double();
                        let eight_y4 = yy.square().double().double().double();
                        let y3 = m * (s - x3) - eight_y4;
                        let z3 = (ty * tz).double();
                        tx = x3;
                        ty = y3;
                        tz = z3;
                    } else {
                        // Vertical chord (or 2-torsion tangent): no line,
                        // running point to infinity.
                        infinity = true;
                    }
                } else {
                    slots.push(Slot::Chord(pre.len()));
                    pre.push((tx, ty, tz));
                    let s2 = p.y * zz * tz;
                    let h = u2 - tx;
                    let r = s2 - ty;
                    let hh = h.square();
                    let hhh = h * hh;
                    let v = tx * hh;
                    let x3 = r.square() - hhh - v.double();
                    let y3 = r * (v - x3) - ty * hhh;
                    let z3 = tz * h;
                    tx = x3;
                    ty = y3;
                    tz = z3;
                }
            }
        }
    }

    // One batched inversion normalizes every logged point ...
    let zs: Vec<P::Fp> = pre.iter().map(|t| t.2).collect();
    let zinv = dlr_math::batch_inverse(&zs)?;
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
    // ... and a second one inverts every slope denominator.
    let denoms: Vec<P::Fp> = slots
        .iter()
        .filter_map(|slot| match slot {
            Slot::Square => None,
            Slot::Tangent(k) => Some(aff[*k].y.double()),
            Slot::Chord(k) => Some(p.x - aff[*k].x),
        })
        .collect();
    let dinv = dlr_math::batch_inverse(&denoms)?;

    let mut dinv_iter = dinv.into_iter();
    let mut ops = Vec::with_capacity(slots.len());
    for slot in &slots {
        ops.push(match slot {
            Slot::Square => MillerOp::Square,
            Slot::Tangent(k) => {
                let t = aff[*k];
                let xx = t.x.square();
                let lambda = (xx.double() + xx + P::Fp::one()) * dinv_iter.next()?;
                MillerOp::Line {
                    lambda,
                    theta: lambda.mul_add(&t.x, &(-t.y)),
                }
            }
            Slot::Chord(k) => {
                let t = aff[*k];
                let lambda = (p.y - t.y) * dinv_iter.next()?;
                MillerOp::Line {
                    lambda,
                    theta: lambda.mul_add(&t.x, &(-t.y)),
                }
            }
        });
    }
    Some(ops)
}

/// Miller loop `f_{r,P}(φ(Q))` over the bits of the subgroup order `r`.
fn miller_loop<P: SsParams>(p: Affine<P::Fp>, q: Affine<P::Fp>) -> Fp2<P::Fp> {
    let mut f = Fp2::<P::Fp>::one();
    miller_chain::<P>(p, |op| op.apply(&mut f, &q.x, &q.y));
    f
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
/// All constituent Miller loops follow the same `r`-bit schedule, so their
/// accumulators can be fused: one `F_{p²}` squaring per bit serves every
/// pair, and the final exponentiation (a homomorphism) is applied once to
/// the fused product. Bumps the `pairings` counter once per constituent —
/// the work performed is equivalent, just de-duplicated.
///
/// Pairs with an identity slot contribute the identity factor. If a fused
/// Miller value vanishes (only possible for inputs outside the order-`r`
/// subgroup), the product falls back to per-element evaluation so the
/// result always equals `∏ tate_pairing(P_i, Q_i)` exactly.
pub fn pairing_product<P: SsParams>(pairs: &[(G<P>, G<P>)]) -> Gt<P> {
    for _ in pairs {
        counters::count_pairing();
    }
    // Pairs with an identity slot contribute e(·, O) = e(O, ·) = 1.
    #[allow(clippy::type_complexity)]
    let affine: Vec<(Affine<P::Fp>, Affine<P::Fp>)> = pairs
        .iter()
        .filter_map(|(p, q)| match (p.to_affine(), q.to_affine()) {
            (Some((px, py)), Some((qx, qy))) => {
                Some((Affine { x: px, y: py }, Affine { x: qx, y: qy }))
            }
            _ => None,
        })
        .collect();
    if affine.is_empty() {
        return Gt::identity();
    }

    let r_limbs = crate::util::field_modulus_limbs::<P::Fr>();
    let mut nbits = 0u32;
    for (i, w) in r_limbs.iter().enumerate() {
        if *w != 0 {
            nbits = i as u32 * 64 + (64 - w.leading_zeros());
        }
    }

    let mut f = Fp2::<P::Fp>::one();
    let mut ts: Vec<Option<Affine<P::Fp>>> = affine.iter().map(|(p, _)| Some(*p)).collect();
    let mut i = nbits - 1;
    while i > 0 {
        i -= 1;
        f = f.square(); // one squaring serves every constituent
        for (k, (p, q)) in affine.iter().enumerate() {
            if let Some(cur) = ts[k] {
                let (coeffs, next) = double_coeffs(cur);
                if let Some((lambda, theta)) = coeffs {
                    (MillerOp::Line { lambda, theta }).apply(&mut f, &q.x, &q.y);
                }
                ts[k] = next;
            }
            if (r_limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
                if let Some(cur) = ts[k] {
                    let (coeffs, next) = add_coeffs(cur, *p);
                    if let Some((lambda, theta)) = coeffs {
                        (MillerOp::Line { lambda, theta }).apply(&mut f, &q.x, &q.y);
                    }
                    ts[k] = next;
                } else {
                    ts[k] = Some(*p);
                }
            }
        }
    }

    if f.is_zero() {
        // Some constituent Miller value vanished (out-of-subgroup input):
        // recover exact per-element semantics. Pairings were counted above.
        return affine.iter().fold(Gt::identity(), |acc, (p, q)| {
            let fi = miller_loop::<P>(*p, *q);
            if fi.is_zero() {
                acc
            } else {
                acc.raw_op(&final_exponentiation::<P>(fi))
            }
        });
    }
    final_exponentiation::<P>(f)
}

/// The modified Tate pairing `ê : G × G → GT`.
pub fn tate_pairing<P: SsParams>(p: &G<P>, q: &G<P>) -> Gt<P> {
    counters::count_pairing();
    let (pa, qa) = match (p.to_affine(), q.to_affine()) {
        (Some(pa), Some(qa)) => (pa, qa),
        // e(O, ·) = e(·, O) = 1
        _ => return Gt::identity(),
    };
    let f = miller_loop::<P>(
        Affine { x: pa.0, y: pa.1 },
        Affine { x: qa.0, y: qa.1 },
    );
    if f.is_zero() {
        // Can only happen for inputs outside the order-r subgroup.
        return Gt::identity();
    }
    final_exponentiation::<P>(f)
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
            .fold(Gt::identity(), |acc, (p, q)| acc.raw_op(&tate_pairing::<Toy>(p, q)))
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
        let g = G::<Toy>::generator();
        // Miller values of real pairings plus a zero sentinel.
        let mut zs = Vec::new();
        for _ in 0..5 {
            let p = G::<Toy>::random(&mut r);
            let q = G::<Toy>::random(&mut r);
            let (pa, qa) = (p.to_affine().unwrap(), q.to_affine().unwrap());
            zs.push(miller_loop::<Toy>(
                Affine { x: pa.0, y: pa.1 },
                Affine { x: qa.0, y: qa.1 },
            ));
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
        let _ = g;
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
            let (a, b) = (a.to_affine().unwrap(), b.to_affine().unwrap());
            let z = miller_loop::<Toy>(Affine { x: a.0, y: a.1 }, Affine { x: b.0, y: b.1 });
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
        let mut r = rng();
        for _ in 0..6 {
            let p = G::<Toy>::random(&mut r);
            let (x, y) = p.to_affine().unwrap();
            let a = Affine { x, y };
            let mut reference = Vec::new();
            miller_chain::<Toy>(a, |op| reference.push(op));
            let batched = miller_chain_batched::<Toy>(a).expect("subgroup point");
            assert_eq!(batched, reference);
        }
        // Out-of-subgroup point: exercises the vertical/degenerate paths.
        let oos = crate::util::out_of_subgroup_point::<Toy>();
        let (x, y) = oos.to_affine().unwrap();
        let a = Affine { x, y };
        let mut reference = Vec::new();
        miller_chain::<Toy>(a, |op| reference.push(op));
        assert_eq!(miller_chain_batched::<Toy>(a).unwrap(), reference);
        // SS512 once (slow chain, still exact).
        let g = G::<Ss512>::generator();
        let (x, y) = g.to_affine().unwrap();
        let a = Affine { x, y };
        let mut reference = Vec::new();
        miller_chain::<Ss512>(a, |op| reference.push(op));
        assert_eq!(miller_chain_batched::<Ss512>(a).unwrap(), reference);
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
            let prep_batched = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(miller_chain_batched::<P>(a));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            let prep_ref = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    let mut ops = Vec::new();
                    miller_chain::<P>(a, |op| ops.push(op));
                    std::hint::black_box(ops);
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            let prep = P::prepare_q(&q);
            let eval = best_of(|| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(P::pair_prepared_q(&p, &prep));
                }
                t.elapsed().as_nanos() as u64 / iters as u64
            });
            eprintln!(
                "{label}: pair={pair_ns}ns eval-prepared={eval}ns | prepare batched={prep_batched}ns reference={prep_ref}ns"
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
        let expect = tate_pairing::<Ss512>(&g, &q).raw_op(&tate_pairing::<Ss512>(&q, &g));
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

            /// Prepared evaluation is bit-identical to the direct pairing.
            #[test]
            fn prepared_equals_direct(sp in any::<u64>(), sq in any::<u64>()) {
                let (p, q) = (point(sp), point(sq));
                let prep = crate::prepared::PreparedPoint::<Toy>::prepare(&p);
                prop_assert_eq!(prep.pair(&q), tate_pairing::<Toy>(&p, &q));
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

            /// multi_pairing equals mapping tate_pairing.
            #[test]
            fn multi_equals_map(sp in any::<u64>(), qs in proptest::collection::vec(any::<u64>(), 0..6)) {
                let p = point(sp);
                let qs: Vec<G<Toy>> = qs.iter().map(|s| point(*s)).collect();
                let batched = crate::prepared::multi_pairing::<Toy>(&p, &qs);
                for (q, e) in qs.iter().zip(&batched) {
                    prop_assert_eq!(*e, tate_pairing::<Toy>(&p, q));
                }
            }
        }
    }
}
