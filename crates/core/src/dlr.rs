//! DLR — the distributed public key encryption scheme of Construction 5.3,
//! CPA-secure against continual memory leakage.
//!
//! * **Public key** `pk = (p, g, e, e(g_1, g_2))` — the group parameters
//!   plus the single `GT` element `z = e(g_1, g_2)`; `g_1 = g^α` and `g_2`
//!   themselves are *not* published.
//! * **Key shares**: `sk_1 = (a_1, …, a_ℓ, Φ = g_2^α · ∏ a_i^{s_i})` on
//!   device `P1` and `sk_2 = (s_1, …, s_ℓ)` on device `P2` — a Πss
//!   encryption of the Boneh–Boyen master key `g_2^α` and the Πss key.
//! * **Encryption** `Enc_pk(m) = (g^t, m · z^t)` for `m ∈ GT` — two group
//!   elements, one `G`-exponentiation and one `GT`-exponentiation (the
//!   efficiency headline of §1.2.1).
//! * **Decryption** and **refresh** are the 2-party protocols of
//!   Construction 5.3, with all `P1 → P2` traffic encrypted under the
//!   HPSKE `Π_comm`.
//!
//! Parties are explicit state machines ([`Party1`], [`Party2`]) so the
//! security game can snapshot their device memories at the moments the
//! model defines; [`decrypt_local`] / [`refresh_local`] and the
//! transport-driving functions in [`crate::driver`] provide the convenient
//! APIs on top.

use crate::codec::{get_group, get_hpske, groups_to_cell, put_group, put_hpske, scalars_to_cell};
use crate::error::CoreError;
use crate::hpske::{self, HpskeCiphertext, HpskeKey};
use crate::params::SchemeParams;
use crate::pss;
use dlr_curve::{Group, LazyFixedBase, LazyPreparedBatch, Pairing};
use dlr_math::FieldElement;
use dlr_protocol::{Decoder, Device, Encoder};
use rand::RngCore;

/// How `P1` produces the HPSKE ciphertexts of each time period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommMode {
    /// §5.2 remark, paper-faithful: one `sk_comm` and one set of
    /// ciphertexts `f_i = Enc'(a_i)` over `G` per period. `f` is built at
    /// the first `dec_start` or `ref_start` of a period and kept until
    /// [`Party1::ref_complete`]; every decryption derives its `d_i` by
    /// pairing the same `f_i` with that ciphertext's `A`, and the refresh
    /// sends the same `f`. A decryption after the first of its period does
    /// `ℓ(κ+1)+1` pairings and no `G` operation at all.
    ///
    /// What the wire shows as a consequence: two `DecMsg1` for the *same*
    /// ciphertext in one period carry byte-identical `d` (a deterministic
    /// function of the period's `f` and `A`); `d_Φ` and `d_B` are fresh
    /// encryptions every time.
    #[default]
    Reuse,
    /// Independent fresh key and ciphertexts for every decryption and
    /// every refresh (ablation baseline; `bench a1_reuse` compares the two).
    Fresh,
}

/// Label of the operation-count profile this build's `P1` produces, stamped
/// into metrics reports as `meta.op_profile` so `tools/bench-compare.sh`
/// can tell a *declared* op-count change from drift. `period-f`: `f` is
/// built once per period ([`CommMode::Reuse`] above); reports without the
/// stamp predate it and re-encrypted `f` on every decryption.
pub const OP_PROFILE: &str = "period-f";

/// DLR public key.
#[derive(Debug, PartialEq, Eq)]
pub struct PublicKey<E: Pairing> {
    /// Derived scheme parameters (`κ`, `ℓ`, …).
    pub params: SchemeParams,
    /// `z = e(g_1, g_2)` — the only key material needed to encrypt.
    pub z: E::Gt,
    /// Lazily-built fixed-base tables for `z^t`, shared across clones.
    /// Never serialized; ignored by `PartialEq`/`Eq`.
    z_table: LazyFixedBase<E::Gt>,
}

impl<E: Pairing> PublicKey<E> {
    /// Construct from the derived parameters and `z = e(g_1, g_2)`.
    pub fn new(params: SchemeParams, z: E::Gt) -> Self {
        Self {
            params,
            z,
            z_table: LazyFixedBase::new(),
        }
    }

    /// `z^t` through the lazily-built fixed-base tables: the same group
    /// element and the same single `GT`-pow counter bump as
    /// `self.z.pow(t)`, with the doubling chain amortized across every
    /// encryption under this key.
    pub fn pow_z(&self, t: &E::Scalar) -> E::Gt {
        self.z_table.pow(&self.z, t)
    }

    /// Build all fixed-base tables this key's encrypt path uses — the
    /// `z` tables and the process-wide generator tables — now rather than
    /// on first use. Server keyrings call this outside their generation
    /// locks so sessions never pay precompute.
    pub fn warm(&self) {
        self.z_table.warm(&self.z);
        E::G1::warm_generator_tables();
        E::Gt::warm_generator_tables();
    }

    /// Whether the `z` fixed-base tables have been built (by [`warm`](Self::warm)
    /// or a first [`pow_z`](Self::pow_z)). Clones share the
    /// tables, so a warm clone means a warm original.
    pub fn tables_warm(&self) -> bool {
        self.z_table.is_warm()
    }
}

/// `P1`'s secret key share `sk_1 = (a_1, …, a_ℓ, Φ)`.
#[derive(Debug, PartialEq, Eq)]
pub struct Share1<E: Pairing> {
    /// Random group elements `a_i` (coins of the Πss encryption of
    /// `g_2^α`; discrete logs unknown to everyone).
    pub a: Vec<E::G2>,
    /// `Φ = g_2^α · ∏ a_i^{s_i}` — the masked master key.
    pub phi: E::G2,
}

/// `P2`'s secret key share `sk_2 = (s_1, …, s_ℓ)`.
#[derive(Debug, PartialEq, Eq)]
pub struct Share2<E: Pairing> {
    /// The Πss exponent vector.
    pub s: Vec<E::Scalar>,
}

/// A DLR ciphertext `(A, B) = (g^t, m · z^t)`.
#[derive(Debug, PartialEq, Eq)]
pub struct Ciphertext<E: Pairing> {
    /// `A = g^t`.
    pub big_a: E::G1,
    /// `B = m · z^t`.
    pub big_b: E::Gt,
}

impl<E: Pairing> Ciphertext<E> {
    /// Serialize (fixed length: one `G` plus one `GT` element).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        put_group(&mut enc, &self.big_a);
        put_group(&mut enc, &self.big_b);
        enc.finish()
    }

    /// Parse a serialized ciphertext.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut dec = Decoder::new(bytes);
        let big_a = get_group::<E::G1>(&mut dec)?;
        let big_b = get_group::<E::Gt>(&mut dec)?;
        dec.finish()?;
        Ok(Self { big_a, big_b })
    }

    /// Serialized length in bytes.
    pub fn byte_len() -> usize {
        E::G1::byte_len() + E::Gt::byte_len()
    }
}

/// `Gen(1^n)`: generate the public key and both secret key shares.
///
/// The secret randomness of this phase (`α`, the `s_i`) exists only inside
/// this function — the paper assumes (near-)leakage-freeness of key
/// generation, and `b_0 = Ω(log n)` leaked bits are tolerated (Thm 4.1).
pub fn keygen<E: Pairing, R: RngCore + ?Sized>(
    params: SchemeParams,
    rng: &mut R,
) -> (PublicKey<E>, Share1<E>, Share2<E>) {
    dlr_metrics::span("gen", || keygen_inner::<E, R>(params, rng))
}

fn keygen_inner<E: Pairing, R: RngCore + ?Sized>(
    params: SchemeParams,
    rng: &mut R,
) -> (PublicKey<E>, Share1<E>, Share2<E>) {
    let alpha = E::Scalar::random(rng);
    let g1 = E::G1::generator_pow(&alpha);
    let g2 = E::G2::random(rng);
    let z = E::pair(&g1, &g2);

    // master secret key of the underlying BB scheme
    let msk = g2.pow(&alpha);

    // Πss-share it: P2 gets the key, P1 gets the ciphertext.
    let pss_key = pss::generate::<E::G2, _>(params.ell, rng);
    let ct = pss::encrypt(&pss_key, &msk, rng);

    (
        PublicKey::new(params, z),
        Share1 {
            a: ct.a,
            phi: ct.c0,
        },
        Share2 { s: pss_key.s },
    )
}

/// `Enc_pk(m)`: encrypt `m ∈ GT` as `(g^t, m · z^t)`.
pub fn encrypt<E: Pairing, R: RngCore + ?Sized>(
    pk: &PublicKey<E>,
    m: &E::Gt,
    rng: &mut R,
) -> Ciphertext<E> {
    dlr_metrics::span("enc", || {
        let t = E::Scalar::random(rng);
        encrypt_with_randomness(pk, m, &t)
    })
}

/// `Enc_pk(m; t)`: encryption with explicit randomness (needed by the
/// security-game reductions and re-randomization in the storage system).
pub fn encrypt_with_randomness<E: Pairing>(
    pk: &PublicKey<E>,
    m: &E::Gt,
    t: &E::Scalar,
) -> Ciphertext<E> {
    Ciphertext {
        big_a: E::G1::generator_pow(t),
        big_b: m.op(&pk.pow_z(t)),
    }
}

/// Re-randomize a ciphertext: `(A·g^t', B·z^t')` encrypts the same message
/// under fresh randomness (used by the §4.4 storage system's refresh).
pub fn rerandomize<E: Pairing, R: RngCore + ?Sized>(
    pk: &PublicKey<E>,
    ct: &Ciphertext<E>,
    rng: &mut R,
) -> Ciphertext<E> {
    let t = E::Scalar::random(rng);
    Ciphertext {
        big_a: ct.big_a.op(&E::G1::generator_pow(&t)),
        big_b: ct.big_b.op(&pk.pow_z(&t)),
    }
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

/// `P1 → P2` decryption message: `Enc'(e(A,a_1)), …, Enc'(e(A,a_ℓ)),
/// Enc'(e(A,Φ)), Enc'(B)`.
#[derive(Debug, PartialEq, Eq)]
pub struct DecMsg1<E: Pairing> {
    /// `d_i = Enc'(e(A, a_i))`.
    pub d: Vec<HpskeCiphertext<E::Gt>>,
    /// `d_Φ = Enc'(e(A, Φ))`.
    pub d_phi: HpskeCiphertext<E::Gt>,
    /// `d_B = Enc'(B)`.
    pub d_b: HpskeCiphertext<E::Gt>,
}

/// `P2 → P1` decryption response: `c' = d_B · ∏ d_i^{s_i} / d_Φ`.
#[derive(Debug, PartialEq, Eq)]
pub struct DecMsg2<E: Pairing> {
    /// The combined ciphertext decrypting to the plaintext.
    pub c_prime: HpskeCiphertext<E::Gt>,
}

/// `P1 → P2` refresh message: `(Enc'(a_i), Enc'(a'_i))_{i∈[ℓ]}, Enc'(Φ)`.
#[derive(Debug, PartialEq, Eq)]
pub struct RefMsg1<E: Pairing> {
    /// `f_i = Enc'(a_i)`.
    pub f: Vec<HpskeCiphertext<E::G2>>,
    /// `f'_i = Enc'(a'_i)`.
    pub f_prime: Vec<HpskeCiphertext<E::G2>>,
    /// `f_Φ = Enc'(Φ)`.
    pub f_phi: HpskeCiphertext<E::G2>,
}

/// `P2 → P1` refresh response: `f = ∏ f'^{s'_i}_i / f^{s_i}_i · f_Φ`.
#[derive(Debug, PartialEq, Eq)]
pub struct RefMsg2<E: Pairing> {
    /// Combined ciphertext decrypting to the next `Φ'`.
    pub f: HpskeCiphertext<E::G2>,
}

macro_rules! impl_msg_codec {
    ($msg:ident, $grp:ident, { $($vecfield:ident),* } , { $($field:ident),* }) => {
        impl<E: Pairing> $msg<E> {
            /// Serialize for the wire.
            pub fn to_bytes(&self) -> Vec<u8> {
                let mut enc = Encoder::new();
                $(
                    enc.put_u32(self.$vecfield.len() as u32);
                    for ct in &self.$vecfield {
                        put_hpske(&mut enc, ct);
                    }
                )*
                $(
                    put_hpske(&mut enc, &self.$field);
                )*
                enc.finish()
            }

            /// Parse from the wire, enforcing the instance parameters.
            pub fn from_bytes(bytes: &[u8], params: &SchemeParams) -> Result<Self, CoreError> {
                let mut dec = Decoder::new(bytes);
                $(
                    let count = dec.get_u32()? as usize;
                    if count != params.ell {
                        return Err(CoreError::Protocol("unexpected vector length"));
                    }
                    let mut $vecfield = Vec::with_capacity(count);
                    for _ in 0..count {
                        $vecfield.push(get_hpske::<E::$grp>(&mut dec, params.kappa)?);
                    }
                )*
                $(
                    let $field = get_hpske::<E::$grp>(&mut dec, params.kappa)?;
                )*
                dec.finish()?;
                Ok(Self { $($vecfield,)* $($field,)* })
            }
        }
    };
}

impl_msg_codec!(DecMsg1, Gt, { d }, { d_phi, d_b });
impl_msg_codec!(DecMsg2, Gt, {}, { c_prime });
impl_msg_codec!(RefMsg1, G2, { f, f_prime }, { f_phi });
impl_msg_codec!(RefMsg2, G2, {}, { f });

// ---------------------------------------------------------------------------
// Party 1 (main device)
// ---------------------------------------------------------------------------

/// Device `P1`: holds `sk_1` (and, per period, the HPSKE key `sk_comm`,
/// the ciphertexts `f` under it, and its protocol randomness).
pub struct Party1<E: Pairing> {
    pk: PublicKey<E>,
    share: Share1<E>,
    device: Device,
    mode: CommMode,
    skcomm: Option<HpskeKey<E::Scalar>>,
    /// [`CommMode::Reuse`] only: this period's `f = (Enc'(a_1), …,
    /// Enc'(a_ℓ))` under `skcomm`, normalized for the pairing evaluation
    /// slot. Built by the first `dec_start`/`ref_start` of the period,
    /// dropped by [`Self::ref_complete`] and by nothing else — a refresh
    /// that is started and never finished must resend the same `f`.
    period_f: Option<Vec<HpskeCiphertext<E::G2>>>,
    pending_a_prime: Option<Vec<E::G2>>,
    next_share: Option<Share1<E>>,
    /// [`CommMode::Fresh`] only: prepared Miller chains for
    /// `[a_1, …, a_ℓ, Φ]`, the fixed second-slot pairing arguments of this
    /// period. Built at most once ([`Self::warm`], or lazily on the first
    /// decrypt) and replaced wholesale when the share rolls over in
    /// [`Self::ref_complete`].
    prep_share: LazyPreparedBatch<E>,
}

impl<E: Pairing> core::fmt::Debug for Party1<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Party1(<{} share elements>)", self.share.a.len())
    }
}

impl<E: Pairing> Party1<E> {
    /// Construct `P1` from its key share, mirroring it into device memory.
    pub fn new(pk: PublicKey<E>, share: Share1<E>) -> Self {
        Self::with_mode(pk, share, CommMode::default())
    }

    /// Construct with an explicit [`CommMode`].
    pub fn with_mode(pk: PublicKey<E>, share: Share1<E>, mode: CommMode) -> Self {
        let mut device = Device::new("P1");
        device
            .secret
            .store("share.a", groups_to_cell(&share.a));
        device
            .secret
            .store("share.phi", share.phi.to_bytes());
        Self {
            pk,
            share,
            device,
            mode,
            skcomm: None,
            period_f: None,
            pending_a_prime: None,
            next_share: None,
            prep_share: LazyPreparedBatch::new(),
        }
    }

    /// The prepared second-slot chains for this share, `[a_1, …, a_ℓ, Φ]`
    /// in order. Built at most once per key period; preparation bumps no
    /// pairing counter.
    fn share_preps(&self) -> &[E::PreparedQ] {
        if !self.prep_share.is_warm() {
            let mut pts = self.share.a.clone();
            pts.push(self.share.phi);
            self.prep_share.warm(&pts);
        }
        self.prep_share.get(&[])
    }

    /// Build eagerly whatever per-period state needs no randomness, so the
    /// request clock never pays for it. Idempotent, bumps no operation
    /// counter; call at key load and again after [`Self::ref_complete`].
    ///
    /// * [`CommMode::Fresh`]: the prepared share chains every decrypt
    ///   evaluates against.
    /// * [`CommMode::Reuse`]: nothing — the period's only precomputation
    ///   is `f`, which consumes `ℓ·κ` random group elements and is
    ///   therefore built by the first `dec_start`/`ref_start` of the
    ///   period, with that call's `rng`. That first call costs `ℓ`
    ///   `Enc'` over `G` (`ℓ·κ` samples, `ℓ` κ-term multiexps) more than
    ///   the ones after it.
    pub fn warm(&self) {
        if self.mode == CommMode::Fresh {
            let _ = self.share_preps();
        }
    }

    /// The public key.
    pub fn public_key(&self) -> &PublicKey<E> {
        &self.pk
    }

    /// The current key share (research API: exposed for experiments and
    /// tests; a production deployment would not surface this).
    pub fn share(&self) -> &Share1<E> {
        &self.share
    }

    /// Device memory (leakage functions read `device().secret`).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable device access — used by extension layers (e.g. the DIBE
    /// identity-key-generation protocol) to mirror their own secret
    /// randomness into this device's memory.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Make sure this period's `sk_comm` exists (`Fresh`: replace it).
    /// Callers borrow it from `self.skcomm` afterwards; the key is never
    /// copied.
    fn ensure_skcomm<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        if self.skcomm.is_none() || self.mode == CommMode::Fresh {
            let key = HpskeKey::generate(self.pk.params.kappa, rng);
            self.device
                .secret
                .store("rand.skcomm", scalars_to_cell(&key.sigma));
            self.skcomm = Some(key);
        }
    }

    /// `Reuse` mode: make sure this period's `sk_comm` and `f` exist. The
    /// coins of `f` are mirrored into secret memory here, once.
    fn ensure_period<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        self.ensure_skcomm(rng);
        if self.period_f.is_some() {
            return;
        }
        let key = self.skcomm.as_ref().expect("ensured above");
        let mut f: Vec<HpskeCiphertext<E::G2>> = self
            .share
            .a
            .iter()
            .map(|ai| hpske::encrypt(key, ai, rng))
            .collect();
        hpske::normalize(f.iter_mut().flat_map(HpskeCiphertext::coordinates_mut));
        self.device.secret.store("rand.dec.fcoins", coins_to_cell(&f));
        self.period_f = Some(f);
    }

    /// Decryption protocol, step 1: produce [`DecMsg1`] for ciphertext
    /// `c = (A, B)`.
    pub fn dec_start<R: RngCore + ?Sized>(
        &mut self,
        ct: &Ciphertext<E>,
        rng: &mut R,
    ) -> DecMsg1<E> {
        dlr_metrics::span("dec.p1.start", || self.dec_start_inner(ct, rng))
    }

    fn dec_start_inner<R: RngCore + ?Sized>(
        &mut self,
        ct: &Ciphertext<E>,
        rng: &mut R,
    ) -> DecMsg1<E> {
        let (d, e_phi): (Vec<HpskeCiphertext<E::Gt>>, E::Gt) = match self.mode {
            CommMode::Reuse => {
                // Every pairing in this mode has A as its first slot: walk
                // A's Miller chain once and replay it against the period's
                // f (ℓ·(κ+1) evaluations) and Φ (one more).
                self.ensure_period(rng);
                let prep_a = E::prepare(&ct.big_a);
                let f = self.period_f.as_deref().expect("ensured above");
                let d = hpske::pair_ciphertexts_prepared::<E>(&prep_a, f);
                (d, E::pair_prepared(&prep_a, &self.share.phi))
            }
            CommMode::Fresh => {
                // Here the fixed slots are the share elements, not A: every
                // pairing reuses the per-key prepared chains (warm after
                // key load / refresh), so the steady state walks no Miller
                // chain at all — A rides in the cheap evaluation slot.
                self.ensure_skcomm(rng);
                let key = self.skcomm.as_ref().expect("ensured above");
                let preps = self.share_preps();
                let ell = preps.len() - 1;
                let d = E::multi_pair_prepared_q(&ct.big_a, &preps[..ell])
                    .iter()
                    .map(|ei| hpske::encrypt(key, ei, rng))
                    .collect();
                (d, E::pair_prepared_q(&ct.big_a, &preps[ell]))
            }
        };
        let key = self.skcomm.as_ref().expect("ensured by both modes");
        let d_phi = hpske::encrypt(key, &e_phi, rng);
        let d_b = hpske::encrypt(key, &ct.big_b, rng);

        // Mirror the GT coins drawn by this decryption (in `Reuse` mode
        // the `d_i` carry none of their own: they are images of `f`).
        let mut gt_coins = match self.mode {
            CommMode::Reuse => Vec::new(),
            CommMode::Fresh => coins_to_cell(&d),
        };
        gt_coins.extend_from_slice(&groups_to_cell(&d_phi.b));
        gt_coins.extend_from_slice(&groups_to_cell(&d_b.b));
        self.device.secret.store("rand.dec.gtcoins", gt_coins);

        // Ciphertext and (later) output are public memory.
        self.device.public.store("dec.input", ct.to_bytes());

        DecMsg1 { d, d_phi, d_b }
    }

    /// Decryption protocol, step 3: decrypt `P2`'s response to the
    /// plaintext.
    pub fn dec_finish(&mut self, msg: &DecMsg2<E>) -> Result<E::Gt, CoreError> {
        dlr_metrics::span("dec.p1.finish", || {
            let key = self
                .skcomm
                .as_ref()
                .ok_or(CoreError::Protocol("dec_finish before dec_start"))?;
            let m = hpske::decrypt(key, &msg.c_prime)
                .ok_or(CoreError::Protocol("response kappa mismatch"))?;
            self.device.public.store("dec.output", m.to_bytes());
            Ok(m)
        })
    }

    /// Refresh protocol, step 1: pick next-period coins `a'_i` and produce
    /// [`RefMsg1`].
    pub fn ref_start<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RefMsg1<E> {
        dlr_metrics::span("refresh.p1.start", || self.ref_start_inner(rng))
    }

    fn ref_start_inner<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RefMsg1<E> {
        // `Reuse`: the message carries a copy of the period's `f`, which
        // stays in place — decrypts may follow a refresh that never
        // completes, and a retried refresh must send the same `f`.
        let f: Vec<HpskeCiphertext<E::G2>> = match self.mode {
            CommMode::Reuse => {
                self.ensure_period(rng);
                self.period_f.clone().expect("ensured above")
            }
            CommMode::Fresh => {
                self.ensure_skcomm(rng);
                let key = self.skcomm.as_ref().expect("ensured above");
                self.share
                    .a
                    .iter()
                    .map(|ai| hpske::encrypt(key, ai, rng))
                    .collect()
            }
        };
        let key = self.skcomm.as_ref().expect("ensured by both modes");
        let mut a_prime: Vec<E::G2> = (0..self.pk.params.ell)
            .map(|_| E::G2::random(rng))
            .collect();
        let mut f_prime: Vec<HpskeCiphertext<E::G2>> = a_prime
            .iter()
            .map(|ai| hpske::encrypt(key, ai, rng))
            .collect();
        let mut f_phi = hpske::encrypt(key, &self.share.phi, rng);
        // Every fresh point is encoded into the message and mirrored into
        // secret memory (`a'` twice more, as the next share): one shared
        // inversion instead of one per encoding.
        let cts = f_prime.iter_mut().chain([&mut f_phi]);
        hpske::normalize(
            a_prime
                .iter_mut()
                .chain(cts.flat_map(HpskeCiphertext::coordinates_mut)),
        );

        // Mirror refresh randomness: a' and the G coins drawn here (the
        // coins of a period-fixed `f` are already in `rand.dec.fcoins`).
        self.device
            .secret
            .store("rand.ref.aprime", groups_to_cell(&a_prime));
        let mut coin_cell = match self.mode {
            CommMode::Reuse => Vec::new(),
            CommMode::Fresh => coins_to_cell(&f),
        };
        coin_cell.extend_from_slice(&coins_to_cell(&f_prime));
        coin_cell.extend_from_slice(&groups_to_cell(&f_phi.b));
        self.device.secret.store("rand.ref.gcoins", coin_cell);

        self.pending_a_prime = Some(a_prime);
        RefMsg1 { f, f_prime, f_phi }
    }

    /// Refresh protocol, step 3: decrypt `Φ'` and stage the next share.
    /// Call [`Self::ref_complete`] afterwards to erase the old share (the
    /// security game snapshots the device *between* these calls — that is
    /// the moment the secret memory holds both shares).
    pub fn ref_finish(&mut self, msg: &RefMsg2<E>) -> Result<(), CoreError> {
        dlr_metrics::span("refresh.p1.finish", || {
            let key = self
                .skcomm
                .as_ref()
                .ok_or(CoreError::Protocol("ref_finish before ref_start"))?;
            let a_prime = self
                .pending_a_prime
                .take()
                .ok_or(CoreError::Protocol("ref_finish before ref_start"))?;
            let phi_prime = hpske::decrypt(key, &msg.f)
                .ok_or(CoreError::Protocol("response kappa mismatch"))?;
            let next = Share1::<E> {
                a: a_prime,
                phi: phi_prime,
            };
            self.device
                .secret
                .store("share.next.a", groups_to_cell(&next.a));
            self.device
                .secret
                .store("share.next.phi", next.phi.to_bytes());
            self.next_share = Some(next);
            Ok(())
        })
    }

    /// Finish the period: promote the new share, erase the old one and all
    /// per-period randomness (Def. 3.1 erasure requirement).
    pub fn ref_complete(&mut self) -> Result<(), CoreError> {
        let next = self
            .next_share
            .take()
            .ok_or(CoreError::Protocol("ref_complete before ref_finish"))?;
        self.share = next;
        self.skcomm = None;
        self.period_f = None;
        // The prepared chains belong to the outgoing share: swap in a cold
        // cache (clones sharing the old Arc keep their — now stale — view;
        // this party rebuilds lazily or on the next `warm`).
        self.prep_share = LazyPreparedBatch::new();
        self.device.secret.erase_prefix("rand.");
        self.device.secret.erase("share.a");
        self.device.secret.erase("share.phi");
        self.device
            .secret
            .store("share.a", groups_to_cell(&self.share.a));
        self.device
            .secret
            .store("share.phi", self.share.phi.to_bytes());
        self.device.secret.erase("share.next.a");
        self.device.secret.erase("share.next.phi");
        Ok(())
    }
}

/// The coins `b_j` of a set of ciphertexts, concatenated for a secret-memory
/// mirror cell.
fn coins_to_cell<G: Group>(cts: &[HpskeCiphertext<G>]) -> Vec<u8> {
    cts.iter().flat_map(|ct| groups_to_cell(&ct.b)).collect()
}

// ---------------------------------------------------------------------------
// Party 2 (auxiliary device)
// ---------------------------------------------------------------------------

/// Device `P2`: holds `sk_2 = (s_1, …, s_ℓ)`. Its entire computation is
/// products-of-powers of received group elements — it never pairs, never
/// touches the master key, and needs no clock beyond the protocol round.
pub struct Party2<E: Pairing> {
    pk: PublicKey<E>,
    share: Share2<E>,
    device: Device,
    next_share: Option<Share2<E>>,
}

impl<E: Pairing> core::fmt::Debug for Party2<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Party2(<{} share elements>)", self.share.s.len())
    }
}

impl<E: Pairing> Party2<E> {
    /// Construct `P2` from its key share, mirroring it into device memory.
    pub fn new(pk: PublicKey<E>, share: Share2<E>) -> Self {
        let mut device = Device::new("P2");
        device.secret.store("share.s", scalars_to_cell(&share.s));
        Self {
            pk,
            share,
            device,
            next_share: None,
        }
    }

    /// The public key.
    pub fn public_key(&self) -> &PublicKey<E> {
        &self.pk
    }

    /// The current key share (research API).
    pub fn share(&self) -> &Share2<E> {
        &self.share
    }

    /// Device memory.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable device access — used by extension layers (e.g. the DIBE
    /// identity-key-generation protocol) to mirror their own secret
    /// randomness into this device's memory.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Decryption protocol, step 2: `c' = d_B · ∏ d_i^{s_i} / d_Φ`.
    pub fn dec_respond(&mut self, msg: &DecMsg1<E>) -> Result<DecMsg2<E>, CoreError> {
        dlr_metrics::span("dec.p2.respond", || {
            if msg.d.len() != self.share.s.len() {
                return Err(CoreError::Protocol("dec message length mismatch"));
            }
            let prod = HpskeCiphertext::product_of_powers(&msg.d, &self.share.s);
            let c_prime = msg.d_b.mul(&prod).div(&msg.d_phi);
            Ok(DecMsg2 { c_prime })
        })
    }

    /// Decryption step 2 over a batch of requests for this key: exactly
    /// [`Self::dec_respond`] on each, in order. Each request gets its own
    /// `dec.p2.respond` span and operation fingerprint, and a
    /// malformed-length request fails alone with the same error.
    pub fn dec_respond_batch(&mut self, msgs: &[&DecMsg1<E>]) -> Vec<Result<DecMsg2<E>, CoreError>> {
        msgs.iter().map(|m| self.dec_respond(m)).collect()
    }

    /// Refresh protocol, step 2: choose `s'`, reply with
    /// `f = ∏ f'^{s'_i}_i / f^{s_i}_i · f_Φ`, and stage the new share.
    /// Call [`Self::ref_complete`] to erase the old share.
    pub fn ref_respond<R: RngCore + ?Sized>(
        &mut self,
        msg: &RefMsg1<E>,
        rng: &mut R,
    ) -> Result<RefMsg2<E>, CoreError> {
        dlr_metrics::span("refresh.p2.respond", || self.ref_respond_inner(msg, rng))
    }

    fn ref_respond_inner<R: RngCore + ?Sized>(
        &mut self,
        msg: &RefMsg1<E>,
        rng: &mut R,
    ) -> Result<RefMsg2<E>, CoreError> {
        let ell = self.share.s.len();
        if msg.f.len() != ell || msg.f_prime.len() != ell {
            return Err(CoreError::Protocol("ref message length mismatch"));
        }
        let s_prime: Vec<E::Scalar> = (0..ell).map(|_| E::Scalar::random(rng)).collect();

        // combined multiexp: bases = f' ++ f, exps = s' ++ (−s)
        let mut cts: Vec<HpskeCiphertext<E::G2>> = Vec::with_capacity(2 * ell);
        cts.extend(msg.f_prime.iter().cloned());
        cts.extend(msg.f.iter().cloned());
        let mut exps: Vec<E::Scalar> = Vec::with_capacity(2 * ell);
        exps.extend(s_prime.iter().copied());
        exps.extend(self.share.s.iter().map(|s| -*s));
        let f = HpskeCiphertext::product_of_powers(&cts, &exps).mul(&msg.f_phi);

        self.device
            .secret
            .store("share.next.s", scalars_to_cell(&s_prime));
        self.next_share = Some(Share2 { s: s_prime });
        Ok(RefMsg2 { f })
    }

    /// Finish the period: promote the new share and erase the old one.
    pub fn ref_complete(&mut self) -> Result<(), CoreError> {
        let next = self
            .next_share
            .take()
            .ok_or(CoreError::Protocol("ref_complete before ref_respond"))?;
        self.share = next;
        self.device.secret.erase("share.s");
        self.device.secret.erase("share.next.s");
        self.device
            .secret
            .store("share.s", scalars_to_cell(&self.share.s));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Local (in-process) protocol drivers
// ---------------------------------------------------------------------------

/// Run the full decryption protocol between co-located parties.
pub fn decrypt_local<E: Pairing, R: RngCore + ?Sized>(
    p1: &mut Party1<E>,
    p2: &mut Party2<E>,
    ct: &Ciphertext<E>,
    rng: &mut R,
) -> Result<E::Gt, CoreError> {
    dlr_metrics::span("dec", || {
        let m1 = p1.dec_start(ct, rng);
        let m2 = p2.dec_respond(&m1)?;
        p1.dec_finish(&m2)
    })
}

/// Run the full refresh protocol (including completion/erasure) between
/// co-located parties.
pub fn refresh_local<E: Pairing, R: RngCore + ?Sized>(
    p1: &mut Party1<E>,
    p2: &mut Party2<E>,
    rng: &mut R,
) -> Result<(), CoreError> {
    dlr_metrics::span("refresh", || {
        let m1 = p1.ref_start(rng);
        let m2 = p2.ref_respond(&m1, rng)?;
        p1.ref_finish(&m2)?;
        p1.ref_complete()?;
        p2.ref_complete()
    })
}


impl<E: Pairing> Clone for PublicKey<E> {
    fn clone(&self) -> Self {
        Self {
            params: self.params,
            z: self.z,
            z_table: self.z_table.clone(), // clones share the built tables
        }
    }
}


impl<E: Pairing> Clone for Share1<E> {
    fn clone(&self) -> Self {
        Self {
            a: self.a.clone(),
            phi: self.phi,
        }
    }
}


impl<E: Pairing> Clone for Share2<E> {
    fn clone(&self) -> Self {
        Self {
            s: self.s.clone(),
        }
    }
}


impl<E: Pairing> Clone for Ciphertext<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E: Pairing> Copy for Ciphertext<E> {}


impl<E: Pairing> Clone for DecMsg1<E> {
    fn clone(&self) -> Self {
        Self {
            d: self.d.clone(),
            d_phi: self.d_phi.clone(),
            d_b: self.d_b.clone(),
        }
    }
}


impl<E: Pairing> Clone for DecMsg2<E> {
    fn clone(&self) -> Self {
        Self {
            c_prime: self.c_prime.clone(),
        }
    }
}


impl<E: Pairing> Clone for RefMsg1<E> {
    fn clone(&self) -> Self {
        Self {
            f: self.f.clone(),
            f_prime: self.f_prime.clone(),
            f_phi: self.f_phi.clone(),
        }
    }
}


impl<E: Pairing> Clone for RefMsg2<E> {
    fn clone(&self) -> Self {
        Self {
            f: self.f.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlr_curve::Toy;
    use rand::SeedableRng;

    type E = Toy;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    fn small_params() -> SchemeParams {
        // tiny but honest derivation: n=16, λ=64 over the 63-bit toy order
        SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64)
    }

    fn setup(r: &mut rand::rngs::StdRng) -> (Party1<E>, Party2<E>, PublicKey<E>) {
        let (pk, s1, s2) = keygen::<E, _>(small_params(), r);
        (
            Party1::new(pk.clone(), s1),
            Party2::new(pk.clone(), s2),
            pk,
        )
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        let out = decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap();
        assert_eq!(out, m);
    }

    #[test]
    fn decrypt_after_many_refreshes() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        for t in 0..5 {
            let out = decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap();
            assert_eq!(out, m, "period {t}");
            refresh_local(&mut p1, &mut p2, &mut r).unwrap();
        }
        // shares changed but still decrypt
        let out = decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap();
        assert_eq!(out, m);
    }

    #[test]
    fn refresh_changes_both_shares() {
        let mut r = rng();
        let (mut p1, mut p2, _) = setup(&mut r);
        let a_before = p1.share().a.clone();
        let s_before = p2.share().s.clone();
        refresh_local(&mut p1, &mut p2, &mut r).unwrap();
        assert_ne!(p1.share().a, a_before);
        assert_ne!(p2.share().s, s_before);
    }

    #[test]
    fn fresh_mode_also_correct() {
        let mut r = rng();
        let (pk, s1, s2) = keygen::<E, _>(small_params(), &mut r);
        let mut p1 = Party1::with_mode(pk.clone(), s1, CommMode::Fresh);
        let mut p2 = Party2::new(pk.clone(), s2);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        for _ in 0..3 {
            assert_eq!(decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
            refresh_local(&mut p1, &mut p2, &mut r).unwrap();
        }
    }

    #[test]
    fn f_is_built_once_per_period() {
        use dlr_curve::counters::measure;
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let (ell, kappa) = (pk.params.ell as u64, pk.params.kappa as u64);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        for period in 0..2 {
            // Decrypt #1 of a period pays Enc'(a_i) over G for every i …
            let (m1, ops) = measure(|| p1.dec_start(&ct, &mut r));
            assert_eq!(ops.g_pow, ell * kappa, "period {period}");
            assert_eq!(ops.g_op, ell, "period {period}");
            assert_eq!(ops.pairings, ell * (kappa + 1) + 1);
            assert_eq!(p1.dec_finish(&p2.dec_respond(&m1).unwrap()).unwrap(), m);
            // … and decrypts #2..n touch G not at all.
            for _ in 0..4 {
                let (again, ops) = measure(|| p1.dec_start(&ct, &mut r));
                assert_eq!((ops.g_pow, ops.g_op), (0, 0), "period {period}");
                assert_eq!(ops.pairings, ell * (kappa + 1) + 1);
                assert_eq!(ops.gt_pow, 2 * kappa);
                // The §5.2 remark on the wire: `d` is a function of the
                // period's f and A alone; d_Φ and d_B are fresh.
                assert_eq!(again.d, m1.d);
                assert_ne!(again.d_phi, m1.d_phi);
                assert_ne!(again.d_b, m1.d_b);
                assert_eq!(p1.dec_finish(&p2.dec_respond(&again).unwrap()).unwrap(), m);
            }
            // The refresh resends the period's f and builds nothing for it.
            let (_, ops) = measure(|| refresh_local(&mut p1, &mut p2, &mut r).unwrap());
            let refresh_without_f = ell * kappa // f'
                + kappa                         // f_Φ
                + 2 * ell * (kappa + 1)         // P2's combined multiexp
                + kappa; // Dec' of Φ'
            assert_eq!(ops.g_pow, refresh_without_f, "period {period}");
        }
        // A period that opens with a refresh builds f there instead.
        let (_, ops) = dlr_curve::counters::measure(|| p1.ref_start(&mut r));
        assert_eq!(ops.g_pow, 2 * ell * kappa + kappa);
    }

    #[test]
    fn abandoned_refresh_keeps_the_periods_f() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        let before = p1.dec_start(&ct, &mut r);
        // Two refresh attempts whose replies never arrive.
        let first = p1.ref_start(&mut r);
        let second = p1.ref_start(&mut r);
        let f_bytes = |msg: &RefMsg1<E>| -> Vec<u8> {
            msg.f.iter().flat_map(|fi| crate::codec::groups_to_cell(&fi.b)).collect()
        };
        assert_eq!(first.f, second.f);
        assert_eq!(f_bytes(&first), f_bytes(&second));
        assert_ne!(first.f_prime, second.f_prime, "a' and its coins are per attempt");
        // Decrypts of the same period still derive from that f.
        let (after, ops) = dlr_curve::counters::measure(|| p1.dec_start(&ct, &mut r));
        assert_eq!((ops.g_pow, ops.g_op), (0, 0));
        assert_eq!(after.d, before.d);
        assert_eq!(p1.dec_finish(&p2.dec_respond(&after).unwrap()).unwrap(), m);
        // And the retried refresh completes against the f P2 now sees.
        let reply = p2.ref_respond(&second, &mut r).unwrap();
        p1.ref_finish(&reply).unwrap();
        p1.ref_complete().unwrap();
        p2.ref_complete().unwrap();
        assert_eq!(decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
    }

    #[test]
    fn period_randomness_is_bounded_and_erased() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        // Secret memory does not grow with the number of decrypts.
        let mut sizes = Vec::new();
        for _ in 0..6 {
            assert_eq!(decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
            sizes.push(p1.device().secret.total_bits());
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
        let f_coins = p1.device().secret.view().cell("rand.dec.fcoins").unwrap().to_vec();
        let coin_len = <E as Pairing>::G2::byte_len();
        assert_eq!(f_coins.len(), pk.params.ell * pk.params.kappa * coin_len);

        refresh_local(&mut p1, &mut p2, &mut r).unwrap();
        let names = p1.device().secret.cell_names().join(",");
        assert!(!names.contains("rand."), "{names}");
        let flat = p1.device().secret.view().flatten();
        for coin in f_coins.chunks(coin_len) {
            assert!(
                !flat.windows(coin_len).any(|w| w == coin),
                "a coin of the outgoing f survived ref_complete"
            );
        }
    }

    #[test]
    fn rerandomized_ciphertext_same_plaintext() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        let ct2 = rerandomize(&pk, &ct, &mut r);
        assert_ne!(ct.big_a, ct2.big_a);
        assert_eq!(decrypt_local(&mut p1, &mut p2, &ct2, &mut r).unwrap(), m);
    }

    #[test]
    fn ciphertext_serialization() {
        let mut r = rng();
        let (_, _, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        let bytes = ct.to_bytes();
        assert_eq!(bytes.len(), Ciphertext::<E>::byte_len());
        assert_eq!(Ciphertext::<E>::from_bytes(&bytes).unwrap(), ct);
        assert!(Ciphertext::<E>::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn message_serialization_roundtrip() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        let m1 = p1.dec_start(&ct, &mut r);
        let m1b = DecMsg1::<E>::from_bytes(&m1.to_bytes(), &pk.params).unwrap();
        assert_eq!(m1, m1b);
        let m2 = p2.dec_respond(&m1b).unwrap();
        let m2b = DecMsg2::<E>::from_bytes(&m2.to_bytes(), &pk.params).unwrap();
        assert_eq!(p1.dec_finish(&m2b).unwrap(), m);

        let r1 = p1.ref_start(&mut r);
        let r1b = RefMsg1::<E>::from_bytes(&r1.to_bytes(), &pk.params).unwrap();
        assert_eq!(r1, r1b);
        let r2 = p2.ref_respond(&r1b, &mut r).unwrap();
        let r2b = RefMsg2::<E>::from_bytes(&r2.to_bytes(), &pk.params).unwrap();
        p1.ref_finish(&r2b).unwrap();
        p1.ref_complete().unwrap();
        p2.ref_complete().unwrap();
        // still consistent
        assert_eq!(decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
    }

    #[test]
    fn device_memory_lifecycle() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        assert!(p1.device().secret.contains("share.a"));
        assert!(p2.device().secret.contains("share.s"));
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        let _ = decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap();
        assert!(p1.device().secret.contains("rand.skcomm"));

        let bits_normal = p1.device().secret.total_bits();
        let m1 = p1.ref_start(&mut r);
        let m2 = p2.ref_respond(&m1, &mut r).unwrap();
        p1.ref_finish(&m2).unwrap();
        // during refresh the share memory has (at least) doubled
        assert!(p1.device().secret.contains("share.next.a"));
        assert!(p2.device().secret.contains("share.next.s"));
        assert!(p1.device().secret.total_bits() > bits_normal);

        p1.ref_complete().unwrap();
        p2.ref_complete().unwrap();
        assert!(!p1.device().secret.contains("rand.skcomm"));
        assert!(!p1.device().secret.contains("share.next.a"));
        assert!(!p2.device().secret.contains("share.next.s"));
    }

    #[test]
    fn protocol_errors_on_misuse() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        // dec_finish before dec_start
        let empty = DecMsg2::<E> {
            c_prime: HpskeCiphertext {
                b: vec![<E as Pairing>::Gt::identity(); pk.params.kappa],
                c0: <E as Pairing>::Gt::identity(),
            },
        };
        assert!(p1.dec_finish(&empty).is_err());
        // ref_finish before ref_start
        let bad = RefMsg2::<E> {
            f: HpskeCiphertext {
                b: vec![<E as Pairing>::G2::identity(); pk.params.kappa],
                c0: <E as Pairing>::G2::identity(),
            },
        };
        assert!(p1.ref_finish(&bad).is_err());
        assert!(p1.ref_complete().is_err());
        assert!(p2.ref_complete().is_err());
        // wrong-length dec message
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = encrypt(&pk, &m, &mut r);
        let mut m1 = p1.dec_start(&ct, &mut r);
        m1.d.pop();
        assert!(p2.dec_respond(&m1).is_err());
    }

    #[test]
    fn batch_respond_matches_sequential_byte_for_byte() {
        // The batching parity contract end-to-end at the protocol layer:
        // `dec_respond_batch` must be indistinguishable from a loop of
        // `dec_respond` calls — identical reply bytes AND identical
        // operation-counter fingerprint per request.
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let msgs: Vec<DecMsg1<E>> = (0..4)
            .map(|_| {
                let m = <E as Pairing>::Gt::random(&mut r);
                let ct = encrypt(&pk, &m, &mut r);
                p1.dec_start(&ct, &mut r)
            })
            .collect();
        let (seq, seq_ops) = dlr_curve::counters::measure(|| {
            msgs.iter()
                .map(|m1| p2.dec_respond(m1).unwrap().to_bytes())
                .collect::<Vec<_>>()
        });
        let refs: Vec<&DecMsg1<E>> = msgs.iter().collect();
        let (bat, bat_ops) = dlr_curve::counters::measure(|| {
            p2.dec_respond_batch(&refs)
                .into_iter()
                .map(|res| res.unwrap().to_bytes())
                .collect::<Vec<_>>()
        });
        assert_eq!(seq, bat, "batch replies must be byte-identical");
        assert_eq!(seq_ops, bat_ops, "batch op fingerprint must match");
    }

    #[test]
    fn batch_respond_malformed_fails_alone() {
        use crate::driver::p2_handle_decrypt_batch;
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let make_body = |p1: &mut Party1<E>, r: &mut rand::rngs::StdRng| {
            let m = <E as Pairing>::Gt::random(r);
            let ct = encrypt(&pk, &m, r);
            p1.dec_start(&ct, r).to_bytes()
        };
        let good_a = make_body(&mut p1, &mut r);
        let good_b = make_body(&mut p1, &mut r);
        // sequential reference replies for the two good requests
        let expect_a = p2
            .dec_respond(&DecMsg1::<E>::from_bytes(&good_a, &pk.params).unwrap())
            .unwrap()
            .to_bytes();
        let expect_b = p2
            .dec_respond(&DecMsg1::<E>::from_bytes(&good_b, &pk.params).unwrap())
            .unwrap()
            .to_bytes();
        // a truncated frame in the middle of the batch fails alone
        let garbage = &good_a[..10];
        let bodies: Vec<&[u8]> = vec![&good_a, garbage, &good_b];
        let results = p2_handle_decrypt_batch(&mut p2, &bodies);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap(), &expect_a);
        assert!(results[1].is_err(), "malformed sibling must fail");
        assert_eq!(results[2].as_ref().unwrap(), &expect_b);
        // a wrong-length (parsed but ℓ-mismatched) request also fails alone
        let mut short = DecMsg1::<E>::from_bytes(&good_a, &pk.params).unwrap();
        short.d.pop();
        let refs: Vec<&DecMsg1<E>> = vec![&short];
        assert!(p2.dec_respond_batch(&refs)[0].is_err());
    }
}
