//! The optimal-leakage-rate `P1` of the §5.2 remark.
//!
//! Instead of keeping `sk_1 = (a_1, …, a_ℓ, Φ)` in secret memory, this
//! variant keeps only the HPSKE key `sk_comm` secret and stores the
//! *encryption* of `sk_1` under `Π_comm` in **public memory** (the
//! ciphertexts cross the public channel during refresh anyway). `P1` never
//! holds more than a single un-encrypted coordinate of `sk_1` at a time, so
//!
//! ```text
//! |secret memory of P1| = |sk_comm| + log p = κ·log p + log p
//! ```
//!
//! which is what makes the tolerated leakage rate `b_1/m_1 = 1 − cn/(λ+cn)
//! → 1 − o(1)` (Theorem 4.1) — experiment T3 computes exactly this from
//! the implemented memory sizes.
//!
//! Two pleasant consequences of the ciphertext-reuse remark:
//!
//! * **decryption needs no secret access at all** beyond `sk_comm`: the
//!   `d_i` are the stored `Enc'(a_i)` paired coordinate-wise with `A`, and
//!   `d_Φ`, `d_B` likewise involve only public values;
//! * **refresh** streams one `a'_i` at a time: sample, encrypt under the
//!   *old* key for the wire and under the *next* key for storage, erase.
//!
//! The wire messages are byte-identical to the plain variant's, so the
//! unmodified [`Party2`](crate::dlr::Party2) serves both.

use crate::codec::scalars_to_cell;
use crate::dlr::{Ciphertext, DecMsg1, DecMsg2, PublicKey, RefMsg1, RefMsg2, Share1};
use crate::error::CoreError;
use crate::hpske::{self, HpskeCiphertext, HpskeKey};
use dlr_curve::{Group, Pairing};
use dlr_protocol::Device;
use rand::RngCore;

/// The streaming (optimal-rate) `P1`.
pub struct StreamingParty1<E: Pairing> {
    pk: PublicKey<E>,
    skcomm: HpskeKey<E::Scalar>,
    enc_a: Vec<HpskeCiphertext<E::G2>>,
    enc_phi: HpskeCiphertext<E::G2>,
    device: Device,
    pending: Option<PendingRefresh<E>>,
    staged_phi: Option<HpskeCiphertext<E::G2>>,
}

struct PendingRefresh<E: Pairing> {
    skcomm_next: HpskeKey<E::Scalar>,
    enc_a_next: Vec<HpskeCiphertext<E::G2>>,
}

impl<E: Pairing> core::fmt::Debug for StreamingParty1<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "StreamingParty1(κ={})", self.skcomm.kappa())
    }
}

impl<E: Pairing> StreamingParty1<E> {
    /// Absorb a plain share: encrypt it coordinate-by-coordinate under a
    /// fresh `sk_comm`, keeping only `sk_comm` (and one transient
    /// coordinate) in secret memory.
    pub fn new<R: RngCore + ?Sized>(pk: PublicKey<E>, share: Share1<E>, rng: &mut R) -> Self {
        let skcomm: HpskeKey<E::Scalar> = HpskeKey::generate(pk.params.kappa, rng);
        let mut device = Device::new("P1-streaming");
        device
            .secret
            .store("skcomm", scalars_to_cell(&skcomm.sigma));

        let mut enc_a = Vec::with_capacity(share.a.len());
        for (i, ai) in share.a.iter().enumerate() {
            // one coordinate resident at a time
            device.secret.store("stream.elem", ai.to_bytes());
            enc_a.push(hpske::encrypt(&skcomm, ai, rng));
            device.secret.erase("stream.elem");
            device
                .public
                .store(&format!("enc.a.{i}"), enc_cell(&enc_a[i]));
        }
        device.secret.store("stream.elem", share.phi.to_bytes());
        let enc_phi = hpske::encrypt(&skcomm, &share.phi, rng);
        device.secret.erase("stream.elem");
        device.public.store("enc.phi", enc_cell(&enc_phi));

        Self {
            pk,
            skcomm,
            enc_a,
            enc_phi,
            device,
            pending: None,
            staged_phi: None,
        }
    }

    /// The public key.
    pub fn public_key(&self) -> &PublicKey<E> {
        &self.pk
    }

    /// Device memory: note how small the secret side is.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Decryption step 1 — all inputs are public-memory ciphertexts:
    /// `d_i = e(A, ·) ∘ Enc'(a_i)`, `d_Φ = e(A, ·) ∘ Enc'(Φ)`,
    /// `d_B = Enc'(B)`.
    pub fn dec_start<R: RngCore + ?Sized>(
        &mut self,
        ct: &Ciphertext<E>,
        rng: &mut R,
    ) -> DecMsg1<E> {
        // One prepared Miller chain for A serves all ℓ+1 ciphertexts.
        let prep_a = E::prepare(&ct.big_a);
        let d = hpske::pair_ciphertexts_prepared::<E>(&prep_a, &self.enc_a);
        let d_phi = hpske::pair_ciphertext_prepared::<E>(&prep_a, &self.enc_phi);
        let d_b = hpske::encrypt(&self.skcomm, &ct.big_b, rng);
        self.device.public.store("dec.input", ct.to_bytes());
        DecMsg1 { d, d_phi, d_b }
    }

    /// Decryption step 3.
    pub fn dec_finish(&mut self, msg: &DecMsg2<E>) -> Result<E::Gt, CoreError> {
        let m = hpske::decrypt(&self.skcomm, &msg.c_prime)
            .ok_or(CoreError::Protocol("response kappa mismatch"))?;
        self.device.public.store("dec.output", m.to_bytes());
        Ok(m)
    }

    /// Refresh step 1: stream fresh `a'_i`, encrypting each under both the
    /// old key (for the wire) and the next key (for storage).
    pub fn ref_start<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RefMsg1<E> {
        let skcomm_next: HpskeKey<E::Scalar> = HpskeKey::generate(self.pk.params.kappa, rng);
        self.device
            .secret
            .store("skcomm.next", scalars_to_cell(&skcomm_next.sigma));

        let ell = self.pk.params.ell;
        let mut f_prime = Vec::with_capacity(ell);
        let mut enc_a_next = Vec::with_capacity(ell);
        for _ in 0..ell {
            let a_i = E::G2::random(rng);
            self.device.secret.store("stream.elem", a_i.to_bytes());
            f_prime.push(hpske::encrypt(&self.skcomm, &a_i, rng));
            enc_a_next.push(hpske::encrypt(&skcomm_next, &a_i, rng));
            self.device.secret.erase("stream.elem");
        }
        self.pending = Some(PendingRefresh {
            skcomm_next,
            enc_a_next,
        });
        RefMsg1 {
            f: self.enc_a.clone(),
            f_prime,
            f_phi: self.enc_phi.clone(),
        }
    }

    /// Refresh step 3: decrypt `Φ'` (one transient coordinate), re-encrypt
    /// it under the next key, and stage the switch-over. Call
    /// [`Self::ref_complete`] to erase the old key.
    pub fn ref_finish<R: RngCore + ?Sized>(
        &mut self,
        msg: &RefMsg2<E>,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        let pending = self
            .pending
            .as_mut()
            .ok_or(CoreError::Protocol("ref_finish before ref_start"))?;
        let phi_prime = hpske::decrypt(&self.skcomm, &msg.f)
            .ok_or(CoreError::Protocol("response kappa mismatch"))?;
        self.device
            .secret
            .store("stream.elem", phi_prime.to_bytes());
        let enc_phi_next = hpske::encrypt(&pending.skcomm_next, &phi_prime, rng);
        self.device.secret.erase("stream.elem");
        self.device
            .public
            .store("enc.phi.next", enc_cell(&enc_phi_next));
        self.staged_phi = Some(enc_phi_next);
        Ok(())
    }

    /// Promote the staged key material and erase the old `sk_comm`.
    pub fn ref_complete(&mut self) -> Result<(), CoreError> {
        let pending = self
            .pending
            .take()
            .ok_or(CoreError::Protocol("ref_complete before ref_finish"))?;
        let enc_phi = self
            .staged_phi
            .take()
            .ok_or(CoreError::Protocol("ref_complete before ref_finish"))?;
        self.skcomm = pending.skcomm_next;
        self.enc_a = pending.enc_a_next;
        self.enc_phi = enc_phi;
        self.device.secret.erase("skcomm");
        self.device.secret.erase("skcomm.next");
        self.device
            .secret
            .store("skcomm", scalars_to_cell(&self.skcomm.sigma));
        for (i, ct) in self.enc_a.iter().enumerate() {
            self.device
                .public
                .store(&format!("enc.a.{i}"), enc_cell(ct));
        }
        self.device.public.store("enc.phi", enc_cell(&self.enc_phi));
        self.device.public.remove("enc.phi.next");
        Ok(())
    }
}

fn enc_cell<G: Group>(ct: &HpskeCiphertext<G>) -> Vec<u8> {
    let mut out = Vec::new();
    for b in &ct.b {
        out.extend_from_slice(&b.to_bytes());
    }
    out.extend_from_slice(&ct.c0.to_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlr::{self, Party2};
    use crate::params::SchemeParams;
    use dlr_curve::Toy;
    use rand::SeedableRng;

    type E = Toy;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(91)
    }

    fn setup(
        r: &mut rand::rngs::StdRng,
    ) -> (StreamingParty1<E>, Party2<E>, PublicKey<E>) {
        let params = SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64);
        let (pk, s1, s2) = dlr::keygen::<E, _>(params, r);
        (
            StreamingParty1::new(pk.clone(), s1, r),
            Party2::new(pk.clone(), s2),
            pk,
        )
    }

    fn run_decrypt(
        p1: &mut StreamingParty1<E>,
        p2: &mut Party2<E>,
        ct: &Ciphertext<E>,
        r: &mut rand::rngs::StdRng,
    ) -> <E as Pairing>::Gt {
        let m1 = p1.dec_start(ct, r);
        let m2 = p2.dec_respond(&m1).unwrap();
        p1.dec_finish(&m2).unwrap()
    }

    fn run_refresh(p1: &mut StreamingParty1<E>, p2: &mut Party2<E>, r: &mut rand::rngs::StdRng) {
        let m1 = p1.ref_start(r);
        let m2 = p2.ref_respond(&m1, r).unwrap();
        p1.ref_finish(&m2, r).unwrap();
        p1.ref_complete().unwrap();
        p2.ref_complete().unwrap();
    }

    #[test]
    fn decrypt_roundtrip_with_plain_p2() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = dlr::encrypt(&pk, &m, &mut r);
        assert_eq!(run_decrypt(&mut p1, &mut p2, &ct, &mut r), m);
    }

    #[test]
    fn decrypt_across_refreshes() {
        let mut r = rng();
        let (mut p1, mut p2, pk) = setup(&mut r);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = dlr::encrypt(&pk, &m, &mut r);
        for t in 0..4 {
            assert_eq!(run_decrypt(&mut p1, &mut p2, &ct, &mut r), m, "period {t}");
            run_refresh(&mut p1, &mut p2, &mut r);
        }
    }

    #[test]
    fn secret_memory_is_only_skcomm() {
        let mut r = rng();
        let (p1, _, pk) = setup(&mut r);
        let view = p1.device().secret.view();
        // exactly one secret cell: the HPSKE key
        assert_eq!(view.cells().len(), 1);
        assert_eq!(view.cells()[0].0, "skcomm");
        let expect_bits =
            pk.params.kappa * <<E as Pairing>::Scalar as dlr_math::FieldElement>::byte_len() * 8;
        assert_eq!(view.total_bits(), expect_bits);
    }

    #[test]
    fn refresh_doubles_secret_memory_transiently() {
        let mut r = rng();
        let (mut p1, mut p2, _) = setup(&mut r);
        let normal = p1.device().secret.total_bits();
        let m1 = p1.ref_start(&mut r);
        let m2 = p2.ref_respond(&m1, &mut r).unwrap();
        p1.ref_finish(&m2, &mut r).unwrap();
        // both skcomm and skcomm.next resident
        let during = p1.device().secret.total_bits();
        assert_eq!(during, 2 * normal);
        p1.ref_complete().unwrap();
        p2.ref_complete().unwrap();
        assert_eq!(p1.device().secret.total_bits(), normal);
    }

    #[test]
    fn misuse_errors() {
        let mut r = rng();
        let (mut p1, _, _) = setup(&mut r);
        assert!(p1.ref_complete().is_err());
    }
}
