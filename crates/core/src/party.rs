//! A unified handle over the two `P1` memory layouts, so the security game
//! and experiments can run against either.

use crate::dlr::{Ciphertext, DecMsg1, DecMsg2, Party1, PublicKey, RefMsg1, RefMsg2, Share1};
use crate::error::CoreError;
use crate::streaming::StreamingParty1;
use dlr_curve::Pairing;
use dlr_protocol::Device;
use rand::RngCore;

/// Which `P1` layout to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum P1Layout {
    /// Plain layout: `sk_1` resides in secret memory (Construction 5.3 as
    /// written).
    Plain,
    /// Streaming layout (§5.2 remark): secret memory holds only `sk_comm`;
    /// `sk_1` lives HPSKE-encrypted in public memory. This is the layout
    /// Theorem 4.1's `m_1 = |sk_comm|` accounting refers to.
    #[default]
    Streaming,
}

/// Either `P1` implementation behind one API.
pub enum AnyParty1<E: Pairing> {
    /// Plain layout.
    Plain(Party1<E>),
    /// Streaming (optimal-rate) layout.
    Streaming(StreamingParty1<E>),
}

impl<E: Pairing> AnyParty1<E> {
    /// Construct with the requested layout.
    pub fn new<R: RngCore + ?Sized>(
        layout: P1Layout,
        pk: PublicKey<E>,
        share: Share1<E>,
        rng: &mut R,
    ) -> Self {
        match layout {
            P1Layout::Plain => AnyParty1::Plain(Party1::new(pk, share)),
            P1Layout::Streaming => AnyParty1::Streaming(StreamingParty1::new(pk, share, rng)),
        }
    }

    /// The device whose secret memory leakage functions read.
    pub fn device(&self) -> &Device {
        match self {
            AnyParty1::Plain(p) => p.device(),
            AnyParty1::Streaming(p) => p.device(),
        }
    }

    /// Decryption protocol, step 1.
    pub fn dec_start<R: RngCore + ?Sized>(
        &mut self,
        ct: &Ciphertext<E>,
        rng: &mut R,
    ) -> DecMsg1<E> {
        match self {
            AnyParty1::Plain(p) => p.dec_start(ct, rng),
            AnyParty1::Streaming(p) => p.dec_start(ct, rng),
        }
    }

    /// Decryption protocol, step 3.
    pub fn dec_finish(&mut self, msg: &DecMsg2<E>) -> Result<E::Gt, CoreError> {
        match self {
            AnyParty1::Plain(p) => p.dec_finish(msg),
            AnyParty1::Streaming(p) => p.dec_finish(msg),
        }
    }

    /// Refresh protocol, step 1.
    pub fn ref_start<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> RefMsg1<E> {
        match self {
            AnyParty1::Plain(p) => p.ref_start(rng),
            AnyParty1::Streaming(p) => p.ref_start(rng),
        }
    }

    /// Refresh protocol, step 3 (staging; see the layout types for the
    /// snapshot semantics).
    pub fn ref_finish<R: RngCore + ?Sized>(
        &mut self,
        msg: &RefMsg2<E>,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        match self {
            AnyParty1::Plain(p) => p.ref_finish(msg),
            AnyParty1::Streaming(p) => p.ref_finish(msg, rng),
        }
    }

    /// Promote staged key material and erase the previous period's.
    pub fn ref_complete(&mut self) -> Result<(), CoreError> {
        match self {
            AnyParty1::Plain(p) => p.ref_complete(),
            AnyParty1::Streaming(p) => p.ref_complete(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlr::{self, CommMode, Party2};
    use crate::params::SchemeParams;
    use dlr_curve::{Group, Toy};
    use rand::SeedableRng;

    type E = Toy;

    /// Every `P1` variant — plain/`Reuse`, plain/`Fresh`, streaming —
    /// against its own unmodified `P2`, `periods` × (`decrypts` decryptions
    /// of one ciphertext, then a refresh): all must recover the plaintext
    /// every time.
    fn all_variants_agree<E: Pairing>(seed: u64, periods: usize, decrypts: usize) {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let params = SchemeParams::derive::<E::Scalar>(16, 64);
        let (pk, s1, s2) = dlr::keygen::<E, _>(params, &mut r);
        let m = E::Gt::random(&mut r);
        let ct = dlr::encrypt(&pk, &m, &mut r);
        let variants = [
            ("plain/reuse", AnyParty1::new(P1Layout::Plain, pk.clone(), s1.clone(), &mut r)),
            (
                "plain/fresh",
                AnyParty1::Plain(Party1::with_mode(pk.clone(), s1.clone(), CommMode::Fresh)),
            ),
            ("streaming", AnyParty1::new(P1Layout::Streaming, pk.clone(), s1, &mut r)),
        ];
        for (name, mut p1) in variants {
            let mut p2 = Party2::new(pk.clone(), s2.clone());
            for period in 0..periods {
                for k in 0..decrypts {
                    let m1 = p1.dec_start(&ct, &mut r);
                    let m2 = p2.dec_respond(&m1).unwrap();
                    assert_eq!(p1.dec_finish(&m2).unwrap(), m, "{name} period {period} #{k}");
                }
                let r1 = p1.ref_start(&mut r);
                let r2 = p2.ref_respond(&r1, &mut r).unwrap();
                p1.ref_finish(&r2, &mut r).unwrap();
                p1.ref_complete().unwrap();
                p2.ref_complete().unwrap();
            }
        }
    }

    #[test]
    fn all_variants_decrypt_and_refresh() {
        all_variants_agree::<Toy>(101, 3, 5);
    }

    #[test]
    fn all_variants_decrypt_and_refresh_ss512() {
        // One period: two decrypts (the second from the cached f) and the
        // refresh that closes it.
        all_variants_agree::<dlr_curve::Ss512>(103, 1, 2);
    }

    #[test]
    fn layouts_have_different_secret_sizes() {
        let mut r = rand::rngs::StdRng::seed_from_u64(102);
        let params = SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64);
        let (pk, s1, s2) = dlr::keygen::<E, _>(params, &mut r);
        let _ = s2;
        let plain = AnyParty1::<E>::new(P1Layout::Plain, pk.clone(), s1.clone(), &mut r);
        let streaming = AnyParty1::<E>::new(P1Layout::Streaming, pk, s1, &mut r);
        assert!(
            plain.device().secret.total_bits() > streaming.device().secret.total_bits(),
            "streaming layout must shrink P1's secret memory"
        );
    }
}
