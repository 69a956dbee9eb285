//! Cross-crate integration: full DLR sessions over real transports, both
//! P1 layouts, multiple parameter sets.

use dlr::core::driver;
use dlr::core::dlr as scheme;
use dlr::prelude::*;
use dlr::protocol::runtime::run_pair;
use dlr::protocol::transport::transcript_bytes;
use rand::SeedableRng;

type E = Toy;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn toy_params() -> SchemeParams {
    SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64)
}

#[test]
fn multi_period_session_over_channel() {
    let mut r = rng(1);
    let (pk, s1, s2) = scheme::keygen::<E, _>(toy_params(), &mut r);
    let mut p1 = scheme::Party1::new(pk.clone(), s1);
    let mut p2 = scheme::Party2::new(pk.clone(), s2);

    let messages: Vec<_> = (0..4).map(|_| <E as Pairing>::Gt::random(&mut r)).collect();
    let cts: Vec<_> = messages
        .iter()
        .map(|m| scheme::encrypt(&pk, m, &mut r))
        .collect();

    let msgs = messages.clone();
    let out = run_pair(
        move |t| {
            let mut r = rng(2);
            let mut got = Vec::new();
            for ct in &cts {
                got.push(driver::p1_decrypt(&mut p1, ct, t, &mut r).unwrap());
                driver::p1_refresh(&mut p1, t, &mut r).unwrap();
            }
            driver::p1_shutdown(t).unwrap();
            got
        },
        move |t| {
            let mut r = rng(3);
            driver::p2_serve_loop(&mut p2, t, &mut r).unwrap()
        },
    );
    assert_eq!(out.p1, msgs);
    assert_eq!(out.p2, 8); // 4 decrypts + 4 refreshes
    assert!(transcript_bytes(&out.transcript) > 4000);
}

#[test]
fn a_period_over_the_wire_builds_f_once() {
    // The §5.2 reuse remark as P1's device sees it through the driver:
    // only the first decrypt of a period touches G; after the refresh the
    // next period's first decrypt builds f again.
    use dlr::curve::counters::measure;
    let mut r = rng(40);
    let (pk, s1, s2) = scheme::keygen::<E, _>(toy_params(), &mut r);
    let (ell, kappa) = (pk.params.ell as u64, pk.params.kappa as u64);
    let mut p1 = scheme::Party1::new(pk.clone(), s1);
    let mut p2 = scheme::Party2::new(pk.clone(), s2);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = scheme::encrypt(&pk, &m, &mut r);

    let out = run_pair(
        move |t| {
            let mut r = rng(41);
            let mut g_pows = Vec::new();
            for _period in 0..2 {
                for _ in 0..3 {
                    let (got, ops) = measure(|| driver::p1_decrypt(&mut p1, &ct, t, &mut r));
                    assert_eq!(got.unwrap(), m);
                    assert_eq!(ops.pairings, ell * (kappa + 1) + 1);
                    g_pows.push((ops.g_pow, ops.g_op));
                }
                driver::p1_refresh(&mut p1, t, &mut r).unwrap();
            }
            driver::p1_shutdown(t).unwrap();
            g_pows
        },
        move |t| {
            let mut r = rng(42);
            driver::p2_serve_loop(&mut p2, t, &mut r).unwrap()
        },
    );
    let first = (ell * kappa, ell);
    assert_eq!(out.p1, [first, (0, 0), (0, 0), first, (0, 0), (0, 0)]);
}

#[test]
fn streaming_and_plain_layouts_interoperate_with_one_p2() {
    let mut r = rng(4);
    let (pk, s1, s2) = scheme::keygen::<E, _>(toy_params(), &mut r);
    // one P2 serves a plain P1, then (after its refresh) the same P2 can
    // never serve a *different* P1 — but both layouts must produce
    // identical wire messages against identical shares.
    let mut plain = scheme::Party1::new(pk.clone(), s1.clone());
    let mut streaming = dlr::core::streaming::StreamingParty1::new(pk.clone(), s1, &mut r);
    let mut p2a = scheme::Party2::new(pk.clone(), s2.clone());
    let mut p2b = scheme::Party2::new(pk.clone(), s2);

    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = scheme::encrypt(&pk, &m, &mut r);

    let d1 = plain.dec_start(&ct, &mut r);
    let d2 = p2a.dec_respond(&d1).unwrap();
    assert_eq!(plain.dec_finish(&d2).unwrap(), m);

    let d1 = streaming.dec_start(&ct, &mut r);
    let d2 = p2b.dec_respond(&d1).unwrap();
    assert_eq!(streaming.dec_finish(&d2).unwrap(), m);
}

#[test]
fn higher_security_parameters_work() {
    // a heavier-but-honest parameter choice on the toy curve
    let mut r = rng(5);
    let params = SchemeParams::derive::<<E as Pairing>::Scalar>(24, 512);
    assert!(params.ell > 30);
    let (pk, s1, s2) = scheme::keygen::<E, _>(params, &mut r);
    let mut p1 = scheme::Party1::new(pk.clone(), s1);
    let mut p2 = scheme::Party2::new(pk.clone(), s2);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = scheme::encrypt(&pk, &m, &mut r);
    assert_eq!(scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
    scheme::refresh_local(&mut p1, &mut p2, &mut r).unwrap();
    assert_eq!(scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
}

#[test]
#[ignore = "slow: benchmark-grade curve; run with --ignored"]
fn ss512_full_period() {
    let mut r = rng(6);
    let params = SchemeParams::derive::<<Ss512 as Pairing>::Scalar>(64, 512);
    let (pk, s1, s2) = scheme::keygen::<Ss512, _>(params, &mut r);
    let mut p1 = scheme::Party1::new(pk.clone(), s1);
    let mut p2 = scheme::Party2::new(pk.clone(), s2);
    let m = <Ss512 as Pairing>::Gt::random(&mut r);
    let ct = scheme::encrypt(&pk, &m, &mut r);
    assert_eq!(scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
    scheme::refresh_local(&mut p1, &mut p2, &mut r).unwrap();
    assert_eq!(scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
}

#[test]
fn wrong_share_pairs_fail_gracefully() {
    let mut r = rng(7);
    let (pk, s1, _s2) = scheme::keygen::<E, _>(toy_params(), &mut r);
    let (_pk2, _s1b, s2b) = scheme::keygen::<E, _>(toy_params(), &mut r);
    // mismatched shares from two different keygens: protocol completes but
    // decrypts to garbage (honest-but-wrong, not a panic)
    let mut p1 = scheme::Party1::new(pk.clone(), s1);
    let mut p2 = scheme::Party2::new(pk.clone(), s2b);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = scheme::encrypt(&pk, &m, &mut r);
    let out = scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap();
    assert_ne!(out, m);
}

/// SHA-256 of `frames ‖ replies` for `n` decrypt frames of one fresh key:
/// every byte P1 sends and P2 answers through `driver::p2_handle_frame`,
/// each reply checked to decrypt to its plaintext.
fn decrypt_wire_digest<P: Pairing>(seed: u64, n: usize) -> String {
    let mut r = rng(seed);
    let params = SchemeParams::derive::<P::Scalar>(16, 64);
    let (pk, s1, s2) = scheme::keygen::<P, _>(params, &mut r);
    let mut p1 = scheme::Party1::new(pk.clone(), s1);
    let mut p2 = scheme::Party2::new(pk.clone(), s2);
    let (mut frames, mut replies) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let m = P::Gt::random(&mut r);
        let ct = scheme::encrypt(&pk, &m, &mut r);
        let mut frame = vec![driver::RequestTag::Decrypt as u8];
        frame.extend_from_slice(&p1.dec_start(&ct, &mut r).to_bytes());
        let (_, body) = driver::p2_handle_frame(&mut p2, 0, &frame, &mut r).unwrap();
        let body = body.expect("a decrypt has a reply");
        let m2 = scheme::DecMsg2::<P>::from_bytes(&body, &pk.params).unwrap();
        assert_eq!(p1.dec_finish(&m2).unwrap(), m);
        frames.extend_from_slice(&frame);
        replies.extend_from_slice(&body);
    }
    frames.extend_from_slice(&replies);
    dlr::hash::sha256::digest(&frames)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn golden_decrypt_wire_bytes() {
    // Recorded before P2's target-group engine changed: any change to the
    // multi-exponentiation must leave every reply byte where it was.
    assert_eq!(
        decrypt_wire_digest::<Toy>(37, 4),
        "456a78916d30da9ff8d51b250accd13a84e1a317258832553e09654084a53f1b"
    );
    assert_eq!(
        decrypt_wire_digest::<Ss512>(38, 1),
        "12470abf6c21a279f8846be647a14e01b22119674648c9c3f137769920a359b9"
    );
}

/// A transport whose far end is `driver::p2_handle_frame` on one `Party2`:
/// every frame the driver sends is answered in place, and both the frames
/// and the reply bodies are kept for hashing.
struct Loopback<'a, P: Pairing> {
    p2: &'a mut scheme::Party2<P>,
    rng: rand::rngs::StdRng,
    frames: Vec<u8>,
    replies: Vec<u8>,
    pending: Option<bytes::Bytes>,
}

impl<P: Pairing> dlr::protocol::Transport for Loopback<'_, P> {
    fn send(&mut self, msg: bytes::Bytes) -> Result<(), dlr::protocol::TransportError> {
        let (_, body) = driver::p2_handle_frame(self.p2, 0, &msg, &mut self.rng).unwrap();
        let body = body.expect("hello and refresh have a reply");
        self.frames.extend_from_slice(&msg);
        self.replies.extend_from_slice(&body);
        self.pending = Some(driver::ok_reply(&body));
        Ok(())
    }

    fn recv(&mut self) -> Result<bytes::Bytes, dlr::protocol::TransportError> {
        self.pending
            .take()
            .ok_or(dlr::protocol::TransportError::Disconnected)
    }
}

impl<P: Pairing> Loopback<'_, P> {
    /// SHA-256 of `frames ‖ replies` so far, and a fresh record.
    fn digest(&mut self) -> String {
        let mut all = std::mem::take(&mut self.frames);
        all.append(&mut self.replies);
        dlr::hash::sha256::digest(&all)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

#[test]
fn golden_hello_and_refresh_wire_bytes() {
    // Recorded before the refresh protocol is reworked: the hello and the
    // wire refresh must keep every byte P1 sends and P2 answers.
    let mut r = rng(39);
    let (pk, s1, s2) = scheme::keygen::<Toy, _>(toy_params(), &mut r);
    let mut p1 = scheme::Party1::new(pk.clone(), s1);
    let mut p2 = scheme::Party2::new(pk.clone(), s2);
    let mut wire = Loopback {
        p2: &mut p2,
        rng: rng(40),
        frames: Vec::new(),
        replies: Vec::new(),
        pending: None,
    };

    assert_eq!(driver::p1_hello(&mut wire, b"default", driver::GENERATION_ANY).unwrap(), 0);
    assert_eq!(driver::p1_hello(&mut wire, b"key-7", 0).unwrap(), 0);
    assert_eq!(
        wire.digest(),
        "316b6122dda5819797cc2aaec736467be10ada11181df3d7be48a672c957e487"
    );

    driver::p1_refresh(&mut p1, &mut wire, &mut r).unwrap();
    assert_eq!(
        wire.digest(),
        "353ab14ff54fc00e4eaba6d54f99de68dddff752ce247f842e13e8540bf29e70"
    );

    // Both sides committed the same refresh: the new shares still decrypt.
    let m = <Toy as Pairing>::Gt::random(&mut r);
    let ct = scheme::encrypt(&pk, &m, &mut r);
    assert_eq!(scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(), m);
}

/// SHA-256 of the encodings of `n` seeded `G::random` draws followed by
/// `G::generator()`: both go through `hash_to_group`.
fn sampling_digest<P: Pairing>(seed: u64, n: usize) -> String {
    let mut r = rng(seed);
    let mut all = Vec::new();
    for _ in 0..n {
        all.extend_from_slice(&P::G1::random(&mut r).to_bytes());
    }
    all.extend_from_slice(&P::G1::generator().to_bytes());
    dlr::hash::sha256::digest(&all)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn golden_sampling_bytes() {
    // Recorded before cofactor clearing moved to an x-only ladder: every
    // sampled point, and the SS512 refresh built from them, must keep
    // every byte.
    assert_eq!(
        sampling_digest::<Toy>(43, 64),
        "5628cfb93ccc7cd5ca48ff946f2890a01785973b62cbe4a0a949b7b9f3b25490"
    );
    assert_eq!(
        sampling_digest::<Ss512>(44, 8),
        "0422bf79588b14e54b1676cfeae2f41f729043025c6235837aad8ac5e9655ddd"
    );

    let mut r = rng(45);
    let params = SchemeParams::derive::<<Ss512 as Pairing>::Scalar>(16, 64);
    let (pk, s1, s2) = scheme::keygen::<Ss512, _>(params, &mut r);
    let mut p1 = scheme::Party1::new(pk.clone(), s1);
    let mut p2 = scheme::Party2::new(pk.clone(), s2);
    let mut wire = Loopback {
        p2: &mut p2,
        rng: rng(46),
        frames: Vec::new(),
        replies: Vec::new(),
        pending: None,
    };
    driver::p1_refresh(&mut p1, &mut wire, &mut r).unwrap();
    assert_eq!(
        wire.digest(),
        "0d6e710a924be16ef594fb65e86f30a92d64ad0173026b2c6ac758f7e15919c4"
    );

    let m = <Ss512 as Pairing>::Gt::random(&mut r);
    let ct = scheme::encrypt(&pk, &m, &mut r);
    assert_eq!(
        scheme::decrypt_local(&mut p1, &mut p2, &ct, &mut r).unwrap(),
        m
    );
}
