//! Transport-level protocol drivers: run the DLR decryption/refresh
//! protocols over a real [`Transport`] (in-memory or TCP), exercising the
//! wire codec end to end.
//!
//! ## Framing
//!
//! Each protocol message is one transport frame. Requests carry a 1-byte
//! [`RequestTag`] prefix so `P2` can serve a mixed stream of requests;
//! replies carry a 1-byte status prefix ([`REPLY_OK`] / [`REPLY_ERR`]) so a
//! misbehaving request is answered with a structured [`ErrorCode`] frame
//! instead of a dropped connection.
//!
//! ## Sessions and keys
//!
//! A client *may* open its session with a versioned [`HelloMsg`]
//! ([`RequestTag::Hello`]): it names the key id the session is about and
//! the share **generation** (refresh count) the client believes is
//! current. Multi-key servers (`dlr-server`) use the hello to select the
//! key and to bind the session to a generation — a decrypt racing a
//! concurrent refresh is answered with [`ErrorCode::StaleGeneration`]
//! rather than silently combining mismatched shares into garbage.
//! Single-key peers ([`p2_serve_one`] / [`p2_serve_loop`]) acknowledge any
//! hello; sessions that skip the hello (the in-process test drivers)
//! behave as before.

use crate::dlr::{Ciphertext, DecMsg1, DecMsg2, Party1, Party2, RefMsg1, RefMsg2};
use crate::error::CoreError;
use bytes::Bytes;
use dlr_curve::Pairing;
use dlr_protocol::{Decoder, Encoder, Transport, TransportError};
use rand::RngCore;
use std::time::Duration;

/// Wire protocol version announced in [`HelloMsg`] and [`TopologyMsg`].
/// Version 2 dropped the shard-ring size from the topology body.
pub const WIRE_VERSION: u8 = 2;

/// Hello generation wildcard: "bind me to whatever generation is current".
pub const GENERATION_ANY: u64 = u64::MAX;

/// Reply status byte: request succeeded, body follows.
pub const REPLY_OK: u8 = 0;

/// Reply status byte: structured error frame follows.
pub const REPLY_ERR: u8 = 0xFF;

/// Request tags on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RequestTag {
    /// Decryption protocol, message 1.
    Decrypt = 1,
    /// Refresh protocol, message 1.
    Refresh = 2,
    /// Session end: `P2`'s serve loop exits.
    Shutdown = 3,
    /// Session preamble: key selection + generation binding.
    Hello = 4,
    /// Cluster topology fetch: the reply body is a [`TopologyMsg`].
    Topology = 5,
}

impl RequestTag {
    /// Every tag in the protocol, in wire-byte order. Adding a variant
    /// without extending this table fails the exhaustive round-trip test.
    pub const ALL: [RequestTag; 5] = [
        RequestTag::Decrypt,
        RequestTag::Refresh,
        RequestTag::Shutdown,
        RequestTag::Hello,
        RequestTag::Topology,
    ];

    /// Parse a wire tag byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(RequestTag::Decrypt),
            2 => Some(RequestTag::Refresh),
            3 => Some(RequestTag::Shutdown),
            4 => Some(RequestTag::Hello),
            5 => Some(RequestTag::Topology),
            _ => None,
        }
    }
}

/// Machine-readable error codes carried by [`REPLY_ERR`] frames.
///
/// The full code space (see also the wire-format notes in `dlr-protocol`):
///
/// | byte | code | meaning | client action |
/// |------|------|---------|---------------|
/// | 1 | [`BadRequest`](Self::BadRequest) | body failed to decode/validate | fix the request; do not retry |
/// | 2 | [`UnknownTag`](Self::UnknownTag) | tag byte not in [`RequestTag`] | do not retry |
/// | 3 | [`UnknownKey`](Self::UnknownKey) | key id not held *anywhere* the server knows of | do not retry |
/// | 4 | [`StaleGeneration`](Self::StaleGeneration) | session generation outdated by a refresh | re-hello, then retry |
/// | 5 | [`Busy`](Self::Busy) | server at its session limit | retry after jittered backoff |
/// | 6 | [`Internal`](Self::Internal) | server-side failure | report; retry at most once |
/// | 7 | [`NotMine`](Self::NotMine) | key owned by another replica; detail = owner address hint | re-route to the hinted replica |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request body failed to decode or validate.
    BadRequest = 1,
    /// The request tag byte is not in [`RequestTag`].
    UnknownTag = 2,
    /// The hello named a key id the server does not hold.
    UnknownKey = 3,
    /// The session's bound generation no longer matches the key's —
    /// a refresh completed since the hello. Re-hello (with the refreshed
    /// share) and retry.
    StaleGeneration = 4,
    /// The server is at its concurrent-session limit; retry after backoff.
    Busy = 5,
    /// The server failed internally while serving the request.
    Internal = 6,
    /// The key id is placed on a *different* replica of the fleet. The
    /// reply's detail field carries the owning replica's address
    /// (`owner_hint`) — re-route there ([`Router`] does this and
    /// invalidates its cached route).
    NotMine = 7,
}

impl ErrorCode {
    /// Every code in the protocol, in wire-byte order. Adding a variant
    /// without extending this table fails the exhaustive round-trip test.
    pub const ALL: [ErrorCode; 7] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownTag,
        ErrorCode::UnknownKey,
        ErrorCode::StaleGeneration,
        ErrorCode::Busy,
        ErrorCode::Internal,
        ErrorCode::NotMine,
    ];

    /// Parse a wire code byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ErrorCode::BadRequest),
            2 => Some(ErrorCode::UnknownTag),
            3 => Some(ErrorCode::UnknownKey),
            4 => Some(ErrorCode::StaleGeneration),
            5 => Some(ErrorCode::Busy),
            6 => Some(ErrorCode::Internal),
            7 => Some(ErrorCode::NotMine),
            _ => None,
        }
    }
}

/// Session preamble: which key this session is about and which share
/// generation the client believes is current ([`GENERATION_ANY`] to bind
/// to whatever the server holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloMsg {
    /// Wire protocol version ([`WIRE_VERSION`]).
    pub version: u8,
    /// Opaque key identifier (server-side keyring lookup).
    pub key_id: Vec<u8>,
    /// Client's view of the share generation (refresh count).
    pub generation: u64,
}

impl HelloMsg {
    /// Serialize the hello body (without the request tag).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(self.version)
            .put_bytes(&self.key_id)
            .put_u64(self.generation);
        enc.finish()
    }

    /// Parse a hello body.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut dec = Decoder::new(bytes);
        let version = dec.get_u8()?;
        if version != WIRE_VERSION {
            return Err(CoreError::Protocol("unsupported wire version"));
        }
        let key_id = dec.get_bytes()?.to_vec();
        let generation = dec.get_u64()?;
        dec.finish()?;
        Ok(Self {
            version,
            key_id,
            generation,
        })
    }
}

/// Cluster topology: how key ids map onto fleet replicas.
///
/// Replica `i` owns every key id whose [`dlr_protocol::place`] replica is
/// `i` — the same function the fleet and every server place keys with, so
/// client-side routing and server-side ownership agree byte-for-byte.
/// Served as the reply body of [`RequestTag::Topology`]; any replica can
/// answer for the whole fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyMsg {
    /// Wire protocol version ([`WIRE_VERSION`]).
    pub version: u8,
    /// Replica addresses, indexed by replica number.
    pub replicas: Vec<String>,
}

impl TopologyMsg {
    /// Serialize the topology body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(self.version);
        enc.put_bytes_seq(self.replicas.iter().map(String::as_bytes));
        enc.finish()
    }

    /// Parse a topology body.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut dec = Decoder::new(bytes);
        let version = dec.get_u8()?;
        if version != WIRE_VERSION {
            return Err(CoreError::Protocol("unsupported wire version"));
        }
        let mut replicas = Vec::new();
        for raw in dec.get_bytes_seq()? {
            let addr = std::str::from_utf8(raw)
                .map_err(|_| CoreError::Protocol("replica address is not utf-8"))?;
            replicas.push(addr.to_string());
        }
        dec.finish()?;
        Ok(Self { version, replicas })
    }

    /// The replica index owning `key_id`, or `None` for an empty fleet.
    pub fn owner_index(&self, key_id: &[u8]) -> Option<usize> {
        if self.replicas.is_empty() {
            return None;
        }
        Some(dlr_protocol::place(key_id, self.replicas.len(), 1).0)
    }

    /// The address of the replica owning `key_id`.
    pub fn owner_addr(&self, key_id: &[u8]) -> Option<&str> {
        self.owner_index(key_id).map(|i| self.replicas[i].as_str())
    }
}

fn frame(tag: RequestTag, body: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(tag as u8);
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// Build a success reply frame: status byte + body.
pub fn ok_reply(body: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(REPLY_OK);
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// Build a structured error reply frame.
pub fn error_reply(code: ErrorCode, detail: &str) -> Bytes {
    let mut enc = Encoder::new();
    enc.put_u8(REPLY_ERR).put_u8(code as u8).put_bytes(detail.as_bytes());
    Bytes::from(enc.finish())
}

/// The error reply a serving error maps to on the wire.
pub fn error_reply_for(err: &CoreError) -> Bytes {
    let (code, detail) = match err {
        CoreError::Codec(e) => (ErrorCode::BadRequest, e.to_string()),
        CoreError::Protocol("unknown request tag") => {
            (ErrorCode::UnknownTag, "unknown request tag".to_string())
        }
        CoreError::Protocol(what) => (ErrorCode::BadRequest, (*what).to_string()),
        CoreError::InvalidCiphertext(what) => (ErrorCode::BadRequest, (*what).to_string()),
        _ => (ErrorCode::Internal, err.to_string()),
    };
    error_reply(code, &detail)
}

/// Parse a status-prefixed reply frame, returning the success body or the
/// peer's structured error as [`CoreError::Remote`].
pub fn parse_reply(reply: &[u8]) -> Result<&[u8], CoreError> {
    match reply.first() {
        None => Err(CoreError::Protocol("empty reply frame")),
        Some(&REPLY_OK) => Ok(&reply[1..]),
        Some(&REPLY_ERR) => {
            let mut dec = Decoder::new(&reply[1..]);
            let code = dec.get_u8()?;
            let message = String::from_utf8_lossy(dec.get_bytes()?).into_owned();
            dec.finish()?;
            Err(CoreError::Remote { code, message })
        }
        Some(_) => Err(CoreError::Protocol("unknown reply status")),
    }
}

/// Send a request frame and parse the status-prefixed reply.
fn call(
    transport: &mut dyn Transport,
    tag: RequestTag,
    body: &[u8],
) -> Result<Vec<u8>, CoreError> {
    transport.send(frame(tag, body))?;
    let reply = transport.recv()?;
    parse_reply(&reply).map(<[u8]>::to_vec)
}

/// `P1` side: open a session for `key_id`, binding it to `generation`
/// ([`GENERATION_ANY`] to accept the server's). Returns the server's
/// current generation for the key.
pub fn p1_hello(
    transport: &mut dyn Transport,
    key_id: &[u8],
    generation: u64,
) -> Result<u64, CoreError> {
    let hello = HelloMsg {
        version: WIRE_VERSION,
        key_id: key_id.to_vec(),
        generation,
    };
    let body = call(transport, RequestTag::Hello, &hello.to_bytes())?;
    let mut dec = Decoder::new(&body);
    let server_generation = dec.get_u64()?;
    dec.finish()?;
    Ok(server_generation)
}

/// `P1` side: fetch the fleet topology from any replica.
pub fn p1_fetch_topology(transport: &mut dyn Transport) -> Result<TopologyMsg, CoreError> {
    let body = call(transport, RequestTag::Topology, &[])?;
    TopologyMsg::from_bytes(&body)
}

/// `P1` side: run the decryption protocol for `ct` over `transport`.
pub fn p1_decrypt<E: Pairing, R: RngCore + ?Sized>(
    p1: &mut Party1<E>,
    ct: &Ciphertext<E>,
    transport: &mut dyn Transport,
    rng: &mut R,
) -> Result<E::Gt, CoreError> {
    dlr_metrics::span("dec", || {
        let m1 = p1.dec_start(ct, rng);
        let body = call(transport, RequestTag::Decrypt, &m1.to_bytes())?;
        let m2 = DecMsg2::<E>::from_bytes(&body, &p1.public_key().params)?;
        p1.dec_finish(&m2)
    })
}

/// `P1` side: run the refresh protocol (with completion) over `transport`.
pub fn p1_refresh<E: Pairing, R: RngCore + ?Sized>(
    p1: &mut Party1<E>,
    transport: &mut dyn Transport,
    rng: &mut R,
) -> Result<(), CoreError> {
    dlr_metrics::span("refresh", || {
        let m1 = p1.ref_start(rng);
        let body = call(transport, RequestTag::Refresh, &m1.to_bytes())?;
        let m2 = RefMsg2::<E>::from_bytes(&body, &p1.public_key().params)?;
        p1.ref_finish(&m2)?;
        p1.ref_complete()
    })
}

/// `P1` side: tell `P2`'s serve loop to exit.
pub fn p1_shutdown(transport: &mut dyn Transport) -> Result<(), CoreError> {
    transport.send(frame(RequestTag::Shutdown, &[]))?;
    Ok(())
}

/// Capped exponential backoff policy for [`p1_decrypt_with_retry`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `0` is treated as `1`.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Seed decorrelating the jittered schedule across clients. Clients
    /// that share a seed (and a failure) retry in lockstep and re-collide
    /// on a [`ErrorCode::Busy`] server — give each client its own seed.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

/// SplitMix64 — cheap, well-mixed, and dependency-free; used only to
/// spread retry delays, never for anything cryptographic.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The undithered delay preceding retry number `retry` (0-based):
    /// `base · 2^retry` capped at `max_delay`.
    pub fn backoff_delay(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_delay
            .checked_mul(factor)
            .map_or(self.max_delay, |d| d.min(self.max_delay))
    }

    /// The delay [`p1_decrypt_with_retry`] actually sleeps: the capped
    /// exponential [`backoff_delay`](Self::backoff_delay) dithered into
    /// `[d/2, d]` by a deterministic hash of `(jitter_seed, retry)`.
    /// Equal-half jitter keeps the expected schedule exponential while
    /// spreading concurrent clients (distinct seeds) apart so a burst of
    /// [`ErrorCode::Busy`] replies does not re-collide on every retry.
    pub fn backoff_delay_jittered(&self, retry: u32) -> Duration {
        let d = self.backoff_delay(retry);
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        if nanos < 2 {
            return d;
        }
        let half = nanos / 2;
        let h = splitmix64(self.jitter_seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ u64::from(retry));
        Duration::from_nanos(half + h % (nanos - half + 1))
    }
}

/// Whether a failed attempt is worth retrying on a fresh connection:
/// transport-level failures (stall, disconnect, I/O) and server
/// backpressure ([`ErrorCode::Busy`]). Protocol violations and stale
/// generations are not — the caller must re-sync its share first.
pub fn is_retryable(err: &CoreError) -> bool {
    match err {
        CoreError::Transport(
            TransportError::TimedOut | TransportError::Disconnected | TransportError::Io(_),
        ) => true,
        CoreError::Remote { code, .. } => *code == ErrorCode::Busy as u8,
        _ => false,
    }
}

/// `P1` side: run the decryption protocol with client-side retry.
///
/// `connect` opens a fresh session (connection + optional hello) per
/// attempt. Attempts failing with a retryable error ([`is_retryable`])
/// back off exponentially per `policy`; the first non-retryable error is
/// returned immediately.
pub fn p1_decrypt_with_retry<E: Pairing, R: RngCore + ?Sized>(
    p1: &mut Party1<E>,
    ct: &Ciphertext<E>,
    connect: &mut dyn FnMut() -> Result<Box<dyn Transport>, CoreError>,
    policy: &RetryPolicy,
    rng: &mut R,
) -> Result<E::Gt, CoreError> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(policy.backoff_delay_jittered(attempt - 1));
        }
        let mut transport = match connect() {
            Ok(t) => t,
            Err(e) if is_retryable(&e) => {
                last_err = Some(e);
                continue;
            }
            Err(e) => return Err(e),
        };
        match p1_decrypt(p1, ct, transport.as_mut(), rng) {
            Ok(m) => return Ok(m),
            Err(e) if is_retryable(&e) => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last_err.unwrap_or(CoreError::Protocol("retry budget exhausted")))
}

/// Topology-aware client-side router for a key-sharded fleet.
///
/// Routes each key id to the replica that owns it (per
/// [`TopologyMsg::owner_index`]), keeping a per-key route cache on top of
/// the computed owner. A [`ErrorCode::NotMine`] reply carries the owning
/// replica's address in its detail field: the router counts it as a
/// *redirect*, replaces the cached route with the hint, and re-routes
/// immediately (no backoff — a redirect is information, not a failure).
/// Transport-level failures and [`ErrorCode::Busy`] count as *failovers*:
/// the cached route is invalidated (falling back to the computed owner,
/// which is where a restarted replica reappears) and the attempt backs
/// off under the [`RetryPolicy`]'s jittered schedule.
/// A connector opening a raw transport to one replica address, as taken
/// by [`Router::open`] / [`Router::decrypt`].
pub type Connector<'a> = dyn FnMut(&str) -> Result<Box<dyn Transport>, CoreError> + 'a;

#[derive(Debug)]
pub struct Router {
    topology: TopologyMsg,
    /// Retry schedule for routed operations.
    pub policy: RetryPolicy,
    cache: std::collections::BTreeMap<Vec<u8>, String>,
    redirects: u64,
    failovers: u64,
}

impl Router {
    /// Build a router over a fetched (or locally constructed) topology.
    pub fn new(topology: TopologyMsg, policy: RetryPolicy) -> Self {
        Self {
            topology,
            policy,
            cache: std::collections::BTreeMap::new(),
            redirects: 0,
            failovers: 0,
        }
    }

    /// Fetch the topology from a seed replica and build a router on it.
    pub fn from_seed(
        transport: &mut dyn Transport,
        policy: RetryPolicy,
    ) -> Result<Self, CoreError> {
        Ok(Self::new(p1_fetch_topology(transport)?, policy))
    }

    /// The topology this router routes over.
    pub fn topology(&self) -> &TopologyMsg {
        &self.topology
    }

    /// NotMine redirects followed so far.
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Failed routed attempts that invalidated a route and retried.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// The address the next attempt for `key_id` goes to: the cached
    /// route if one exists, else the computed owner.
    pub fn route(&self, key_id: &[u8]) -> Result<&str, CoreError> {
        if let Some(addr) = self.cache.get(key_id) {
            return Ok(addr.as_str());
        }
        self.topology
            .owner_addr(key_id)
            .ok_or(CoreError::Protocol("empty fleet topology"))
    }

    /// Seed the route cache (e.g. from a stale topology) — exercised by
    /// the fleet loadgen to force the redirect path deterministically.
    pub fn seed_route(&mut self, key_id: &[u8], addr: &str) {
        self.cache.insert(key_id.to_vec(), addr.to_string());
    }

    /// Record a [`ErrorCode::NotMine`] redirect: the stale cached route is
    /// replaced by the owner hint.
    pub fn note_redirect(&mut self, key_id: &[u8], owner_hint: &str) {
        self.redirects += 1;
        self.cache.insert(key_id.to_vec(), owner_hint.to_string());
    }

    /// Record a routed-attempt failure: the cached route is dropped so the
    /// next attempt falls back to the computed owner.
    pub fn note_failure(&mut self, key_id: &[u8]) {
        self.failovers += 1;
        self.cache.remove(key_id);
    }

    /// Open a routed session for `key_id`: connect to its route, hello,
    /// and follow [`ErrorCode::NotMine`] hints / retry failures per the
    /// policy. Returns the live transport and the server's generation.
    ///
    /// `connect` opens a raw connection to one replica address.
    pub fn open(
        &mut self,
        key_id: &[u8],
        generation: u64,
        connect: &mut Connector<'_>,
    ) -> Result<(Box<dyn Transport>, u64), CoreError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff_delay_jittered(attempt - 1));
            }
            // Follow NotMine hints within the attempt, without sleeping;
            // bounded by fleet size so a cyclic hint chain cannot spin.
            let mut hops = 0usize;
            loop {
                let addr = self.route(key_id)?.to_string();
                let mut transport = match connect(&addr) {
                    Ok(t) => t,
                    Err(e) if is_retryable(&e) => {
                        self.note_failure(key_id);
                        last_err = Some(e);
                        break;
                    }
                    Err(e) => return Err(e),
                };
                match p1_hello(transport.as_mut(), key_id, generation) {
                    Ok(server_generation) => {
                        self.cache.insert(key_id.to_vec(), addr);
                        return Ok((transport, server_generation));
                    }
                    Err(CoreError::Remote { code, message })
                        if code == ErrorCode::NotMine as u8 =>
                    {
                        hops += 1;
                        if hops > self.topology.replicas.len().max(1) {
                            return Err(CoreError::Protocol("NotMine hint cycle"));
                        }
                        self.note_redirect(key_id, &message);
                    }
                    Err(e) if is_retryable(&e) => {
                        self.note_failure(key_id);
                        last_err = Some(e);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(last_err.unwrap_or(CoreError::Protocol("retry budget exhausted")))
    }

    /// Run one routed decryption: open a session for `key_id` (following
    /// redirects), then run the decrypt protocol, retrying on transport
    /// failures with the policy's jittered backoff.
    pub fn decrypt<E: Pairing, R: RngCore + ?Sized>(
        &mut self,
        p1: &mut Party1<E>,
        ct: &Ciphertext<E>,
        key_id: &[u8],
        connect: &mut Connector<'_>,
        rng: &mut R,
    ) -> Result<E::Gt, CoreError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff_delay_jittered(attempt - 1));
            }
            let (mut transport, _gen) = match self.open(key_id, GENERATION_ANY, connect) {
                Ok(session) => session,
                Err(e) if is_retryable(&e) => {
                    last_err = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            match p1_decrypt(p1, ct, transport.as_mut(), rng) {
                Ok(m) => return Ok(m),
                Err(CoreError::Remote { code, message }) if code == ErrorCode::NotMine as u8 => {
                    // Ownership moved mid-session; adopt the hint and retry.
                    self.note_redirect(key_id, &message);
                    last_err = Some(CoreError::Remote { code, message });
                }
                Err(e) if is_retryable(&e) => {
                    self.note_failure(key_id);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(CoreError::Protocol("retry budget exhausted")))
    }
}

/// `P2` side: handle one already-received request frame against a single
/// [`Party2`].
///
/// This is the transport-free per-request core shared by [`p2_serve_one`],
/// [`p2_serve_loop`] and the `dlr-server` session workers. Returns the tag
/// plus the reply body to send (`None` for [`RequestTag::Shutdown`], which
/// has no reply). Hello frames are acknowledged with `generation` —
/// multi-key callers resolve the key and check the binding *before*
/// delegating here.
pub fn p2_handle_frame<E: Pairing, R: RngCore + ?Sized>(
    p2: &mut Party2<E>,
    generation: u64,
    req: &[u8],
    rng: &mut R,
) -> Result<(RequestTag, Option<Vec<u8>>), CoreError> {
    if req.is_empty() {
        return Err(CoreError::Protocol("empty frame"));
    }
    let tag = RequestTag::from_u8(req[0]).ok_or(CoreError::Protocol("unknown request tag"))?;
    let body = &req[1..];
    let reply = match tag {
        RequestTag::Decrypt => {
            let m1 = DecMsg1::<E>::from_bytes(body, &p2.public_key().params)?;
            let m2 = p2.dec_respond(&m1)?;
            Some(m2.to_bytes())
        }
        RequestTag::Refresh => {
            let m1 = RefMsg1::<E>::from_bytes(body, &p2.public_key().params)?;
            let m2 = p2.ref_respond(&m1, rng)?;
            p2.ref_complete()?;
            Some(m2.to_bytes())
        }
        RequestTag::Hello => {
            let _hello = HelloMsg::from_bytes(body)?;
            let mut enc = Encoder::new();
            enc.put_u64(generation);
            Some(enc.finish())
        }
        RequestTag::Topology => {
            // Single-key endpoints have no fleet to describe; the server
            // crate answers this tag before delegating here.
            return Err(CoreError::Protocol("no topology at this endpoint"));
        }
        RequestTag::Shutdown => None,
    };
    Ok((tag, reply))
}

/// `P2` side: handle a batch of already-received **Decrypt** request
/// bodies (tag byte stripped) against a single [`Party2`] — the
/// driver-visible grouping behind the server's cross-request batch
/// executor (DESIGN.md §5).
///
/// Each body is parsed independently, the parse survivors run through
/// [`Party2::dec_respond_batch`] (the inline [`Party2::dec_respond`] per
/// request, so identical spans, operation counts and engine), and reply
/// bodies come back in input order. A malformed or length-mismatched
/// request fails **alone**: its siblings still produce `ok` reply bodies,
/// exactly as if each had been served by [`p2_handle_frame`] in sequence.
pub fn p2_handle_decrypt_batch<E: Pairing>(
    p2: &mut Party2<E>,
    bodies: &[&[u8]],
) -> Vec<Result<Vec<u8>, CoreError>> {
    let parsed: Vec<Result<DecMsg1<E>, CoreError>> = bodies
        .iter()
        .map(|body| DecMsg1::<E>::from_bytes(body, &p2.public_key().params))
        .collect();
    let good: Vec<&DecMsg1<E>> = parsed.iter().filter_map(|p| p.as_ref().ok()).collect();
    let mut responses = p2.dec_respond_batch(&good).into_iter();
    parsed
        .into_iter()
        .map(|p| match p {
            Ok(_) => responses
                .next()
                .expect("one batch response per parsed request")
                .map(|m2| m2.to_bytes()),
            Err(e) => Err(e),
        })
        .collect()
}

/// `P2` side: serve exactly one request. Returns the tag served.
///
/// A handling failure is answered with a structured error reply (best
/// effort) before the error is returned to the caller.
pub fn p2_serve_one<E: Pairing, R: RngCore + ?Sized>(
    p2: &mut Party2<E>,
    transport: &mut dyn Transport,
    rng: &mut R,
) -> Result<RequestTag, CoreError> {
    let req = transport.recv()?;
    match p2_handle_frame(p2, 0, &req, rng) {
        Ok((tag, Some(body))) => {
            transport.send(ok_reply(&body))?;
            Ok(tag)
        }
        Ok((tag, None)) => Ok(tag),
        Err(e) => {
            let _ = transport.send(error_reply_for(&e));
            Err(e)
        }
    }
}

/// `P2` side: serve requests until a shutdown tag arrives.
///
/// Malformed requests (codec/protocol errors) are answered with a
/// structured error reply and the loop keeps serving — a garbage frame
/// costs one reply, not the session. Transport failures end the loop.
pub fn p2_serve_loop<E: Pairing, R: RngCore + ?Sized>(
    p2: &mut Party2<E>,
    transport: &mut dyn Transport,
    rng: &mut R,
) -> Result<usize, CoreError> {
    let mut served = 0usize;
    loop {
        let req = transport.recv()?;
        match p2_handle_frame(p2, 0, &req, rng) {
            Ok((RequestTag::Shutdown, _)) => return Ok(served),
            Ok((_, Some(body))) => {
                transport.send(ok_reply(&body))?;
                served += 1;
            }
            Ok((_, None)) => served += 1,
            Err(e @ CoreError::Transport(_)) => return Err(e),
            Err(e) => transport.send(error_reply_for(&e))?,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlr;
    use crate::params::SchemeParams;
    use dlr_curve::{Group, Toy};
    use dlr_protocol::runtime::run_pair;
    use rand::SeedableRng;

    type E = Toy;

    fn keys(seed: u64) -> (dlr::PublicKey<E>, dlr::Share1<E>, dlr::Share2<E>) {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let params = SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64);
        dlr::keygen::<E, _>(params, &mut r)
    }

    #[test]
    fn full_session_over_channel() {
        let mut r = rand::rngs::StdRng::seed_from_u64(9);
        let (pk, s1, s2) = keys(9);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = dlr::encrypt(&pk, &m, &mut r);

        let mut p1 = Party1::new(pk.clone(), s1);
        let mut p2 = Party2::new(pk.clone(), s2);
        let ct2 = ct;

        let out = run_pair(
            move |t| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(10);
                assert_eq!(p1_hello(t, b"default", GENERATION_ANY).unwrap(), 0);
                let m1 = p1_decrypt(&mut p1, &ct2, t, &mut rng).unwrap();
                p1_refresh(&mut p1, t, &mut rng).unwrap();
                let m2 = p1_decrypt(&mut p1, &ct2, t, &mut rng).unwrap();
                p1_shutdown(t).unwrap();
                (m1, m2)
            },
            move |t| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(11);
                p2_serve_loop(&mut p2, t, &mut rng).unwrap()
            },
        );
        assert_eq!(out.p1 .0, m);
        assert_eq!(out.p1 .1, m);
        assert_eq!(out.p2, 4); // hello + dec + ref + dec
        // the transcript is non-trivial and public
        assert!(dlr_protocol::transport::transcript_bytes(&out.transcript) > 1000);
    }

    #[test]
    fn unknown_tag_rejected_with_error_reply() {
        let mut r = rand::rngs::StdRng::seed_from_u64(12);
        let (pk, _s1, s2) = keys(12);
        let mut p2 = Party2::new(pk, s2);
        let (mut a, mut b) = dlr_protocol::duplex();
        a.send(Bytes::from_static(&[99, 1, 2])).unwrap();
        assert!(p2_serve_one(&mut p2, &mut b, &mut r).is_err());
        // the peer got a structured error, not a dropped connection
        let reply = a.recv().unwrap();
        let err = parse_reply(&reply).unwrap_err();
        match err {
            CoreError::Remote { code, .. } => {
                assert_eq!(code, ErrorCode::UnknownTag as u8);
            }
            other => panic!("expected Remote error, got {other}"),
        }
    }

    #[test]
    fn serve_loop_survives_garbage_frames() {
        let mut r = rand::rngs::StdRng::seed_from_u64(13);
        let (pk, s1, s2) = keys(13);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = dlr::encrypt(&pk, &m, &mut r);
        let mut p1 = Party1::new(pk.clone(), s1);
        let mut p2 = Party2::new(pk.clone(), s2);

        let out = run_pair(
            move |t| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(14);
                // garbage tag
                t.send(Bytes::from_static(&[99, 1, 2])).unwrap();
                assert!(matches!(
                    parse_reply(&t.recv().unwrap()),
                    Err(CoreError::Remote { .. })
                ));
                // truncated decrypt body
                t.send(Bytes::from_static(&[RequestTag::Decrypt as u8, 0, 0]))
                    .unwrap();
                assert!(matches!(
                    parse_reply(&t.recv().unwrap()),
                    Err(CoreError::Remote { .. })
                ));
                // the session still works afterwards
                let got = p1_decrypt(&mut p1, &ct, t, &mut rng).unwrap();
                p1_shutdown(t).unwrap();
                got
            },
            move |t| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(15);
                p2_serve_loop(&mut p2, t, &mut rng).unwrap()
            },
        );
        assert_eq!(out.p1, m);
        assert_eq!(out.p2, 1); // only the valid decrypt counts
    }

    #[test]
    fn hello_roundtrip_and_version_check() {
        let hello = HelloMsg {
            version: WIRE_VERSION,
            key_id: b"tenant-7".to_vec(),
            generation: 42,
        };
        let parsed = HelloMsg::from_bytes(&hello.to_bytes()).unwrap();
        assert_eq!(parsed, hello);

        let mut bad = hello.to_bytes();
        bad[0] = 99; // future version
        assert!(HelloMsg::from_bytes(&bad).is_err());
    }

    #[test]
    fn reply_frames_roundtrip() {
        assert_eq!(parse_reply(&ok_reply(b"payload")).unwrap(), b"payload");
        let err = parse_reply(&error_reply(ErrorCode::Busy, "full up")).unwrap_err();
        match err {
            CoreError::Remote { code, message } => {
                assert_eq!(code, ErrorCode::Busy as u8);
                assert_eq!(message, "full up");
            }
            other => panic!("expected Remote, got {other}"),
        }
        assert!(parse_reply(&[]).is_err());
        assert!(parse_reply(&[7, 7]).is_err());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(55),
            jitter_seed: 0,
        };
        assert_eq!(policy.backoff_delay(0), Duration::from_millis(10));
        assert_eq!(policy.backoff_delay(1), Duration::from_millis(20));
        assert_eq!(policy.backoff_delay(2), Duration::from_millis(40));
        assert_eq!(policy.backoff_delay(3), Duration::from_millis(55));
        assert_eq!(policy.backoff_delay(31), Duration::from_millis(55));
        assert_eq!(policy.backoff_delay(32), Duration::from_millis(55));
    }

    #[test]
    fn jittered_backoff_stays_within_half_to_full_envelope() {
        for seed in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
            let policy = RetryPolicy {
                max_attempts: 8,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(640),
                jitter_seed: seed,
            };
            for retry in 0..8 {
                let d = policy.backoff_delay(retry);
                let j = policy.backoff_delay_jittered(retry);
                assert!(j >= d / 2, "seed {seed} retry {retry}: {j:?} < {:?}", d / 2);
                assert!(j <= d, "seed {seed} retry {retry}: {j:?} > {d:?}");
                // deterministic: same (seed, retry) → same delay
                assert_eq!(j, policy.backoff_delay_jittered(retry));
            }
        }
    }

    #[test]
    fn jitter_decorrelates_distinct_seeds() {
        let mk = |seed| RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            jitter_seed: seed,
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            (0..6).map(|r| mk(seed).backoff_delay_jittered(r)).collect()
        };
        // Any pair of distinct seeds must disagree somewhere — lockstep
        // retries are exactly what the jitter exists to break.
        let seeds = [0u64, 1, 2, 3, 99];
        for (i, &a) in seeds.iter().enumerate() {
            for &b in &seeds[i + 1..] {
                assert_ne!(schedule(a), schedule(b), "seeds {a} and {b} in lockstep");
            }
        }
        // zero delays pass through untouched
        let zero = RetryPolicy {
            base_delay: Duration::ZERO,
            ..mk(5)
        };
        assert_eq!(zero.backoff_delay_jittered(0), Duration::ZERO);
    }

    #[test]
    fn error_code_space_round_trips_exhaustively() {
        // Compile-time exhaustiveness: adding an ErrorCode variant breaks
        // this match until the wire byte (and ALL) are updated.
        fn wire_byte(c: ErrorCode) -> u8 {
            match c {
                ErrorCode::BadRequest => 1,
                ErrorCode::UnknownTag => 2,
                ErrorCode::UnknownKey => 3,
                ErrorCode::StaleGeneration => 4,
                ErrorCode::Busy => 5,
                ErrorCode::Internal => 6,
                ErrorCode::NotMine => 7,
            }
        }
        let bytes: std::collections::BTreeSet<u8> =
            ErrorCode::ALL.iter().map(|&c| c as u8).collect();
        assert_eq!(bytes.len(), ErrorCode::ALL.len(), "duplicate wire byte");
        for &code in &ErrorCode::ALL {
            assert_eq!(wire_byte(code), code as u8);
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
            // and the full error frame round-trips through the codec
            match parse_reply(&error_reply(code, "detail")).unwrap_err() {
                CoreError::Remote { code: c, message } => {
                    assert_eq!(c, code as u8);
                    assert_eq!(message, "detail");
                }
                other => panic!("expected Remote, got {other}"),
            }
        }
        for v in 0..=255u8 {
            assert_eq!(
                ErrorCode::from_u8(v).is_some(),
                bytes.contains(&v),
                "byte {v} decodes inconsistently with ErrorCode::ALL"
            );
        }
    }

    #[test]
    fn request_tag_space_round_trips_exhaustively() {
        fn wire_byte(t: RequestTag) -> u8 {
            match t {
                RequestTag::Decrypt => 1,
                RequestTag::Refresh => 2,
                RequestTag::Shutdown => 3,
                RequestTag::Hello => 4,
                RequestTag::Topology => 5,
            }
        }
        let bytes: std::collections::BTreeSet<u8> =
            RequestTag::ALL.iter().map(|&t| t as u8).collect();
        assert_eq!(bytes.len(), RequestTag::ALL.len(), "duplicate wire byte");
        for &tag in &RequestTag::ALL {
            assert_eq!(wire_byte(tag), tag as u8);
            assert_eq!(RequestTag::from_u8(tag as u8), Some(tag));
        }
        for v in 0..=255u8 {
            assert_eq!(
                RequestTag::from_u8(v).is_some(),
                bytes.contains(&v),
                "byte {v} decodes inconsistently with RequestTag::ALL"
            );
        }
    }

    #[test]
    fn topology_msg_round_trips_and_maps_owners() {
        let topo = TopologyMsg {
            version: WIRE_VERSION,
            replicas: vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()],
        };
        let parsed = TopologyMsg::from_bytes(&topo.to_bytes()).unwrap();
        assert_eq!(parsed, topo);

        // ownership agrees with the canonical placement
        for id in [b"alpha".as_slice(), b"beta", b"key-17"] {
            let (owner, _) = dlr_protocol::place(id, 2, 1);
            assert_eq!(topo.owner_index(id), Some(owner));
            assert_eq!(topo.owner_addr(id), Some(topo.replicas[owner].as_str()));
        }

        let empty = TopologyMsg {
            version: WIRE_VERSION,
            replicas: vec![],
        };
        assert_eq!(empty.owner_index(b"x"), None);

        let mut bad = topo.to_bytes();
        bad[0] = 99; // future version
        assert!(TopologyMsg::from_bytes(&bad).is_err());
    }

    /// One-shot scripted replica: a thread that answers every received
    /// frame with a fixed reply. Returns the client transport endpoint.
    fn scripted_replica(reply: Bytes) -> Box<dyn Transport> {
        let (a, mut b) = dlr_protocol::duplex();
        std::thread::spawn(move || {
            while b.recv().is_ok() {
                if b.send(reply.clone()).is_err() {
                    break;
                }
            }
        });
        Box::new(a)
    }

    fn hello_ok_reply(generation: u64) -> Bytes {
        let mut enc = Encoder::new();
        enc.put_u64(generation);
        ok_reply(&enc.finish())
    }

    #[test]
    fn router_follows_not_mine_hint_and_updates_cache() {
        let topo = TopologyMsg {
            version: WIRE_VERSION,
            replicas: vec!["replica-a".into(), "replica-b".into()],
        };
        let mut router = Router::new(topo, RetryPolicy::default());
        // A stale cached route points at replica-a, which does not own
        // the key and answers NotMine with the owner hint.
        router.seed_route(b"k", "replica-a");
        let (_t, generation) = router
            .open(b"k", GENERATION_ANY, &mut |addr| {
                Ok(match addr {
                    "replica-a" => scripted_replica(error_reply(ErrorCode::NotMine, "replica-b")),
                    "replica-b" => scripted_replica(hello_ok_reply(3)),
                    other => panic!("unexpected route {other}"),
                })
            })
            .unwrap();
        assert_eq!(generation, 3);
        assert_eq!(router.redirects(), 1);
        assert_eq!(router.failovers(), 0);
        // the redirect invalidated the stale cache entry in favor of the hint
        assert_eq!(router.route(b"k").unwrap(), "replica-b");
    }

    #[test]
    fn router_fails_over_to_computed_owner_after_connect_failure() {
        let topo = TopologyMsg {
            version: WIRE_VERSION,
            replicas: vec!["replica-a".into(), "replica-b".into()],
        };
        let owner = topo.owner_addr(b"k").unwrap().to_string();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter_seed: 1,
        };
        let mut router = Router::new(topo, policy);
        let mut connects = 0u32;
        let (_t, generation) = router
            .open(b"k", GENERATION_ANY, &mut |addr| {
                assert_eq!(addr, owner);
                connects += 1;
                if connects == 1 {
                    // replica down: transport-level failure, retryable
                    Err(CoreError::Transport(TransportError::Disconnected))
                } else {
                    Ok(scripted_replica(hello_ok_reply(0)))
                }
            })
            .unwrap();
        assert_eq!(generation, 0);
        assert_eq!(connects, 2);
        assert_eq!(router.failovers(), 1);
        assert_eq!(router.redirects(), 0);
    }

    #[test]
    fn router_detects_hint_cycles() {
        let topo = TopologyMsg {
            version: WIRE_VERSION,
            replicas: vec!["replica-a".into(), "replica-b".into()],
        };
        let mut router = Router::new(topo, RetryPolicy::default());
        // Both replicas disown the key and point at each other.
        let result = router.open(b"k", GENERATION_ANY, &mut |addr| {
            let hint = if addr == "replica-a" {
                "replica-b"
            } else {
                "replica-a"
            };
            Ok(scripted_replica(error_reply(ErrorCode::NotMine, hint)))
        });
        assert!(matches!(
            result,
            Err(CoreError::Protocol("NotMine hint cycle"))
        ));
    }

    #[test]
    fn retry_gives_up_on_non_retryable() {
        let mut r = rand::rngs::StdRng::seed_from_u64(16);
        let (pk, s1, _s2) = keys(16);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = dlr::encrypt(&pk, &m, &mut r);
        let mut p1 = Party1::new(pk, s1);
        let mut calls = 0u32;
        let result = p1_decrypt_with_retry(
            &mut p1,
            &ct,
            &mut || {
                calls += 1;
                Err(CoreError::Protocol("refused"))
            },
            &RetryPolicy::default(),
            &mut r,
        );
        assert!(result.is_err());
        assert_eq!(calls, 1, "non-retryable connect error must not retry");
    }

    #[test]
    fn retry_exhausts_on_transport_failure() {
        let mut r = rand::rngs::StdRng::seed_from_u64(17);
        let (pk, s1, _s2) = keys(17);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = dlr::encrypt(&pk, &m, &mut r);
        let mut p1 = Party1::new(pk, s1);
        let mut calls = 0u32;
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter_seed: 0,
        };
        let result = p1_decrypt_with_retry(
            &mut p1,
            &ct,
            &mut || {
                calls += 1;
                // a transport that immediately hangs up
                let (a, _b) = dlr_protocol::duplex();
                Ok(Box::new(a) as Box<dyn Transport>)
            },
            &policy,
            &mut r,
        );
        assert!(matches!(result, Err(CoreError::Transport(_))));
        assert_eq!(calls, 3, "every attempt consumed");
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let mut r = rand::rngs::StdRng::seed_from_u64(18);
        let (pk, s1, s2) = keys(18);
        let m = <E as Pairing>::Gt::random(&mut r);
        let ct = dlr::encrypt(&pk, &m, &mut r);
        let mut p1 = Party1::new(pk.clone(), s1);

        // Flaky "connector": fails twice, then hands out a live duplex
        // endpoint backed by a serving thread.
        let mut calls = 0u32;
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter_seed: 0,
        };
        let mut server: Option<std::thread::JoinHandle<()>> = None;
        let got = p1_decrypt_with_retry(
            &mut p1,
            &ct,
            &mut || {
                calls += 1;
                if calls <= 2 {
                    let (a, _b) = dlr_protocol::duplex();
                    return Ok(Box::new(a) as Box<dyn Transport>);
                }
                let (a, mut b) = dlr_protocol::duplex();
                let pk = pk.clone();
                let s2 = s2.clone();
                server = Some(std::thread::spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
                    let mut p2 = Party2::new(pk, s2);
                    let _ = p2_serve_loop(&mut p2, &mut b, &mut rng);
                }));
                Ok(Box::new(a) as Box<dyn Transport>)
            },
            &policy,
            &mut r,
        )
        .unwrap();
        assert_eq!(got, m);
        assert_eq!(calls, 3);
        if let Some(handle) = server {
            // the client endpoint is dropped, so the serve loop exits
            handle.join().unwrap();
        }
    }
}
