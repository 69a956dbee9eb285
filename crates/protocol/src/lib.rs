//! # dlr-protocol — two-party protocol runtime with an explicit memory model
//!
//! The "distributed" substrate of the DLR workspace:
//!
//! * [`wire`] — hand-rolled, byte-exact message codec (the transcript is
//!   adversary-visible, so its format is explicit);
//! * [`transport`] — in-memory and TCP duplex channels, plus transcript
//!   recording (`comm^t` of the security game);
//! * [`memory`] — the §3.2 device model: public memory (fully visible) vs
//!   secret memory (visible only through shrinking leakage functions), with
//!   volatile erasure semantics;
//! * [`runtime`] — drives both protocol roles over real transports.
//!
//! ## Trust model
//!
//! Per the paper (§3.1), the two devices **trust each other** to follow the
//! protocols honestly; the adversary's power is continual memory leakage
//! plus full view of the public channel — not malicious parties. Decoders
//! therefore validate well-formedness (so a corrupted channel cannot cause
//! memory-unsafety or panics) but protocol logic does not defend against a
//! Byzantine peer.
//!
//! ## Reply status bytes and the error-code space
//!
//! Every reply frame of the request/reply protocol built on this codec
//! (`dlr_core::driver`) opens with one status byte: `0x00` (`REPLY_OK`,
//! success body follows) or `0xFF` (`REPLY_ERR`, a structured error frame
//! follows). An error frame is `code: u8` + length-prefixed UTF-8 detail.
//! The code space is closed and versioned with the wire protocol:
//!
//! | byte | code | retryable? |
//! |------|------|------------|
//! | 1 | `BadRequest` — body failed to decode/validate | no |
//! | 2 | `UnknownTag` — request tag byte unassigned | no |
//! | 3 | `UnknownKey` — key id held by no replica | no |
//! | 4 | `StaleGeneration` — session outdated by a refresh | after re-hello |
//! | 5 | `Busy` — server at its session limit | after jittered backoff |
//! | 6 | `Internal` — server-side failure | at most once |
//! | 7 | `NotMine` — key owned by another replica; detail carries the owner address hint | re-route, then retry |
//!
//! The enum itself (`dlr_core::driver::ErrorCode`) carries an `ALL` table
//! and an exhaustive round-trip test, so a code added without updating the
//! table fails the build, not just the docs.

pub mod memory;
pub mod runtime;
pub mod transport;
pub mod wire;

pub use memory::{Device, PublicMemory, SecretMemory, SecretView};
pub use runtime::{run_pair, RunOutput};
pub use transport::{duplex, FrameReader, FrameWriter, Transport, TransportError, WireStats};
pub use wire::{CodecError, Decoder, Encoder};

/// The owner of a key: `(replica, worker)` for a fleet of `replicas`
/// servers with `workers` event loops each.
///
/// The one key → owner function of the workspace. The paper's leakage
/// periods are per key (Def. 3.1), so each key's `P2` share lives on
/// exactly one replica and one worker loop, where its refresh serialises
/// against its own decrypts; the client-side router, the fleet supervisor
/// and the server's worker map all ask this function. FNV-1a over the id
/// bytes gives `h`; the replica is `h % replicas` and the worker
/// `(h / replicas) % workers`, so the two are independent and every
/// worker of every replica receives keys. Stable across runs and
/// platforms. A count of `0` is treated as `1`.
pub fn place(key_id: &[u8], replicas: usize, workers: usize) -> (usize, usize) {
    let h = fnv1a(key_id);
    let (replicas, workers) = (replicas.max(1) as u64, workers.max(1) as u64);
    ((h % replicas) as usize, (h / replicas % workers) as usize)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_covers_every_owner_and_keeps_the_replica_ring() {
        let ids: Vec<Vec<u8>> = (0..256).map(|i| format!("key-{i}").into_bytes()).collect();
        for replicas in 1..=4 {
            for workers in 1..=4 {
                let mut owned = vec![vec![0u32; workers]; replicas];
                for id in &ids {
                    let (r, w) = place(id, replicas, workers);
                    assert_eq!(r as u64, fnv1a(id) % replicas as u64);
                    assert_eq!(place(id, replicas, workers), (r, w), "deterministic");
                    owned[r][w] += 1;
                }
                for (r, row) in owned.iter().enumerate() {
                    for (w, &n) in row.iter().enumerate() {
                        assert!(n > 0, "R={replicas} W={workers}: ({r},{w}) owns no id");
                    }
                }
            }
        }
        assert_eq!(place(b"anything", 0, 0), (0, 0));
    }
}
