//! Two-party protocol runner.
//!
//! Scheme protocols in `dlr-core` are written as explicit state machines
//! (`P1` produces a message, `P2` responds, `P1` finishes) so tests can
//! drive them deterministically. This module provides the glue to run both
//! roles over real [`Transport`]s in separate threads — exercising the wire
//! codec end to end and recording the public transcript.

use crate::transport::{
    duplex, new_transcript, RecordingTransport, Transcript, Transport, TransportError, WireStats,
};
use bytes::Bytes;

/// Outcome of a two-party run.
#[derive(Debug)]
pub struct RunOutput<A, B> {
    /// Value returned by the first party's closure.
    pub p1: A,
    /// Value returned by the second party's closure.
    pub p2: B,
    /// Transcript recorded at `P1`'s endpoint (sent/received from P1's
    /// perspective; the channel is public, so this *is* the full
    /// communication `comm^t`).
    pub transcript: Transcript,
    /// Wire-level statistics (frames, bytes, per-round latency) observed
    /// at `P1`'s endpoint.
    pub wire: WireStats,
}

/// Run two party closures concurrently over an in-memory duplex channel,
/// recording the transcript.
///
/// # Panics
///
/// Propagates panics from either party thread.
pub fn run_pair<A, B>(
    p1: impl FnOnce(&mut dyn Transport) -> A + Send,
    p2: impl FnOnce(&mut dyn Transport) -> B + Send,
) -> RunOutput<A, B>
where
    A: Send,
    B: Send,
{
    let (t1, mut t2) = duplex();
    let transcript = new_transcript();
    let mut rec1 = RecordingTransport::new(t1, transcript.clone());

    let (out1, out2) = std::thread::scope(|scope| {
        let h2 = scope.spawn(move || p2(&mut t2));
        let out1 = p1(&mut rec1);
        let out2 = h2.join().expect("party 2 panicked");
        (out1, out2)
    });

    let wire = rec1.wire_stats();
    RunOutput {
        p1: out1,
        p2: out2,
        transcript,
        wire,
    }
}

/// A simple request/response helper: send `msg`, then block for the reply.
pub fn call(t: &mut dyn Transport, msg: Bytes) -> Result<Bytes, TransportError> {
    t.send(msg)?;
    t.recv()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::transcript_bytes;

    #[test]
    fn run_pair_exchanges_messages() {
        let out = run_pair(
            |t| {
                let reply = call(t, Bytes::from_static(b"2+2?")).unwrap();
                reply.to_vec()
            },
            |t| {
                let q = t.recv().unwrap();
                assert_eq!(q, Bytes::from_static(b"2+2?"));
                t.send(Bytes::from_static(b"4")).unwrap();
                "served"
            },
        );
        assert_eq!(out.p1, b"4".to_vec());
        assert_eq!(out.p2, "served");
        assert_eq!(transcript_bytes(&out.transcript), 5);
    }

    #[test]
    fn multi_round_protocol() {
        let out = run_pair(
            |t| {
                let mut acc = Vec::new();
                for i in 0..3u8 {
                    let r = call(t, Bytes::from(vec![i])).unwrap();
                    acc.push(r[0]);
                }
                acc
            },
            |t| {
                for _ in 0..3 {
                    let q = t.recv().unwrap();
                    t.send(Bytes::from(vec![q[0] * 10])).unwrap();
                }
            },
        );
        assert_eq!(out.p1, vec![0, 10, 20]);
    }
}
