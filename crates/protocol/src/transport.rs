//! Transports for the two-party protocols.
//!
//! The paper's devices communicate over a **public channel**; anything sent
//! here is, by definition, visible to the adversary. The
//! [`RecordingTransport`] wrapper captures the transcript (`comm^t`) so the
//! security game can hand it to leakage functions as part of `pub^t`.

use bytes::Bytes;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Transport failure.
#[derive(Debug)]
pub enum TransportError {
    /// The peer hung up.
    Disconnected,
    /// A read or write deadline expired before the peer produced data.
    /// Distinct from [`TransportError::Disconnected`]: the connection is
    /// still open, the peer is merely stalled — callers may retry or give
    /// up without treating the stream as dead.
    TimedOut,
    /// Underlying I/O failure (TCP transport).
    Io(std::io::Error),
    /// Frame exceeded the sanity limit.
    FrameTooLarge(usize),
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::TimedOut => write!(f, "transport deadline expired"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            // Both kinds occur for expired socket deadlines depending on
            // platform: unix reports `WouldBlock`, windows `TimedOut`.
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                TransportError::TimedOut
            }
            // `read_exact` on a cleanly closed stream.
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => TransportError::Disconnected,
            _ => TransportError::Io(e),
        }
    }
}

/// Maximum frame size (64 MiB).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// A bidirectional, message-oriented channel endpoint.
pub trait Transport: Send {
    /// Send one message.
    fn send(&mut self, msg: Bytes) -> Result<(), TransportError>;
    /// Receive one message (blocking).
    fn recv(&mut self) -> Result<Bytes, TransportError>;
}

/// In-memory duplex endpoint: two `std::sync::mpsc` channels, one per
/// direction. Frames arrive in the order they were sent; once the peer
/// endpoint is dropped, `send` fails and `recv` fails after the frames
/// already queued are drained, both as [`TransportError::Disconnected`].
#[derive(Debug)]
pub struct InMemoryTransport {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
}

/// Create a connected pair of in-memory endpoints.
pub fn duplex() -> (InMemoryTransport, InMemoryTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        InMemoryTransport { tx: a_tx, rx: a_rx },
        InMemoryTransport { tx: b_tx, rx: b_rx },
    )
}

impl Transport for InMemoryTransport {
    fn send(&mut self, msg: Bytes) -> Result<(), TransportError> {
        self.tx.send(msg).map_err(|_| TransportError::Disconnected)
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }
}

/// Incremental decoder for `u32`-length-prefixed frames over any byte
/// stream, usable with nonblocking sockets.
///
/// [`FrameReader::poll_frame`] pulls bytes from the source until either a
/// complete frame is assembled (`Ok(Some(frame))`) or the source has no
/// more bytes right now (`Ok(None)` on `WouldBlock`/`TimedOut`), keeping
/// partial progress buffered across calls so the stream never desyncs.
/// Reads never pull past the end of the frame currently being assembled,
/// so with a level-triggered readiness poller any following frame stays in
/// the kernel buffer and keeps the socket reporting readable.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Bytes of the in-progress frame (length prefix + body) accumulated
    /// across `poll_frame` calls.
    partial: Vec<u8>,
}

impl FrameReader {
    /// A reader with no buffered partial frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when a frame has been started but not yet completed — useful
    /// for distinguishing an idle connection from one stalled mid-frame.
    pub fn is_mid_frame(&self) -> bool {
        !self.partial.is_empty()
    }

    /// Fill `self.partial` up to `target` bytes. `Ok(true)` when the
    /// target is reached, `Ok(false)` when the source would block first.
    fn fill_to(&mut self, src: &mut impl Read, target: usize) -> Result<bool, TransportError> {
        let mut scratch = [0u8; 8192];
        while self.partial.len() < target {
            let want = (target - self.partial.len()).min(scratch.len());
            let n = match src.read(&mut scratch[..want]) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e.into()),
            };
            self.partial.extend_from_slice(&scratch[..n]);
        }
        Ok(true)
    }

    /// Advance frame assembly as far as the source allows. Returns the
    /// completed frame, or `None` if the source ran dry mid-frame (retry
    /// when the source is readable again).
    pub fn poll_frame(&mut self, src: &mut impl Read) -> Result<Option<Bytes>, TransportError> {
        if !self.fill_to(src, 4)? {
            return Ok(None);
        }
        let len = u32::from_be_bytes(self.partial[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(TransportError::FrameTooLarge(len));
        }
        if !self.fill_to(src, 4 + len)? {
            return Ok(None);
        }
        let body = self.partial.split_off(4);
        self.partial.clear();
        Ok(Some(Bytes::from(body)))
    }
}

/// Incremental encoder for `u32`-length-prefixed frames over any byte
/// stream, usable with nonblocking sockets.
///
/// Frames are staged with [`FrameWriter::enqueue`] and drained with
/// [`FrameWriter::poll_flush`], which writes as much as the sink accepts
/// and reports whether the queue is empty — the nonblocking mirror of
/// `TcpTransport::send`'s `write_all`.
#[derive(Debug, Default)]
pub struct FrameWriter {
    /// Encoded-but-unwritten bytes; `pos` marks how far the sink got.
    buf: Vec<u8>,
    pos: usize,
}

impl FrameWriter {
    /// A writer with nothing queued.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage one frame (length prefix + body) for writing.
    pub fn enqueue(&mut self, msg: &Bytes) -> Result<(), TransportError> {
        if msg.len() > MAX_FRAME {
            return Err(TransportError::FrameTooLarge(msg.len()));
        }
        self.buf.extend_from_slice(&(msg.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(msg);
        Ok(())
    }

    /// True while staged bytes remain unwritten.
    pub fn has_pending(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Bytes staged but not yet accepted by the sink.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Write staged bytes until the queue drains (`Ok(true)`) or the sink
    /// would block (`Ok(false)`; retry when the sink is writable again).
    pub fn poll_flush(&mut self, dst: &mut impl Write) -> Result<bool, TransportError> {
        while self.pos < self.buf.len() {
            match dst.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// TCP endpoint with `u32`-length-prefixed frames.
///
/// Supports read deadlines ([`TcpTransport::set_read_timeout`]): a stalled
/// peer surfaces as [`TransportError::TimedOut`] instead of wedging the
/// caller forever. Partial frames are buffered internally (via
/// [`FrameReader`]), so a timed-out [`Transport::recv`] can safely be
/// retried — the stream never desyncs.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    reader: FrameReader,
}

impl TcpTransport {
    /// Wrap an established stream.
    pub fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            reader: FrameReader::new(),
        }
    }

    /// Set (or clear) the read deadline on the underlying socket. While a
    /// deadline is set, [`Transport::recv`] returns
    /// [`TransportError::TimedOut`] when no complete frame arrives in time;
    /// the call may be retried without losing stream position.
    pub fn set_read_timeout(
        &self,
        timeout: Option<std::time::Duration>,
    ) -> Result<(), TransportError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Enable/disable Nagle's algorithm. The protocols here are strict
    /// request/response ping-pong, so coalescing delays (40ms+ on some
    /// stacks) dominate round latency — servers and latency-sensitive
    /// clients should disable it.
    pub fn set_nodelay(&self, nodelay: bool) -> Result<(), TransportError> {
        self.stream.set_nodelay(nodelay)?;
        Ok(())
    }

    /// The peer's socket address.
    pub fn peer_addr(&self) -> Result<std::net::SocketAddr, TransportError> {
        Ok(self.stream.peer_addr()?)
    }

}

impl Transport for TcpTransport {
    fn send(&mut self, msg: Bytes) -> Result<(), TransportError> {
        if msg.len() > MAX_FRAME {
            return Err(TransportError::FrameTooLarge(msg.len()));
        }
        self.stream.write_all(&(msg.len() as u32).to_be_bytes())?;
        self.stream.write_all(&msg)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        // On a blocking socket `poll_frame` returning `None` means the
        // read deadline expired mid-frame; progress is preserved for a
        // retry, matching the historical resumable-timeout contract.
        match self.reader.poll_frame(&mut self.stream)? {
            Some(frame) => Ok(frame),
            None => Err(TransportError::TimedOut),
        }
    }
}

/// Direction of a recorded transcript entry, from the wrapped endpoint's
/// point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Message sent by this endpoint.
    Sent,
    /// Message received by this endpoint.
    Received,
}

/// Lock a transcript or statistics handle, recovering it if a holder
/// panicked: each holder only appends or bumps counters, so the value is
/// never left half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared, append-only record of everything that crossed the channel.
pub type Transcript = Arc<Mutex<Vec<(Direction, Bytes)>>>;

/// Create an empty shared transcript.
pub fn new_transcript() -> Transcript {
    Arc::new(Mutex::new(Vec::new()))
}

/// Total bytes currently recorded in a transcript.
pub fn transcript_bytes(t: &Transcript) -> usize {
    lock(t).iter().map(|(_, b)| b.len()).sum()
}

/// Flatten a transcript into a single byte string (leakage-function input).
pub fn transcript_flatten(t: &Transcript) -> Vec<u8> {
    let guard = lock(t);
    let mut out = Vec::new();
    for (dir, bytes) in guard.iter() {
        out.push(match dir {
            Direction::Sent => 0x01,
            Direction::Received => 0x02,
        });
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

/// Wire-level statistics observed at one endpoint of a protocol run.
///
/// Collected by [`RecordingTransport`] alongside the transcript and
/// surfaced through `RunOutput::wire` so benchmarks can report
/// communication cost without re-parsing the transcript.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Messages sent by this endpoint.
    pub frames_sent: u64,
    /// Messages received by this endpoint.
    pub frames_received: u64,
    /// Payload bytes sent (framing overhead excluded).
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Wall-clock latency of each send→receive round, in nanoseconds: the
    /// time from this endpoint's first send of a round until the reply
    /// that ends it arrives.
    pub round_latency_ns: Vec<u64>,
}

impl WireStats {
    /// Number of completed send→receive rounds.
    pub fn rounds(&self) -> u64 {
        self.round_latency_ns.len() as u64
    }

    /// Total payload bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Sum of all per-round latencies, in nanoseconds.
    pub fn total_latency_ns(&self) -> u64 {
        self.round_latency_ns.iter().sum()
    }

    /// Fold another endpoint-run's statistics into this one.
    pub fn merge(&mut self, other: &WireStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.round_latency_ns
            .extend_from_slice(&other.round_latency_ns);
    }
}

/// Shared handle to live wire statistics (one writer, any readers).
pub type WireStatsHandle = Arc<Mutex<WireStats>>;

/// Transport wrapper that appends every message to a [`Transcript`] and
/// accumulates [`WireStats`].
pub struct RecordingTransport<T: Transport> {
    inner: T,
    transcript: Transcript,
    stats: WireStatsHandle,
    /// Start of the current send→receive round (set on the first send
    /// after a receive, consumed by the next receive).
    round_start: Option<std::time::Instant>,
}

impl<T: Transport> RecordingTransport<T> {
    /// Wrap `inner`, recording into `transcript`.
    pub fn new(inner: T, transcript: Transcript) -> Self {
        Self {
            inner,
            transcript,
            stats: Arc::new(Mutex::new(WireStats::default())),
            round_start: None,
        }
    }

    /// The shared transcript handle.
    pub fn transcript(&self) -> Transcript {
        Arc::clone(&self.transcript)
    }

    /// Shared handle to the statistics collected so far (updates live as
    /// the wrapped transport is used).
    pub fn stats_handle(&self) -> WireStatsHandle {
        Arc::clone(&self.stats)
    }

    /// Snapshot of the statistics collected so far.
    pub fn wire_stats(&self) -> WireStats {
        lock(&self.stats).clone()
    }
}

impl<T: Transport> Transport for RecordingTransport<T> {
    fn send(&mut self, msg: Bytes) -> Result<(), TransportError> {
        lock(&self.transcript).push((Direction::Sent, msg.clone()));
        {
            let mut s = lock(&self.stats);
            s.frames_sent += 1;
            s.bytes_sent += msg.len() as u64;
        }
        if self.round_start.is_none() {
            self.round_start = Some(std::time::Instant::now());
        }
        self.inner.send(msg)
    }

    fn recv(&mut self) -> Result<Bytes, TransportError> {
        let msg = self.inner.recv()?;
        lock(&self.transcript).push((Direction::Received, msg.clone()));
        let mut s = lock(&self.stats);
        s.frames_received += 1;
        s.bytes_received += msg.len() as u64;
        if let Some(t0) = self.round_start.take() {
            s.round_latency_ns
                .push(t0.elapsed().as_nanos() as u64);
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn in_memory_duplex_roundtrip() {
        let (mut a, mut b) = duplex();
        a.send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(b.recv().unwrap(), Bytes::from_static(b"ping"));
        b.send(Bytes::from_static(b"pong")).unwrap();
        assert_eq!(a.recv().unwrap(), Bytes::from_static(b"pong"));
    }

    #[test]
    fn disconnected_peer_errors() {
        let (mut a, b) = duplex();
        drop(b);
        assert!(matches!(
            a.send(Bytes::from_static(b"x")),
            Err(TransportError::Disconnected)
        ));
        assert!(matches!(a.recv(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
            t.send(Bytes::from_static(b"hello over tcp")).unwrap();
            t.recv().unwrap()
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(stream);
        let got = server.recv().unwrap();
        assert_eq!(got, Bytes::from_static(b"hello over tcp"));
        server.send(Bytes::from_static(b"ack")).unwrap();
        assert_eq!(client.join().unwrap(), Bytes::from_static(b"ack"));
    }

    #[test]
    fn tcp_read_timeout_surfaces_and_is_resumable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            // Send the length prefix and half the body, stall, then finish.
            stream
                .set_nodelay(true)
                .unwrap();
            let mut s = &stream;
            use std::io::Write as _;
            s.write_all(&6u32.to_be_bytes()).unwrap();
            s.write_all(b"abc").unwrap();
            s.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(120));
            s.write_all(b"def").unwrap();
            s.flush().unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(stream);
        server
            .set_read_timeout(Some(std::time::Duration::from_millis(30)))
            .unwrap();
        // The stalled peer times out at least once (TimedOut, not
        // Disconnected), then the retried recv completes the same frame.
        let mut timeouts = 0;
        let got = loop {
            match server.recv() {
                Ok(frame) => break frame,
                Err(TransportError::TimedOut) => timeouts += 1,
                Err(e) => panic!("unexpected transport error: {e}"),
            }
            assert!(timeouts < 50, "frame never completed");
        };
        assert!(timeouts >= 1, "expected at least one timeout");
        assert_eq!(got, Bytes::from_static(b"abcdef"));
        client.join().unwrap();
    }

    #[test]
    fn tcp_clean_close_is_disconnected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let _ = TcpStream::connect(addr).unwrap();
            // Drop immediately: server should see a clean disconnect.
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::new(stream);
        assert!(matches!(
            server.recv(),
            Err(TransportError::Disconnected)
        ));
        client.join().unwrap();
    }

    /// A `Read`/`Write` stub that yields its scripted chunks one at a
    /// time, interleaving `WouldBlock` between them like a nonblocking
    /// socket whose peer dribbles bytes.
    struct Dribble {
        chunks: std::collections::VecDeque<Vec<u8>>,
        ready: bool,
        written: Vec<u8>,
        /// Max bytes each `write` accepts before blocking (0 = always block).
        write_budget: usize,
    }

    impl Dribble {
        fn new(chunks: Vec<Vec<u8>>) -> Self {
            Self {
                chunks: chunks.into(),
                ready: false,
                written: Vec::new(),
                write_budget: usize::MAX,
            }
        }
    }

    impl std::io::Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            match self.chunks.front_mut() {
                None => Ok(0),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.pop_front();
                    }
                    Ok(n)
                }
            }
        }
    }

    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.write_budget);
            if n == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_reader_resumes_across_would_block() {
        let mut frame = 6u32.to_be_bytes().to_vec();
        frame.extend_from_slice(b"abcdef");
        // Split the frame awkwardly: mid-prefix and mid-body.
        let mut src = Dribble::new(vec![
            frame[..2].to_vec(),
            frame[2..7].to_vec(),
            frame[7..].to_vec(),
        ]);
        let mut reader = FrameReader::new();
        let mut polls = 0;
        let got = loop {
            polls += 1;
            assert!(polls < 32, "frame never completed");
            match reader.poll_frame(&mut src).unwrap() {
                Some(f) => break f,
                None => continue,
            }
        };
        assert_eq!(got, Bytes::from_static(b"abcdef"));
        assert!(!reader.is_mid_frame());
        assert!(polls > 3, "expected interleaved WouldBlock returns");
    }

    #[test]
    fn frame_reader_rejects_oversized_and_reports_eof() {
        let mut reader = FrameReader::new();
        let mut huge = Dribble::new(vec![u32::MAX.to_be_bytes().to_vec()]);
        let err = loop {
            match reader.poll_frame(&mut huge) {
                Ok(None) => continue,
                Ok(Some(_)) => panic!("oversized frame accepted"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TransportError::FrameTooLarge(_)));

        let mut reader = FrameReader::new();
        let mut eof = Dribble::new(vec![3u32.to_be_bytes().to_vec()]);
        let err = loop {
            match reader.poll_frame(&mut eof) {
                Ok(None) => continue,
                Ok(Some(_)) => panic!("truncated frame accepted"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TransportError::Disconnected));
    }

    #[test]
    fn frame_writer_drains_across_partial_writes() {
        let mut writer = FrameWriter::new();
        writer.enqueue(&Bytes::from_static(b"hello")).unwrap();
        writer.enqueue(&Bytes::from_static(b"world!")).unwrap();
        assert!(writer.has_pending());
        assert_eq!(writer.pending_bytes(), 4 + 5 + 4 + 6);

        let mut sink = Dribble::new(vec![]);
        sink.write_budget = 3; // force many partial writes
        let mut flushes = 0;
        while !writer.poll_flush(&mut sink).unwrap() {
            flushes += 1;
            assert!(flushes < 100, "writer never drained");
        }
        assert!(!writer.has_pending());

        let mut expect = 5u32.to_be_bytes().to_vec();
        expect.extend_from_slice(b"hello");
        expect.extend_from_slice(&6u32.to_be_bytes());
        expect.extend_from_slice(b"world!");
        assert_eq!(sink.written, expect);

        // A decoder sees the two frames intact.
        let mut reader = FrameReader::new();
        let mut replay = Dribble::new(vec![sink.written.clone()]);
        let mut frames = Vec::new();
        while frames.len() < 2 {
            if let Some(f) = reader.poll_frame(&mut replay).unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames[0], Bytes::from_static(b"hello"));
        assert_eq!(frames[1], Bytes::from_static(b"world!"));
    }

    #[test]
    fn frame_writer_blocked_sink_reports_pending() {
        let mut writer = FrameWriter::new();
        writer.enqueue(&Bytes::from_static(b"x")).unwrap();
        let mut sink = Dribble::new(vec![]);
        sink.write_budget = 0; // sink accepts nothing
        assert!(!writer.poll_flush(&mut sink).unwrap());
        assert!(writer.has_pending());
        assert_eq!(writer.pending_bytes(), 5);
        // Oversized frames are rejected before anything is staged.
        let huge = Bytes::from(vec![0u8; MAX_FRAME + 1]);
        assert!(matches!(
            writer.enqueue(&huge),
            Err(TransportError::FrameTooLarge(_))
        ));
        assert_eq!(writer.pending_bytes(), 5);
    }

    #[test]
    fn recording_captures_both_directions() {
        let (a, mut b) = duplex();
        let transcript = new_transcript();
        let mut rec = RecordingTransport::new(a, Arc::clone(&transcript));
        rec.send(Bytes::from_static(b"one")).unwrap();
        b.send(Bytes::from_static(b"two")).unwrap();
        let _ = rec.recv().unwrap();
        let log = lock(&transcript);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, Direction::Sent);
        assert_eq!(log[1].0, Direction::Received);
        drop(log);
        assert_eq!(transcript_bytes(&transcript), 6);
        let flat = transcript_flatten(&transcript);
        assert!(flat.windows(3).any(|w| w == b"one"));
        assert!(flat.windows(3).any(|w| w == b"two"));
    }
}
