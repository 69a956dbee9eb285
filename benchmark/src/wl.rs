//! What the workloads share: replay material, the server under test, the
//! replay client, and the phase plan of the three server-bound workloads.

use crate::load::{
    self, Ctx, Driver, Marks, Phase, PhaseOut, Placement, Sample, Shape, Span, MAIN,
};
use bytes::Bytes;
use dlr_core::dlr::{self, DecMsg2, Party1, Party2, PublicKey, Share2};
use dlr_core::driver::{self, RequestTag, GENERATION_ANY};
use dlr_core::params::SchemeParams;
use dlr_core::CoreError;
use dlr_curve::{Group, Pairing};
use dlr_protocol::transport::TcpTransport;
use dlr_protocol::{FrameReader, FrameWriter, Transport, TransportError};
use dlr_server::{Keyring, Server, ServerConfig, ServerHandle, StatsSnapshot};
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheme parameters of every workload, as in every `BENCH_PR*`.
pub fn params<E: Pairing>() -> SchemeParams {
    SchemeParams::derive::<E::Scalar>(16, 64)
}

/// `[tag ‖ body]`, the request framing of `dlr_core::driver`.
pub fn request(tag: RequestTag, body: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(tag as u8);
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// Replay material of one key: `[Decrypt ‖ DecMsg1]` frames a local `P1`
/// produced, and for each the byte-exact `ok` reply a local `P2` gave.
pub struct ReplaySet {
    pub key_id: Vec<u8>,
    pub frames: Vec<Bytes>,
    pub expected: Vec<Bytes>,
}

pub struct KeyMaterial<E: Pairing> {
    pub pk: PublicKey<E>,
    pub share2: Share2<E>,
    pub set: ReplaySet,
}

/// Generate a key and `n` replay frames for it. Every expected reply is
/// decrypted to its plaintext once, so "expected" is proven correct.
pub fn build_key<E: Pairing>(rng: &mut StdRng, key_id: &[u8], n: usize) -> KeyMaterial<E> {
    let (pk, share1, share2) = dlr::keygen::<E, _>(params::<E>(), rng);
    let mut p1 = Party1::new(pk.clone(), share1);
    let mut p2 = Party2::new(pk.clone(), share2.clone());
    let mut set = ReplaySet {
        key_id: key_id.to_vec(),
        frames: Vec::new(),
        expected: Vec::new(),
    };
    for _ in 0..n {
        let message = E::Gt::random(rng);
        let ct = dlr::encrypt(&pk, &message, rng);
        let frame = request(RequestTag::Decrypt, &p1.dec_start(&ct, rng).to_bytes());
        let (_, body) =
            driver::p2_handle_frame(&mut p2, 0, &frame, rng).expect("local P2 serves its own P1");
        let body = body.expect("a decrypt has a reply");
        let m2 = DecMsg2::<E>::from_bytes(&body, &pk.params).expect("local reply decodes");
        assert!(
            p1.dec_finish(&m2).expect("local reply decrypts") == message,
            "replay frame does not decrypt"
        );
        set.frames.push(frame);
        set.expected.push(driver::ok_reply(&body));
    }
    KeyMaterial { pk, share2, set }
}

/// Server settings of every workload: one worker, batching off.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        batch_max: 1,
        max_sessions: 32,
        ..ServerConfig::default()
    }
}

pub struct RunningServer {
    pub handle: ServerHandle,
    thread: JoinHandle<std::io::Result<StatsSnapshot>>,
}

pub fn spawn_server<E: Pairing>(keyring: Keyring<E>, config: ServerConfig) -> RunningServer {
    let server =
        Server::bind("127.0.0.1:0", Arc::new(keyring), config).expect("bind loopback server");
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        crate::sys::pin_current_thread(crate::sys::server_cpu()); // the workers it spawns inherit
        server.run()
    });
    RunningServer { handle, thread }
}

impl RunningServer {
    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    pub fn stop(self) -> StatsSnapshot {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("server thread panicked")
            .expect("server run failed")
    }
}

/// Connect and bind a session to `key_id`.
pub fn open_session(addr: SocketAddr, key_id: &[u8]) -> Result<TcpTransport, CoreError> {
    let stream = TcpStream::connect(addr).map_err(|e| CoreError::Transport(e.into()))?;
    let mut transport = TcpTransport::new(stream);
    transport.set_nodelay(true)?;
    transport.set_read_timeout(Some(Duration::from_secs(5)))?;
    driver::p1_hello(&mut transport, key_id, GENERATION_ANY)?;
    Ok(transport)
}

/// Send frame `i` of `set` and byte-compare the reply. No curve work.
pub fn replay_round(t: &mut dyn Transport, set: &ReplaySet, i: usize, marks: &mut Marks) -> bool {
    let i = i % set.frames.len();
    let reply = t.send(set.frames[i].clone()).and_then(|()| t.recv());
    marks.mark("protocol.round");
    let ok = reply.is_ok_and(|r| r == set.expected[i]);
    marks.mark("verify");
    ok
}

/// Requests each connection keeps in flight in a closed-loop phase. With
/// one in flight the server idles while a reply and the next request cross
/// the wire, and throughput measures wake-up latency; with a few queued in
/// the socket it always has work, and throughput measures its service time.
pub const WINDOW: usize = 2;

/// How long a reader blocks before it looks whether its phase has ended.
const READ_POLL: Duration = Duration::from_millis(20);
/// A reply this late is a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

struct Pending {
    index: usize,
    due: u64,
    sent: u64,
}

/// One open session replaying one key's frames, pipelined: requests are
/// written without waiting for earlier replies, which come back in order.
pub struct ReplayConn {
    set: Arc<ReplaySet>,
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    next: usize,
}

impl ReplayConn {
    /// Opens the session and verifies one reply, so set-up ends on the
    /// first verified reply.
    pub fn open(addr: SocketAddr, set: Arc<ReplaySet>, first: usize) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("nodelay");
        let mut hello = TcpTransport::new(stream.try_clone().expect("clone stream"));
        driver::p1_hello(&mut hello, &set.key_id, GENERATION_ANY).expect("hello");
        stream
            .set_read_timeout(Some(READ_POLL))
            .expect("read timeout");
        let mut conn = Self {
            set,
            stream,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            next: first,
        };
        let index = conn.send_next().expect("first request");
        let started = Instant::now();
        let reply = loop {
            match conn
                .reader
                .poll_frame(&mut conn.stream)
                .expect("first reply")
            {
                Some(reply) => break reply,
                None => assert!(started.elapsed() < REPLY_TIMEOUT, "first reply timed out"),
            }
        };
        assert!(
            reply == conn.set.expected[index],
            "first reply did not verify"
        );
        conn
    }

    /// Write the next frame of the set; returns its index.
    fn send_next(&mut self) -> Result<usize, TransportError> {
        let index = self.next % self.set.frames.len();
        self.next += 1;
        self.writer.enqueue(&self.set.frames[index])?;
        self.writer.poll_flush(&mut self.stream)?;
        Ok(index)
    }

    /// Closed loop: keep [`WINDOW`] requests in flight until the phase ends,
    /// then drain. A request is timed from when it was written.
    fn drive_closed(&mut self, ctx: &Ctx) -> (Vec<Sample>, Vec<Span>) {
        let mut out = Recorder::new(ctx);
        let mut pending: VecDeque<Pending> = VecDeque::new();
        loop {
            while pending.len() < WINDOW && ctx.now() < ctx.end {
                let sent = ctx.now();
                match self.send_next() {
                    Ok(index) => pending.push_back(Pending {
                        index,
                        due: sent,
                        sent,
                    }),
                    Err(_) => {
                        out.fail(sent);
                        pending.drain(..).for_each(|p| out.fail(p.due));
                        return out.finish();
                    }
                }
            }
            let Some(p) = pending.pop_front() else {
                return out.finish();
            };
            let reply = loop {
                match self.reader.poll_frame(&mut self.stream) {
                    Ok(Some(reply)) => break Some(reply),
                    Ok(None) if ctx.now() - p.sent < REPLY_TIMEOUT.as_nanos() as u64 => {}
                    _ => break None,
                }
            };
            let Some(reply) = reply else {
                out.fail(p.due);
                pending.drain(..).for_each(|p| out.fail(p.due));
                return out.finish();
            };
            let arrived = ctx.now();
            out.reply(&p, arrived, reply == self.set.expected[p.index]);
        }
    }

    /// Open loop: this thread writes each request when it is due, whatever
    /// is still in flight; a second thread reads and verifies the replies.
    fn drive_open(&mut self, ctx: &Ctx, schedule: &[u64]) -> (Vec<Sample>, Vec<Span>) {
        let pending: Mutex<VecDeque<Pending>> = Mutex::new(VecDeque::new());
        let sender_done = AtomicBool::new(false);
        let dead = AtomicBool::new(false);
        let mut read_half = self.stream.try_clone().expect("clone stream");
        let (set, reader) = (Arc::clone(&self.set), &mut self.reader);
        let lock = || pending.lock().expect("generator thread panicked");
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                crate::sys::pin_current_thread(ctx.cpu);
                let mut out = Recorder::new(ctx);
                loop {
                    match reader.poll_frame(&mut read_half) {
                        Ok(Some(reply)) => {
                            let p = lock()
                                .pop_front()
                                .expect("a reply to a request that was written");
                            let arrived = ctx.now();
                            out.reply(&p, arrived, reply == set.expected[p.index]);
                        }
                        Ok(None) => {
                            let overdue =
                                |p: &Pending| ctx.now() - p.sent > REPLY_TIMEOUT.as_nanos() as u64;
                            let mut pending = lock();
                            if pending.front().is_some_and(overdue) {
                                dead.store(true, Ordering::SeqCst);
                            } else if sender_done.load(Ordering::SeqCst) && pending.is_empty() {
                                return out;
                            }
                            if dead.load(Ordering::SeqCst) {
                                pending.drain(..).for_each(|p| out.fail(p.due));
                                return out;
                            }
                        }
                        Err(_) => {
                            dead.store(true, Ordering::SeqCst);
                            lock().drain(..).for_each(|p| out.fail(p.due));
                            return out;
                        }
                    }
                }
            });
            let mut unsent = Vec::new();
            for &due in schedule {
                if dead.load(Ordering::SeqCst) {
                    unsent.push(due);
                    continue;
                }
                load::wait_until(ctx.origin, due);
                let index = self.next % self.set.frames.len();
                self.next += 1;
                // Queued before it is written, so the reader always finds it.
                lock().push_back(Pending {
                    index,
                    due,
                    sent: ctx.now(),
                });
                let written = self
                    .writer
                    .enqueue(&self.set.frames[index])
                    .and_then(|()| self.writer.poll_flush(&mut self.stream));
                if written.is_err() {
                    dead.store(true, Ordering::SeqCst);
                }
            }
            sender_done.store(true, Ordering::SeqCst);
            let mut out = receiver.join().expect("reader thread panicked");
            lock()
                .drain(..)
                .map(|p| p.due)
                .chain(unsent)
                .for_each(|due| out.fail(due));
            out.finish()
        })
    }
}

impl Driver for ReplayConn {
    fn drive(&mut self, ctx: &Ctx) -> (Vec<Sample>, Vec<Span>) {
        match ctx.schedule {
            Some(schedule) => self.drive_open(ctx, schedule),
            None => self.drive_closed(ctx),
        }
    }
}

/// Samples and spans of one pipelined connection.
struct Recorder<'a> {
    ctx: &'a Ctx<'a>,
    samples: Vec<Sample>,
    spans: Vec<Span>,
}

impl<'a> Recorder<'a> {
    fn new(ctx: &'a Ctx<'a>) -> Self {
        Self {
            ctx,
            samples: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The reply to `p` arrived at `arrived` and compared `ok` against the
    /// expected bytes.
    fn reply(&mut self, p: &Pending, arrived: u64, ok: bool) {
        let done = self.ctx.now();
        self.samples.push(Sample {
            due: p.due,
            ready: p.due,
            start: p.sent,
            done,
            kind: MAIN,
            ok,
        });
        if self.ctx.traced {
            let id = self.ctx.request_id(self.samples.len());
            let marks = [("protocol.round", arrived), ("verify", done)];
            load::push_request(&mut self.spans, "req", id, p.due, p.sent, &marks, done);
        }
    }

    fn fail(&mut self, due: u64) {
        self.samples.push(Sample {
            due,
            ready: due,
            start: due,
            done: due,
            kind: MAIN,
            ok: false,
        });
    }

    fn finish(self) -> (Vec<Sample>, Vec<Span>) {
        (self.samples, self.spans)
    }
}

/// Open-loop rates of a server-bound workload, sized at about 35 % and 55 %
/// of the saturation rate measured when the benchmark was defined. Fixed, so
/// latency at a rate stays comparable across commits (see the README for the
/// rule for re-sizing them).
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    pub lo: f64,
    pub hi: f64,
}

/// What the command line asks of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// Untimed warm-up before every timed window.
    pub fn warm(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.01).clamp(0.1, 0.3))
    }

    /// A phase timed for `share` of `--seconds` over all its windows.
    pub fn phase(
        &self,
        name: &'static str,
        shape: Shape,
        share: f64,
        traced: bool,
        placement: Placement,
    ) -> Phase {
        Phase {
            name,
            shape,
            warm: self.warm(),
            dur: Duration::from_secs_f64(self.seconds * share),
            traced,
            placement,
        }
    }
}

/// Share of `--seconds` the traced run keeps for the micro-timings.
pub const MICRO_SHARE: f64 = 0.4;

/// The phases of a server-bound workload. Untraced: `sat` and `lo` over the
/// whole of `--seconds`. Traced: `sat` once untraced and once traced (their
/// difference is the tracing overhead), then `lo` and `hi` traced, in the
/// share of `--seconds` the micro-timings leave.
pub fn run_phases<D: Driver>(
    clients: &mut [D],
    rates: Rates,
    args: RunArgs,
    origin: Instant,
) -> Vec<PhaseOut> {
    let (lo, hi) = (
        Shape::Open { rate: rates.lo },
        Shape::Open { rate: rates.hi },
    );
    let away = Placement::AwayFromServer;
    let plan = if args.trace {
        let each = (1.0 - MICRO_SHARE) / 4.0;
        vec![
            args.phase("sat", Shape::Closed, each, false, away),
            args.phase("sat.traced", Shape::Closed, each, true, away),
            args.phase("lo", lo, each, true, away),
            args.phase("hi", hi, each, true, away),
        ]
    } else {
        vec![
            args.phase("sat", Shape::Closed, 0.4, false, away),
            args.phase("lo", lo, 0.6, false, away),
        ]
    };
    load::run_rounds(clients, &plan, origin, args.seed)
}

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Time `setup` [`SETUP_REPEATS`] times (once in the traced run, which does
/// not report `setup_s`), tearing every product but the last down with
/// `teardown`. Returns the median seconds and the last product.
pub fn timed_setup<T>(
    args: RunArgs,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (f64, T) {
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        last = Some(setup());
        secs.push(started.elapsed().as_secs_f64());
    }
    (
        crate::stats::median(&secs),
        last.expect("at least one set-up"),
    )
}

/// The server layer's own counters, summed over the servers of a run.
pub fn server_counters(report: &mut crate::report::Report, stats: &[StatsSnapshot]) {
    let sum = |f: fn(&StatsSnapshot) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let requests =
        sum(|s| s.requests_hello + s.requests_decrypt + s.requests_refresh + s.requests_topology);
    report.set(
        "server.loop_wakeups_per_req",
        sum(|s| s.loop_wakeups) / requests.max(1.0),
    );
    report.set(
        "server.migrations_per_session",
        sum(|s| s.migrations) / sum(|s| s.sessions_accepted).max(1.0),
    );
    report.set("server.error_replies", sum(|s| s.error_replies));
    report.set("server.busy_rejects", sum(|s| s.sessions_rejected_busy));
    report.set("server.persist_failures", sum(|s| s.persist_failures));
    for (what, n) in [
        ("error replies", sum(|s| s.error_replies)),
        ("busy rejects", sum(|s| s.sessions_rejected_busy)),
        ("persist failures", sum(|s| s.persist_failures)),
        ("session panics", sum(|s| s.session_panics)),
    ] {
        if n > 0.0 {
            report.invalid.push(format!("server counted {n} {what}"));
        }
    }
}
