//! Per-layer micro-timings of the traced run, on the workload's own curve,
//! each timed from here around public calls of one crate: the median of
//! [`BATCHES`] batches.

use crate::churn;
use crate::load::{self, Marks, Placement, Shape, MAIN};
use crate::report::Report;
use crate::wl::{self, ReplayConn, ReplaySet, RunArgs};
use crate::{gen, stats};
use bytes::Bytes;
use dlr_cluster::{EpochCoordinator, Fleet, FleetConfig};
use dlr_core::dlr::{self, DecMsg1, DecMsg2, Party1, Party2};
use dlr_core::driver::{self, RequestTag, GENERATION_ANY};
use dlr_curve::{counters, Group, Pairing, SsParams};
use dlr_math::{FieldElement, Fp2};
use dlr_protocol::transport::TcpTransport;
use dlr_protocol::{duplex, FrameReader, FrameWriter, Transport};
use dlr_server::{persist_atomically, Keyring, ServerConfig};
use rand::rngs::StdRng;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;
/// Frames of the micro server's key, and the batch size of `p2_batch16`.
const FRAMES: usize = 16;

/// Sizes batches so the micro-timings fit their share of `--seconds`.
struct Timer {
    batch: Duration,
}

impl Timer {
    /// Median over the batches of the mean nanoseconds per call of `f`.
    fn ns(&self, mut f: impl FnMut()) -> f64 {
        f(); // warm caches and lazy tables
        let started = Instant::now();
        f();
        let one = started.elapsed().as_nanos().max(1);
        let calls = (self.batch.as_nanos() / one).clamp(1, 1 << 20) as u32;
        let per_call: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..calls {
                    f();
                }
                started.elapsed().as_nanos() as f64 / f64::from(calls)
            })
            .collect();
        stats::median(&per_call)
    }

    fn us(&self, f: impl FnMut()) -> f64 {
        self.ns(f) / 1e3
    }
}

/// Keep a result the optimiser may not discard.
fn sink<T>(value: T) {
    black_box(value);
}

/// Median over [`BATCHES`] single calls of the milliseconds `f` reports,
/// for operations too slow or too stateful to repeat inside a batch.
fn single_calls_ms(mut f: impl FnMut() -> f64) -> f64 {
    let ms: Vec<f64> = (0..BATCHES).map(|_| f()).collect();
    stats::median(&ms)
}

fn elapsed_ms(started: Instant) -> f64 {
    elapsed_us(started) / 1e3
}

fn elapsed_us(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

pub fn run<E: SsParams + Pairing>(report: &mut Report, args: RunArgs) {
    // 50-odd timings of five batches each; the slow ones (keygen, P1's
    // pairings, fleet spawn) take one call per batch whatever the size.
    let timer = Timer {
        batch: Duration::from_secs_f64(args.seconds * wl::MICRO_SHARE / 600.0),
    };
    let mut rng = gen::rng_for(args.seed, 50);
    math::<E>(report, &timer, &mut rng);
    curve::<E>(report, &timer, &mut rng);
    let key = core::<E>(report, &timer, &mut rng);
    let echo_us = protocol(report, &timer, &key.set);
    server::<E>(report, &timer, &key, echo_us, args);
    cluster::<E>(report, &timer, &mut rng);
    report.set(
        "metrics.span_ns",
        timer.ns(|| dlr_metrics::span("benchmark.noop", || black_box(()))),
    );
}

fn math<E: SsParams + Pairing>(report: &mut Report, t: &Timer, rng: &mut StdRng) {
    const CHAIN: usize = 64;
    let (a, b) = (E::Fp::random(rng), E::Fp::random(rng));
    let mut x = a;
    report.set(
        "math.fp_mul_ns",
        t.ns(|| (0..CHAIN).for_each(|_| x = black_box(x * b))) / CHAIN as f64,
    );
    report.set(
        "math.fp_inv_ns",
        t.ns(|| x = black_box(x.inverse().unwrap_or(a))),
    );
    let (a2, b2) = (Fp2::new(a, b), Fp2::new(b, a));
    let mut y = a2;
    report.set(
        "math.fp2_mul_ns",
        t.ns(|| (0..CHAIN).for_each(|_| y = black_box(y * b2))) / CHAIN as f64,
    );
    report.set(
        "math.fp2_sqr_ns",
        t.ns(|| (0..CHAIN).for_each(|_| y = black_box(y.square()))) / CHAIN as f64,
    );
}

fn curve<E: SsParams + Pairing>(report: &mut Report, t: &Timer, rng: &mut StdRng) {
    let ell = wl::params::<E>().ell;
    let scalars: Vec<E::Scalar> = (0..2 * ell).map(|_| E::Scalar::random(rng)).collect();
    let gts: Vec<E::Gt> = (0..ell).map(|_| E::Gt::random(rng)).collect();
    let gs: Vec<E::G2> = (0..2 * ell).map(|_| E::G2::random(rng)).collect();
    let (s, gt, g) = (scalars[0], gts[0], E::G1::random(rng));
    let gt_bytes = gt.to_bytes();

    report.set("curve.gt_pow_us", t.us(|| sink(gt.pow(&s))));
    report.set(
        "curve.gt_multiexp_us",
        t.us(|| sink(E::Gt::product_of_powers(&gts, &scalars[..ell]))),
    );
    report.set(
        "curve.gt_decode_us",
        t.us(|| sink(E::Gt::from_bytes(&gt_bytes))),
    );
    report.set("curve.pairing_us", t.us(|| sink(E::pair(&g, &gs[1]))));
    let prepared = E::prepare(&g);
    report.set(
        "curve.pair_prepared_us",
        t.us(|| sink(E::pair_prepared(&prepared, &gs[1]))),
    );
    report.set(
        "curve.multi_pair_us",
        t.us(|| sink(E::multi_pair(&g, &gs[..ell]))),
    );
    report.set("curve.g_pow_us", t.us(|| sink(g.pow(&s))));
    report.set(
        "curve.g_fixed_pow_us",
        t.us(|| sink(E::G1::generator_pow(&s))),
    );
    report.set("curve.g_random_us", t.us(|| sink(E::G1::random(rng))));
    report.set(
        "curve.g_multiexp_us",
        t.us(|| sink(E::G2::product_of_powers(&gs, &scalars))),
    );
}

/// One key's material, kept for the protocol and server timings.
struct MicroKey<E: Pairing> {
    pk: dlr::PublicKey<E>,
    share2: dlr::Share2<E>,
    set: Arc<ReplaySet>,
    handle_frame_us: f64,
}

fn core<E: SsParams + Pairing>(report: &mut Report, t: &Timer, rng: &mut StdRng) -> MicroKey<E> {
    let keygen_ms = single_calls_ms(|| {
        let started = Instant::now();
        black_box(dlr::keygen::<E, _>(wl::params::<E>(), rng));
        elapsed_ms(started)
    });
    report.set("core.keygen_ms", keygen_ms);

    let (pk, share1, share2) = dlr::keygen::<E, _>(wl::params::<E>(), rng);
    let mut p1 = Party1::new(pk.clone(), share1);
    let mut p2 = Party2::new(pk.clone(), share2.clone());
    let message = E::Gt::random(rng);
    report.set(
        "core.enc_us",
        t.us(|| sink(dlr::encrypt(&pk, &message, rng))),
    );
    let ct = dlr::encrypt(&pk, &message, rng);

    // Exact operation counts of one decrypt and one refresh: these must
    // repeat bit-exactly (the op-parity invariant of the BENCH_PR* files).
    let (recovered, dec_ops) = counters::measure(|| dlr::decrypt_local(&mut p1, &mut p2, &ct, rng));
    assert!(
        recovered.expect("local decrypt") == message,
        "local decrypt gave the wrong plaintext"
    );
    report.set("core.dec_pairings", dec_ops.pairings as f64);
    report.set("core.dec_gt_pow", dec_ops.gt_pow as f64);

    let mut steps: [Vec<f64>; 3] = Default::default();
    let mut ref_g_pow = 0;
    for _ in 0..BATCHES {
        let ((), ops) = counters::measure(|| {
            let started = Instant::now();
            let m1 = p1.ref_start(rng);
            steps[0].push(elapsed_us(started));
            let started = Instant::now();
            let m2 = p2.ref_respond(&m1, rng).expect("refresh respond");
            p2.ref_complete().expect("P2 refresh complete");
            steps[1].push(elapsed_us(started));
            let started = Instant::now();
            p1.ref_finish(&m2).expect("refresh finish");
            p1.ref_complete().expect("P1 refresh complete");
            steps[2].push(elapsed_us(started));
        });
        ref_g_pow = ops.g_pow;
    }
    report.set("core.ref_g_pow", ref_g_pow as f64);
    report.set("core.ref_p1_start_us", stats::median(&steps[0]));
    report.set("core.ref_p2_respond_us", stats::median(&steps[1]));
    report.set("core.ref_p1_finish_us", stats::median(&steps[2]));

    report.set(
        "core.dec_p1_start_us",
        t.us(|| sink(p1.dec_start(&ct, rng))),
    );
    let m1 = p1.dec_start(&ct, rng);
    let m1_bytes = m1.to_bytes();
    let params = pk.params;
    report.set("core.decmsg1_encode_us", t.us(|| sink(m1.to_bytes())));
    report.set(
        "core.decmsg1_decode_us",
        t.us(|| sink(DecMsg1::<E>::from_bytes(&m1_bytes, &params))),
    );
    report.set("core.dec_p2_respond_us", t.us(|| sink(p2.dec_respond(&m1))));
    let m2: DecMsg2<E> = p2.dec_respond(&m1).expect("respond");
    report.set("core.dec_p1_finish_us", t.us(|| sink(p1.dec_finish(&m2))));

    // Replay material of the refreshed key, for the wire timings below.
    let mut set = ReplaySet {
        key_id: b"micro".to_vec(),
        frames: Vec::new(),
        expected: Vec::new(),
    };
    for _ in 0..FRAMES {
        let frame = wl::request(RequestTag::Decrypt, &p1.dec_start(&ct, rng).to_bytes());
        let (_, body) = driver::p2_handle_frame(&mut p2, 0, &frame, rng).expect("local P2 serves");
        set.expected
            .push(driver::ok_reply(&body.expect("decrypt reply")));
        set.frames.push(frame);
    }
    let frame = set.frames[0].clone();
    let handle_frame_us = t.us(|| sink(driver::p2_handle_frame(&mut p2, 0, &frame, rng)));
    report.set("core.p2_handle_frame_us", handle_frame_us);
    let bodies: Vec<&[u8]> = set.frames.iter().map(|f| &f[1..]).collect();
    let batch_us = t.us(|| sink(driver::p2_handle_decrypt_batch(&mut p2, &bodies)));
    report.set("core.p2_batch16_us_per_req", batch_us / FRAMES as f64);

    let share2 = p2.share().clone();
    MicroKey {
        pk,
        share2,
        set: Arc::new(set),
        handle_frame_us,
    }
}

/// Returns `protocol.tcp_echo_rtt_us`, the wire + syscall floor.
fn protocol(report: &mut Report, t: &Timer, set: &ReplaySet) -> f64 {
    let (frame, reply) = (set.frames[0].clone(), set.expected[0].clone());

    let mut writer = FrameWriter::new();
    let mut wire = Vec::with_capacity(frame.len() + 4);
    report.set(
        "protocol.frame_encode_ns",
        t.ns(|| {
            wire.clear();
            writer.enqueue(&frame).expect("frame fits");
            writer.poll_flush(&mut wire).expect("flush to memory");
        }),
    );
    let mut reader = FrameReader::new();
    report.set(
        "protocol.frame_decode_ns",
        t.ns(|| {
            sink(
                reader
                    .poll_frame(&mut wire.as_slice())
                    .expect("decode from memory"),
            )
        }),
    );

    // Echo peers answer every request-sized frame with a reply-sized one,
    // from the servers' CPU, as the server under test does.
    let (mut near, mut far) = duplex();
    let echo_reply = reply.clone();
    let inmem = std::thread::spawn(move || {
        crate::sys::pin_current_thread(crate::sys::server_cpu());
        while far.recv().is_ok() {
            if far.send(echo_reply.clone()).is_err() {
                break;
            }
        }
    });
    let round = |t: &mut dyn Transport, frame: &Bytes| {
        t.send(frame.clone()).expect("echo send");
        black_box(t.recv().expect("echo recv"));
    };
    report.set("protocol.inmem_rtt_us", t.us(|| round(&mut near, &frame)));
    drop(near);
    inmem.join().expect("in-memory echo thread");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo listener");
    let addr = listener.local_addr().expect("echo address");
    let echo_reply = reply.clone();
    let echo = std::thread::spawn(move || {
        crate::sys::pin_current_thread(crate::sys::server_cpu());
        let (stream, _) = listener.accept().expect("accept echo peer");
        let mut far = TcpTransport::new(stream);
        far.set_nodelay(true).expect("nodelay");
        while far.recv().is_ok() {
            if far.send(echo_reply.clone()).is_err() {
                break;
            }
        }
    });
    let mut near = TcpTransport::new(TcpStream::connect(addr).expect("connect echo peer"));
    near.set_nodelay(true).expect("nodelay");
    let echo_us = t.us(|| round(&mut near, &frame));
    report.set("protocol.tcp_echo_rtt_us", echo_us);
    drop(near);
    echo.join().expect("TCP echo thread");
    echo_us
}

fn server<E: SsParams + Pairing>(
    report: &mut Report,
    t: &Timer,
    key: &MicroKey<E>,
    echo_us: f64,
    args: RunArgs,
) {
    let key_id = key.set.key_id.clone();
    let keyring = || {
        let mut keyring = Keyring::new();
        keyring.insert(&key_id, key.pk.clone(), key.share2.clone());
        keyring
    };
    let server = wl::spawn_server(keyring(), wl::server_config());
    let addr = server.addr();
    let mut marks = Marks::new(false, Instant::now());

    // One connection, one request at a time: the idle round trip, and what
    // of it is neither the request core nor the wire (the event loop, the
    // connection state machine and the generation lock, from outside).
    let mut session = wl::open_session(addr, &key_id).expect("open idle session");
    let mut i = 0;
    let rtt_idle = t.us(|| {
        assert!(
            wl::replay_round(&mut session, &key.set, i, &mut marks),
            "idle reply did not verify"
        );
        i += 1;
    });
    report.set("server.rtt_idle_us", rtt_idle);
    report.set(
        "server.overhead_us",
        rtt_idle - key.handle_frame_us - echo_us,
    );
    report.set(
        "server.topology_rtt_us",
        t.us(|| sink(driver::p1_fetch_topology(&mut session).expect("topology"))),
    );
    report.set(
        "server.hello_us",
        t.us(|| sink(driver::p1_hello(&mut session, &key_id, GENERATION_ANY).expect("hello"))),
    );
    drop(session);
    report.set(
        "server.session_us",
        t.us(|| {
            let mut session = wl::open_session(addr, &key_id).expect("open session");
            assert!(
                wl::replay_round(&mut session, &key.set, 0, &mut marks),
                "session reply did not verify"
            );
            let _ = driver::p1_shutdown(&mut session);
        }),
    );
    server.stop();

    let dir = crate::out_dir().join(format!("micro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create persist directory");
    let share_bytes = key.share2.to_bytes();
    report.set(
        "server.persist_us",
        t.us(|| persist_atomically(&dir.join("share"), &share_bytes).expect("persist share")),
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Ablation A9 rerun server-bound: the saturation phase with the batch
    // executor on.
    let config = ServerConfig {
        batch_max: 16,
        batch_wait: Duration::from_micros(200),
        ..wl::server_config()
    };
    let server = wl::spawn_server(keyring(), config);
    let mut clients: Vec<ReplayConn> = (0..2)
        .map(|i| ReplayConn::open(server.addr(), Arc::clone(&key.set), i * FRAMES / 2))
        .collect();
    let phase = args.phase(
        "batch16",
        Shape::Closed,
        wl::MICRO_SHARE / 8.0,
        false,
        Placement::AwayFromServer,
    );
    let outs = load::run_rounds(&mut clients, &[phase], Instant::now(), args.seed);
    drop(clients);
    server.stop();
    report.count(&outs);
    report.set("server.batch16_sat_rps", outs[0].throughput(MAIN).median);
}

fn cluster<E: SsParams + Pairing>(report: &mut Report, t: &Timer, rng: &mut StdRng) {
    let keys: Vec<wl::KeyMaterial<E>> = (0..churn::REPLICAS * 2)
        .map(|i| wl::build_key::<E>(rng, &churn::key_id(i), 1))
        .collect();
    let dir = crate::out_dir().join(format!("micro-fleet-{}", std::process::id()));
    let spawn = || {
        let config = FleetConfig {
            replicas: churn::REPLICAS,
            data_dir: dir.clone(),
            base: wl::server_config(),
            ..FleetConfig::default()
        };
        let fleet_keys = keys
            .iter()
            .map(|k| (k.set.key_id.clone(), k.pk.clone(), k.share2.clone()))
            .collect();
        crate::sys::on_server_cpu(|| Fleet::<E>::spawn(config, fleet_keys)).expect("spawn fleet")
    };
    let spawn_ms = single_calls_ms(|| {
        let started = Instant::now();
        let fleet = spawn();
        let ms = elapsed_ms(started);
        fleet.shutdown().expect("fleet shutdown");
        ms
    });
    report.set("cluster.fleet_spawn_ms", spawn_ms);

    let mut fleet = spawn();
    let set = &keys[0].set;
    let wrong = fleet
        .addr((fleet.owner_of(&set.key_id) + 1) % churn::REPLICAS)
        .to_string();
    let mut router = churn::strict_router(&fleet);
    let open = |router: &mut driver::Router| {
        let (mut transport, _) = router
            .open(&set.key_id, GENERATION_ANY, &mut churn::connect)
            .expect("routed open");
        let _ = driver::p1_shutdown(transport.as_mut());
    };
    open(&mut router); // caches the route
    report.set(
        "cluster.route_ns",
        t.ns(|| sink(router.route(&set.key_id).map(str::len))),
    );
    report.set("cluster.open_us", t.us(|| open(&mut router)));
    report.set(
        "cluster.redirect_us",
        t.us(|| {
            router.seed_route(&set.key_id, &wrong);
            open(&mut router);
        }),
    );

    let restart_ms = single_calls_ms(|| {
        let started = Instant::now();
        fleet.kill_replica(0).expect("kill replica");
        crate::sys::on_server_cpu(|| fleet.restart_replica(0))
            .expect("restart replica from the spool");
        elapsed_ms(started)
    });
    report.set("cluster.restart_ms", restart_ms);
    open(&mut router); // the restarted replica serves
    let kick_ms = single_calls_ms(|| {
        let started = Instant::now();
        EpochCoordinator::new(&fleet)
            .kick_shard_sync(0, Duration::from_secs(5))
            .expect("epoch boundary");
        elapsed_ms(started)
    });
    report.set("cluster.kick_shard_ms", kick_ms);
    fleet.shutdown().expect("fleet shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
