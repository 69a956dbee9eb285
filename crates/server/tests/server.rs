//! End-to-end tests for the dlr-server subsystem: concurrency, hostile
//! clients, disconnects, backpressure, and epoch-driven refresh racing
//! live decrypt traffic.

use bytes::Bytes;
use dlr_core::dlr::{self, DecMsg2, Party1, PublicKey, Share1, Share2};
use dlr_core::driver::{self, ErrorCode, GENERATION_ANY};
use dlr_core::error::CoreError;
use dlr_core::params::SchemeParams;
use dlr_curve::{Group, Pairing, Toy};
use dlr_protocol::transport::TcpTransport;
use dlr_protocol::{Transport, TransportError};
use dlr_server::{Keyring, LoadgenConfig, Server, ServerConfig, ServerHandle, StatsSnapshot};
use rand::SeedableRng;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

type E = Toy;

fn keygen(seed: u64) -> (PublicKey<E>, Share1<E>, Share2<E>) {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let params = SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64);
    dlr::keygen::<E, _>(params, &mut r)
}

struct RunningServer {
    handle: ServerHandle,
    thread: std::thread::JoinHandle<StatsSnapshot>,
}

impl RunningServer {
    fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    fn stop(self) -> StatsSnapshot {
        self.handle.shutdown();
        self.thread.join().expect("server thread panicked")
    }
}

fn start_server(server: Server<E>) -> RunningServer {
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run().expect("server run failed"));
    RunningServer { handle, thread }
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        max_sessions: 8,
        read_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

fn connect(addr: SocketAddr) -> TcpTransport {
    let stream = TcpStream::connect(addr).expect("connect");
    let t = TcpTransport::new(stream);
    t.set_nodelay(true).unwrap();
    t.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    t
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn serves_four_concurrent_sessions() {
    let (pk, s1, s2) = keygen(100);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk.clone(), s2);
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), quick_config()).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    let mut r = rand::rngs::StdRng::seed_from_u64(101);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 5;
    // Two barriers around the "all sessions open" point so the main
    // thread can observe genuine concurrency.
    let connected = Arc::new(Barrier::new(CLIENTS + 1));
    let release = Arc::new(Barrier::new(CLIENTS + 1));

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let pk = pk.clone();
            let s1 = s1.clone();
            let connected = Arc::clone(&connected);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let mut t = connect(addr);
                assert_eq!(driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap(), 0);
                connected.wait();
                release.wait();
                let mut p1 = Party1::new(pk, s1);
                let mut rng = rand::rngs::StdRng::seed_from_u64(200 + i as u64);
                for _ in 0..REQUESTS {
                    let got = driver::p1_decrypt(&mut p1, &ct, &mut t, &mut rng).unwrap();
                    assert_eq!(got, m);
                }
                driver::p1_shutdown(&mut t).unwrap();
            })
        })
        .collect();

    connected.wait();
    assert_eq!(
        running.handle.active_sessions(),
        CLIENTS,
        "all sessions must be open simultaneously"
    );
    release.wait();
    for w in workers {
        w.join().unwrap();
    }
    // `p1_shutdown` only sends the Shutdown frame: let the server read
    // all four and close the sessions before stopping it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while running.handle.active_sessions() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    let stats = running.stop();
    assert_eq!(stats.sessions_accepted, CLIENTS as u64);
    assert_eq!(stats.requests_hello, CLIENTS as u64);
    assert_eq!(stats.requests_decrypt, (CLIENTS * REQUESTS) as u64);
    assert_eq!(stats.error_replies, 0);
    assert_eq!(stats.sessions_completed, CLIENTS as u64);
    assert!(stats.wire.frames_received >= (CLIENTS * (REQUESTS + 2)) as u64);
}

#[test]
fn garbage_and_truncated_frames_get_structured_errors() {
    let (pk, s1, s2) = keygen(110);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk.clone(), s2);
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), quick_config()).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    let mut t = connect(addr);
    // unknown tag
    t.send(Bytes::from_static(&[99, 1, 2])).unwrap();
    match driver::parse_reply(&t.recv().unwrap()) {
        Err(CoreError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownTag as u8),
        other => panic!("expected UnknownTag, got {other:?}"),
    }
    // truncated decrypt body
    t.send(Bytes::from_static(&[1, 0, 0])).unwrap();
    match driver::parse_reply(&t.recv().unwrap()) {
        Err(CoreError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest as u8),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // empty frame
    t.send(Bytes::new()).unwrap();
    match driver::parse_reply(&t.recv().unwrap()) {
        Err(CoreError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadRequest as u8),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // unknown key id in hello
    match driver::p1_hello(&mut t, b"nonexistent", GENERATION_ANY) {
        Err(CoreError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownKey as u8),
        other => panic!("expected UnknownKey, got {other:?}"),
    }
    // the same session still decrypts fine afterwards
    let mut r = rand::rngs::StdRng::seed_from_u64(111);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);
    let mut p1 = Party1::new(pk.clone(), s1.clone());
    assert_eq!(driver::p1_decrypt(&mut p1, &ct, &mut t, &mut r).unwrap(), m);
    driver::p1_shutdown(&mut t).unwrap();

    // An oversized frame header kills only that session...
    use std::io::Write as _;
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    raw.write_all(&[0u8; 16]).unwrap();
    drop(raw);

    // ...and the server keeps serving new sessions.
    wait_until("hostile sessions to close", Duration::from_secs(5), || {
        running.handle.active_sessions() == 0
    });
    let mut t2 = connect(addr);
    assert_eq!(driver::p1_hello(&mut t2, b"k", GENERATION_ANY).unwrap(), 0);
    assert_eq!(driver::p1_decrypt(&mut p1, &ct, &mut t2, &mut r).unwrap(), m);
    driver::p1_shutdown(&mut t2).unwrap();

    let stats = running.stop();
    assert!(stats.error_replies >= 4);
    assert_eq!(stats.requests_decrypt, 2);
}

#[test]
fn survives_disconnect_mid_protocol() {
    let (pk, s1, s2) = keygen(120);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk.clone(), s2);
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), quick_config()).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    let mut r = rand::rngs::StdRng::seed_from_u64(121);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);
    let mut p1 = Party1::new(pk.clone(), s1.clone());

    // Client sends a valid decrypt request and vanishes without reading
    // the reply.
    {
        let mut t = connect(addr);
        driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap();
        let m1 = p1.dec_start(&ct, &mut r);
        let mut frame = vec![1u8]; // RequestTag::Decrypt
        frame.extend_from_slice(&m1.to_bytes());
        t.send(Bytes::from(frame)).unwrap();
        // drop mid-protocol
    }
    // Another client sends half a frame and vanishes.
    {
        use std::io::Write as _;
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(&[4u8; 10]).unwrap();
    }

    wait_until("broken sessions to close", Duration::from_secs(5), || {
        running.handle.active_sessions() == 0
    });

    // The key state is unharmed: a fresh session decrypts correctly.
    let mut t = connect(addr);
    driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap();
    assert_eq!(driver::p1_decrypt(&mut p1, &ct, &mut t, &mut r).unwrap(), m);
    driver::p1_shutdown(&mut t).unwrap();

    let stats = running.stop();
    assert_eq!(stats.sessions_accepted, 3);
    assert_eq!(stats.sessions_completed, 3);
}

#[test]
fn busy_backpressure_rejects_above_session_limit() {
    let (pk, _s1, s2) = keygen(130);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk, s2);
    let config = ServerConfig {
        max_sessions: 1,
        ..quick_config()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    // First session occupies the only slot (hello reply proves the
    // worker is live and counted).
    let mut a = connect(addr);
    driver::p1_hello(&mut a, b"k", GENERATION_ANY).unwrap();

    // Second connection is refused with a structured Busy reply.
    let mut b = connect(addr);
    match driver::p1_hello(&mut b, b"k", GENERATION_ANY) {
        Err(CoreError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Busy as u8),
        other => panic!("expected Busy, got {other:?}"),
    }
    drop(b);

    // Busy is retryable per the client retry policy.
    assert!(driver::is_retryable(&CoreError::Remote {
        code: ErrorCode::Busy as u8,
        message: String::new(),
    }));

    // Once the first session ends, the slot frees up.
    driver::p1_shutdown(&mut a).unwrap();
    wait_until("slot to free", Duration::from_secs(5), || {
        running.handle.active_sessions() == 0
    });
    let mut c = connect(addr);
    driver::p1_hello(&mut c, b"k", GENERATION_ANY).unwrap();
    driver::p1_shutdown(&mut c).unwrap();

    let stats = running.stop();
    assert_eq!(stats.sessions_rejected_busy, 1);
    assert_eq!(stats.sessions_accepted, 2);
}

#[test]
fn hello_generation_binding_is_enforced() {
    let (pk, _s1, s2) = keygen(140);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk, s2);
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), quick_config()).unwrap();
    let running = start_server(server);

    let mut t = connect(running.addr());
    // Claiming a future generation is refused...
    match driver::p1_hello(&mut t, b"k", 5) {
        Err(CoreError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::StaleGeneration as u8)
        }
        other => panic!("expected StaleGeneration, got {other:?}"),
    }
    // ...the wildcard binds to whatever is current...
    assert_eq!(driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap(), 0);
    // ...and the exact current generation is accepted too.
    assert_eq!(driver::p1_hello(&mut t, b"k", 0).unwrap(), 0);
    driver::p1_shutdown(&mut t).unwrap();
    running.stop();
}

/// The tentpole scenario: the epoch scheduler fires while decrypt traffic
/// is live. The epoch hook drives a full wire refresh through the shared
/// `P1`; racing decrypt sessions lose the generation race, observe
/// `StaleGeneration`, re-hello, and every subsequent decryption is
/// correct under the rotated share — which is also persisted to disk.
#[test]
fn epoch_refresh_races_live_decrypts() {
    let dir = std::env::temp_dir().join(format!("dlr-server-epoch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let share_path = dir.join("sk2.dlr");

    let (pk, s1, s2) = keygen(150);
    let original_share_bytes = s2.to_bytes();
    let mut ring = Keyring::new();
    ring.insert_persistent(b"k", pk.clone(), s2, share_path.clone());
    let mut server = Server::bind("127.0.0.1:0", Arc::new(ring), quick_config()).unwrap();
    let addr = server.handle().local_addr();

    // Refresh rotates BOTH shares jointly, so the decrypting clients and
    // the epoch hook must share one P1 state.
    let shared_p1 = Arc::new(Mutex::new(Party1::new(pk.clone(), s1)));

    {
        let shared_p1 = Arc::clone(&shared_p1);
        server.set_epoch_hook(move |epoch| {
            let mut t = connect(addr);
            driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap();
            let mut p1 = shared_p1.lock().unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + epoch);
            driver::p1_refresh(&mut p1, &mut t, &mut rng).unwrap();
            let _ = driver::p1_shutdown(&mut t);
        });
    }
    let running = start_server(server);

    let mut r = rand::rngs::StdRng::seed_from_u64(151);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);

    const CLIENTS: usize = 3;
    const REQUESTS: usize = 20;
    let stale_hits = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let shared_p1 = Arc::clone(&shared_p1);
            let stale_hits = Arc::clone(&stale_hits);
            std::thread::spawn(move || {
                let mut t = connect(addr);
                driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(300 + i as u64);
                for _ in 0..REQUESTS {
                    // Hold the shared P1 for the whole round so the hook's
                    // refresh cannot rotate the share underneath a
                    // half-done decryption.
                    let mut p1 = shared_p1.lock().unwrap();
                    loop {
                        match driver::p1_decrypt(&mut p1, &ct, &mut t, &mut rng) {
                            Ok(got) => {
                                assert_eq!(got, m, "decryption after refresh must stay correct");
                                break;
                            }
                            Err(CoreError::Remote { code, .. })
                                if code == ErrorCode::StaleGeneration as u8 =>
                            {
                                // Lost the generation race: re-sync the
                                // session binding and retry.
                                stale_hits.fetch_add(1, Ordering::Relaxed);
                                driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap();
                            }
                            Err(e) => panic!("decrypt failed: {e}"),
                        }
                    }
                    drop(p1);
                    std::thread::sleep(Duration::from_millis(1));
                }
                driver::p1_shutdown(&mut t).unwrap();
            })
        })
        .collect();

    // Fire two epoch boundaries while the traffic runs.
    std::thread::sleep(Duration::from_millis(20));
    running.handle.force_epoch();
    wait_until("first epoch refresh", Duration::from_secs(10), || {
        running.handle.stats().refreshes >= 1
    });
    running.handle.force_epoch();
    wait_until("second epoch refresh", Duration::from_secs(10), || {
        running.handle.stats().refreshes >= 2
    });

    for w in workers {
        w.join().unwrap();
    }
    let stats = running.stop();

    assert_eq!(stats.epochs, 2);
    assert_eq!(stats.refreshes, 2);
    assert_eq!(stats.persist_failures, 0);
    assert_eq!(
        stats.requests_decrypt,
        (CLIENTS * REQUESTS) as u64,
        "every client decrypt eventually succeeded"
    );
    // Sessions bound to the pre-refresh generation observed the race as
    // structured StaleGeneration errors, never as garbage plaintext.
    assert_eq!(stats.error_replies as usize, stale_hits.load(Ordering::Relaxed));

    // The refreshed share is on disk, parseable, and differs from the
    // original (rotation actually happened).
    let on_disk = std::fs::read(&share_path).unwrap();
    assert_ne!(on_disk, original_share_bytes);
    assert!(Share2::<E>::from_bytes(&on_disk, &pk.params).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loadgen_smoke_produces_valid_report() {
    let (pk, s1, s2) = keygen(160);
    let mut ring = Keyring::new();
    ring.insert(b"bench", pk.clone(), s2);
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), quick_config()).unwrap();
    let running = start_server(server);

    let config = LoadgenConfig {
        clients: 4,
        requests_per_client: 5,
        key_id: b"bench".to_vec(),
        ..LoadgenConfig::default()
    };
    let mut r = rand::rngs::StdRng::seed_from_u64(161);
    let outcome = dlr_server::run_loadgen::<E, _>(running.addr(), &pk, &s1, &config, &mut r);

    assert_eq!(outcome.successes, 20);
    assert_eq!(outcome.failures, 0);
    assert_eq!(outcome.mismatches, 0);
    assert_eq!(outcome.latencies_ns.len(), 20);
    assert!(outcome.throughput_rps() > 0.0);
    assert!(outcome.latency_percentile_ns(50.0) <= outcome.latency_percentile_ns(99.0));

    // The report round-trips through the dlr-metrics JSON schema.
    let report = outcome.to_report();
    let parsed = dlr_metrics::Report::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed.meta.get("successes").unwrap(), "20");
    assert_eq!(parsed.wire.len(), 1);
    // hello + 20 decrypts + 4 shutdowns crossed the wire
    assert_eq!(parsed.wire[0].stats.frames_sent, 4 + 20 + 4);

    let stats = running.stop();
    assert_eq!(stats.requests_decrypt, 20);
    assert_eq!(stats.error_replies, 0);
}

#[test]
fn loadgen_ladder_visits_every_rung() {
    let (pk, s1, s2) = keygen(165);
    let mut ring = Keyring::new();
    ring.insert(b"bench", pk.clone(), s2);
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), quick_config()).unwrap();
    let running = start_server(server);

    let ladder = dlr_server::LadderConfig {
        rungs: vec![1, 2, 4],
        requests_per_client: 3,
        base: LoadgenConfig {
            key_id: b"bench".to_vec(),
            ..LoadgenConfig::default()
        },
    };
    let mut r = rand::rngs::StdRng::seed_from_u64(166);
    let rungs = dlr_server::run_loadgen_ladder::<E, _>(running.addr(), &pk, &s1, &ladder, &mut r);

    assert_eq!(rungs.iter().map(|r| r.clients).collect::<Vec<_>>(), vec![1, 2, 4]);
    for rung in &rungs {
        assert_eq!(rung.outcome.clients, rung.clients);
        assert_eq!(rung.outcome.successes, rung.clients * 3);
        assert_eq!(rung.outcome.failures, 0);
        assert_eq!(rung.outcome.mismatches, 0);
        // encrypt throughput is measured once by the caller, never per rung
        assert_eq!(rung.outcome.encrypt_ops, 0);
    }

    let stats = running.stop();
    assert_eq!(stats.requests_decrypt, (1 + 2 + 4) * 3);
    assert_eq!(stats.error_replies, 0);
}

#[test]
fn graceful_shutdown_persists_and_reports() {
    let dir = std::env::temp_dir().join(format!("dlr-server-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let share_path = dir.join("sk2.dlr");
    let stats_path = dir.join("stats.json");

    let (pk, s1, s2) = keygen(170);
    let expected_share = s2.to_bytes();
    let mut ring = Keyring::new();
    ring.insert_persistent(b"k", pk.clone(), s2, share_path.clone());
    let config = ServerConfig {
        stats_interval: Some(Duration::from_millis(40)),
        stats_path: Some(stats_path.clone()),
        ..quick_config()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap();
    let running = start_server(server);

    let mut r = rand::rngs::StdRng::seed_from_u64(171);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);
    let mut p1 = Party1::new(pk.clone(), s1);
    let mut t = connect(running.addr());
    driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap();
    assert_eq!(driver::p1_decrypt(&mut p1, &ct, &mut t, &mut r).unwrap(), m);
    driver::p1_shutdown(&mut t).unwrap();

    let addr = running.addr();
    let stats = running.stop();
    assert_eq!(stats.requests_decrypt, 1);

    // Graceful shutdown persisted the (unrefreshed) share and the final
    // stats dump parses as a dlr-metrics report.
    assert_eq!(std::fs::read(&share_path).unwrap(), expected_share);
    let report =
        dlr_metrics::Report::from_json(&std::fs::read_to_string(&stats_path).unwrap()).unwrap();
    assert_eq!(report.meta.get("requests_decrypt").unwrap(), "1");
    assert_eq!(report.meta.get("component").unwrap(), "dlr-server");
    std::fs::remove_dir_all(&dir).unwrap();

    // After run() returns, the port is released.
    assert!(matches!(
        TcpTransport::new(match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => return, // refused immediately: also fine
        })
        .recv(),
        Err(TransportError::Disconnected | TransportError::TimedOut | TransportError::Io(_))
    ));
}

#[test]
fn panicking_dispatch_reclaims_slot_and_keeps_serving() {
    let (pk, s1, s2) = keygen(180);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk.clone(), s2);
    let config = ServerConfig {
        max_sessions: 2,
        inject_panic_tag: Some(0xEE),
        ..quick_config()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    // Crash more sessions than the session limit: if a panicking session
    // leaked its slot (the old accept-path bug), the third connection
    // here would be rejected Busy instead of served.
    for _ in 0..4 {
        let mut t = connect(addr);
        assert_eq!(driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap(), 0);
        t.send(Bytes::from_static(&[0xEE])).unwrap();
        match t.recv() {
            Err(TransportError::Disconnected) => {}
            other => panic!("expected the panicked session to be closed, got {other:?}"),
        }
        wait_until("panicked slot to free", Duration::from_secs(5), || {
            running.handle.active_sessions() == 0
        });
    }

    // The key state survived and the server is fully available.
    let mut r = rand::rngs::StdRng::seed_from_u64(181);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);
    let mut p1 = Party1::new(pk, s1);
    let mut t = connect(addr);
    assert_eq!(driver::p1_hello(&mut t, b"k", GENERATION_ANY).unwrap(), 0);
    assert_eq!(driver::p1_decrypt(&mut p1, &ct, &mut t, &mut r).unwrap(), m);
    driver::p1_shutdown(&mut t).unwrap();

    let stats = running.stop();
    assert_eq!(stats.session_panics, 4);
    assert_eq!(stats.sessions_accepted, 5);
    assert_eq!(stats.sessions_completed, 5);
    assert_eq!(stats.sessions_rejected_busy, 0, "no slot may leak");
    let msg = stats.last_panic.expect("panic message must be recorded");
    assert!(msg.contains("injected fault"), "unexpected message: {msg}");
}

#[test]
fn stalled_busy_reject_does_not_block_the_accept_path() {
    let (pk, _s1, s2) = keygen(185);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk, s2);
    let config = ServerConfig {
        max_sessions: 1,
        reject_write_timeout: Duration::from_millis(100),
        ..quick_config()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    let mut a = connect(addr);
    driver::p1_hello(&mut a, b"k", GENERATION_ANY).unwrap();

    // A client that gets rejected and then just sits there: never reads
    // its Busy reply, never closes its socket.
    let staller = TcpStream::connect(addr).unwrap();
    wait_until("staller to be rejected", Duration::from_secs(5), || {
        running.handle.stats().sessions_rejected_busy == 1
    });

    // The stalled reject must not head-of-line block the accept path
    // (the old server wrote the reject reply synchronously from the
    // accept loop): free the slot and serve a new session while the
    // staller still holds its connection open.
    driver::p1_shutdown(&mut a).unwrap();
    wait_until("slot to free", Duration::from_secs(5), || {
        running.handle.active_sessions() == 0
    });
    let mut c = connect(addr);
    assert_eq!(driver::p1_hello(&mut c, b"k", GENERATION_ANY).unwrap(), 0);
    driver::p1_shutdown(&mut c).unwrap();

    // Long after the server dropped the reject at its deadline, the Busy
    // reply is still sitting in the staller's receive buffer — it was
    // flushed before the drop, so even a slow client learns why it was
    // turned away.
    std::thread::sleep(Duration::from_millis(300));
    let late = TcpTransport::new(staller);
    late.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut late = late;
    match driver::parse_reply(&late.recv().unwrap()) {
        Err(CoreError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Busy as u8),
        other => panic!("expected Busy, got {other:?}"),
    }

    let stats = running.stop();
    assert_eq!(stats.sessions_rejected_busy, 1);
    assert_eq!(stats.sessions_accepted, 2);
    assert_eq!(stats.sessions_completed, 2);
}

/// A lone parked request takes the idle singleton fast-path, and its
/// reply must be byte-identical to the inline (batching-off) path: same
/// `DecMsg2` bytes, same per-request op counters, only the scheduling
/// differs.
#[test]
fn batch_singleton_reply_matches_inline_byte_for_byte() {
    let (pk, s1, s2) = keygen(200);
    let start = |config: ServerConfig| {
        let mut ring = Keyring::new();
        ring.insert(b"k", pk.clone(), s2.clone());
        start_server(Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap())
    };
    let inline_srv = start(quick_config());
    let batched_srv = start(ServerConfig {
        batch_max: 8,
        batch_wait: Duration::from_millis(20),
        ..quick_config()
    });

    let mut r = rand::rngs::StdRng::seed_from_u64(201);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);
    let mut p1 = Party1::new(pk.clone(), s1);

    let mut ti = connect(inline_srv.addr());
    let mut tb = connect(batched_srv.addr());
    driver::p1_hello(&mut ti, b"k", GENERATION_ANY).unwrap();
    driver::p1_hello(&mut tb, b"k", GENERATION_ANY).unwrap();

    const ROUNDS: usize = 3;
    for _ in 0..ROUNDS {
        // One DecMsg1, the identical frame to both servers: dec_respond is
        // deterministic, so any divergence in the batched reply is a bug.
        let m1 = p1.dec_start(&ct, &mut r);
        let mut frame = vec![1u8]; // RequestTag::Decrypt
        frame.extend_from_slice(&m1.to_bytes());
        ti.send(Bytes::from(frame.clone())).unwrap();
        tb.send(Bytes::from(frame)).unwrap();
        let reply_inline = ti.recv().unwrap();
        let reply_batched = tb.recv().unwrap();
        assert_eq!(
            reply_inline, reply_batched,
            "singleton batch reply must be byte-identical to the inline path"
        );
        let body = driver::parse_reply(&reply_batched).unwrap();
        let m2 = DecMsg2::<E>::from_bytes(body, &pk.params).unwrap();
        assert_eq!(p1.dec_finish(&m2).unwrap(), m);
    }
    driver::p1_shutdown(&mut ti).unwrap();
    driver::p1_shutdown(&mut tb).unwrap();

    let inline_stats = inline_srv.stop();
    let batched_stats = batched_srv.stop();
    assert_eq!(inline_stats.requests_decrypt, ROUNDS as u64);
    assert_eq!(inline_stats.batched_requests, 0, "batching off must not park");
    assert_eq!(inline_stats.batch_flushes(), 0);
    assert_eq!(batched_stats.requests_decrypt, ROUNDS as u64);
    // A strict ping-pong client never has two requests in flight, so every
    // round is a singleton flush through the idle fast-path.
    assert_eq!(batched_stats.batched_requests, ROUNDS as u64);
    assert_eq!(batched_stats.batch_flushes_idle, ROUNDS as u64);
    assert_eq!(batched_stats.batch_size_hist[0], ROUNDS as u64);
    assert_eq!(batched_stats.batch_efficiency(), Some(1.0));
}

/// Two sessions bound to different keys park in the same batch window;
/// the flush splits the batch per key entry and both replies are correct.
/// Driven single-threaded (send both, then read both) so the two requests
/// land as close together as the transport allows; rounds repeat until a
/// multi-request flush is observed.
#[test]
fn mixed_key_batch_splits_per_key_and_stays_correct() {
    let (pk_a, s1_a, s2_a) = keygen(210);
    let (pk_b, s1_b, s2_b) = keygen(211);
    let mut ring = Keyring::new();
    ring.insert(b"ka", pk_a.clone(), s2_a);
    ring.insert(b"kb", pk_b.clone(), s2_b);
    let config = ServerConfig {
        workers: 1,
        batch_max: 0, // unbounded
        batch_wait: Duration::from_millis(10),
        ..quick_config()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    let mut r = rand::rngs::StdRng::seed_from_u64(212);
    let m_a = <E as Pairing>::Gt::random(&mut r);
    let m_b = <E as Pairing>::Gt::random(&mut r);
    let ct_a = dlr::encrypt(&pk_a, &m_a, &mut r);
    let ct_b = dlr::encrypt(&pk_b, &m_b, &mut r);
    let mut p1_a = Party1::new(pk_a.clone(), s1_a);
    let mut p1_b = Party1::new(pk_b.clone(), s1_b);

    let mut ta = connect(addr);
    let mut tb = connect(addr);
    driver::p1_hello(&mut ta, b"ka", GENERATION_ANY).unwrap();
    driver::p1_hello(&mut tb, b"kb", GENERATION_ANY).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut rounds = 0u64;
    loop {
        let m1_a = p1_a.dec_start(&ct_a, &mut r);
        let m1_b = p1_b.dec_start(&ct_b, &mut r);
        let mut fa = vec![1u8];
        fa.extend_from_slice(&m1_a.to_bytes());
        let mut fb = vec![1u8];
        fb.extend_from_slice(&m1_b.to_bytes());
        ta.send(Bytes::from(fa)).unwrap();
        tb.send(Bytes::from(fb)).unwrap();
        let body_a = driver::parse_reply(&ta.recv().unwrap()).unwrap().to_vec();
        let body_b = driver::parse_reply(&tb.recv().unwrap()).unwrap().to_vec();
        let m2_a = DecMsg2::<E>::from_bytes(&body_a, &pk_a.params).unwrap();
        let m2_b = DecMsg2::<E>::from_bytes(&body_b, &pk_b.params).unwrap();
        assert_eq!(p1_a.dec_finish(&m2_a).unwrap(), m_a);
        assert_eq!(p1_b.dec_finish(&m2_b).unwrap(), m_b);
        rounds += 1;

        // The only two sessions hold one request each, so any flush of
        // size >= 2 is exactly {key-a request, key-b request}: the split
        // path ran and both answers above were still correct.
        let hist = running.handle.stats().batch_size_hist;
        if hist.iter().skip(1).any(|&c| c > 0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no multi-request flush observed after {rounds} rounds"
        );
    }
    driver::p1_shutdown(&mut ta).unwrap();
    driver::p1_shutdown(&mut tb).unwrap();

    let stats = running.stop();
    assert_eq!(stats.requests_decrypt, 2 * rounds);
    assert_eq!(stats.batched_requests, 2 * rounds, "every decrypt parked");
    assert_eq!(stats.error_replies, 0);
    // A size-2 flush can only close by the adaptive window timer.
    assert!(stats.batch_flushes_timer >= 1);
}

/// A malformed request inside a batch fails alone: its sibling in the same
/// flush decrypts correctly, and the offending session survives to issue a
/// well-formed request afterwards (same contract as the inline path).
#[test]
fn malformed_request_in_batch_fails_alone() {
    let (pk, s1, s2) = keygen(220);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk.clone(), s2);
    let config = ServerConfig {
        workers: 1,
        batch_max: 0,
        batch_wait: Duration::from_millis(10),
        ..quick_config()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    let mut r = rand::rngs::StdRng::seed_from_u64(221);
    let m = <E as Pairing>::Gt::random(&mut r);
    let ct = dlr::encrypt(&pk, &m, &mut r);
    let mut p1 = Party1::new(pk.clone(), s1);

    let mut good = connect(addr);
    let mut bad = connect(addr);
    driver::p1_hello(&mut good, b"k", GENERATION_ANY).unwrap();
    driver::p1_hello(&mut bad, b"k", GENERATION_ANY).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut rounds = 0u64;
    loop {
        let m1 = p1.dec_start(&ct, &mut r);
        let mut frame = vec![1u8];
        frame.extend_from_slice(&m1.to_bytes());
        good.send(Bytes::from(frame)).unwrap();
        // Truncated decrypt body: parks (Decrypt tag, bound session) but
        // fails to parse inside the batch.
        bad.send(Bytes::from_static(&[1, 0, 0])).unwrap();

        let body = driver::parse_reply(&good.recv().unwrap()).unwrap().to_vec();
        let m2 = DecMsg2::<E>::from_bytes(&body, &pk.params).unwrap();
        assert_eq!(p1.dec_finish(&m2).unwrap(), m, "sibling must stay correct");
        match driver::parse_reply(&bad.recv().unwrap()) {
            Err(CoreError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest as u8)
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        rounds += 1;

        let hist = running.handle.stats().batch_size_hist;
        if hist.iter().skip(1).any(|&c| c > 0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no multi-request flush observed after {rounds} rounds"
        );
    }

    // The session that kept sending garbage is still healthy.
    assert_eq!(driver::p1_decrypt(&mut p1, &ct, &mut bad, &mut r).unwrap(), m);
    driver::p1_shutdown(&mut good).unwrap();
    driver::p1_shutdown(&mut bad).unwrap();

    let stats = running.stop();
    assert_eq!(stats.requests_decrypt, rounds + 1);
    assert_eq!(stats.error_replies, rounds);
    assert_eq!(stats.batched_requests, 2 * rounds + 1);
}

/// Extends `panicking_dispatch_reclaims_slot_and_keeps_serving` to the
/// batch execute path: a panic while a flush is being dispatched must
/// release the slot of EVERY parked session in the group. Crashing more
/// sessions than `max_sessions` proves no parked slot leaks.
#[test]
fn panic_in_batch_execute_releases_every_parked_slot() {
    let (pk, _s1, s2) = keygen(230);
    let mut ring = Keyring::new();
    ring.insert(b"k", pk, s2);
    let config = ServerConfig {
        max_sessions: 2,
        workers: 1,
        batch_max: 0,
        batch_wait: Duration::from_millis(10),
        // Decrypt requests park, so the injected fault fires inside
        // batch_dispatch under the execute stage's catch_unwind.
        inject_panic_tag: Some(1),
        ..quick_config()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    const ROUNDS: usize = 3;
    for _ in 0..ROUNDS {
        // Fill BOTH slots, park a decrypt on each, and let the flush panic.
        let mut a = connect(addr);
        let mut b = connect(addr);
        assert_eq!(driver::p1_hello(&mut a, b"k", GENERATION_ANY).unwrap(), 0);
        assert_eq!(driver::p1_hello(&mut b, b"k", GENERATION_ANY).unwrap(), 0);
        a.send(Bytes::from_static(&[1, 0, 0])).unwrap();
        b.send(Bytes::from_static(&[1, 0, 0])).unwrap();
        for t in [&mut a, &mut b] {
            match t.recv() {
                Err(TransportError::Disconnected) => {}
                other => panic!("expected the panicked session to be closed, got {other:?}"),
            }
        }
        wait_until("panicked slots to free", Duration::from_secs(5), || {
            running.handle.active_sessions() == 0
        });
    }

    // Both slots are reusable simultaneously afterwards.
    let mut a = connect(addr);
    let mut b = connect(addr);
    assert_eq!(driver::p1_hello(&mut a, b"k", GENERATION_ANY).unwrap(), 0);
    assert_eq!(driver::p1_hello(&mut b, b"k", GENERATION_ANY).unwrap(), 0);
    driver::p1_shutdown(&mut a).unwrap();
    driver::p1_shutdown(&mut b).unwrap();

    let stats = running.stop();
    // One panic per flushed group: 1 or 2 per round depending on whether
    // the pair clumped into one flush.
    assert!(
        stats.session_panics >= ROUNDS as u64 && stats.session_panics <= 2 * ROUNDS as u64,
        "unexpected panic count {}",
        stats.session_panics
    );
    assert_eq!(stats.batched_requests, 2 * ROUNDS as u64);
    assert_eq!(stats.sessions_accepted, 2 * ROUNDS as u64 + 2);
    assert_eq!(stats.sessions_completed, 2 * ROUNDS as u64 + 2);
    assert_eq!(stats.sessions_rejected_busy, 0, "no parked slot may leak");
    let msg = stats.last_panic.expect("panic message must be recorded");
    assert!(msg.contains("injected fault"), "unexpected message: {msg}");
}

#[test]
fn refresh_on_one_worker_does_not_stall_decrypts_on_another() {
    // Two keys owned by different workers of a two-worker server.
    let workers = 2usize;
    let owner = |id: &[u8]| dlr_protocol::place(id, 1, workers).1;
    let mut ids: Vec<Vec<u8>> = Vec::new();
    for i in 0..64 {
        let id = format!("key-{i}").into_bytes();
        if !ids.iter().any(|x| owner(x) == owner(&id)) {
            ids.push(id);
        }
        if ids.len() == 2 {
            break;
        }
    }
    let [id_a, id_b] = &ids[..] else {
        panic!("could not find ids on distinct workers")
    };
    let (owner_a, owner_b) = (owner(id_a), owner(id_b));
    assert_ne!(owner_a, owner_b);

    let (pk_a, s1_a, s2_a) = keygen(190);
    let (pk_b, s1_b, s2_b) = keygen(191);
    let mut ring = Keyring::new();
    ring.insert(id_a, pk_a.clone(), s2_a);
    ring.insert(id_b, pk_b.clone(), s2_b);
    let config = ServerConfig {
        workers,
        ..quick_config()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(ring), config).unwrap();
    let running = start_server(server);
    let addr = running.addr();

    const DECRYPTS: usize = 30;
    const REFRESHES: usize = 5;
    let start = Arc::new(Barrier::new(2));

    // Key B: a client hammering decrypts while key A refreshes.
    let decrypter = {
        let id_b = id_b.clone();
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            let mut r = rand::rngs::StdRng::seed_from_u64(192);
            let m = <E as Pairing>::Gt::random(&mut r);
            let ct = dlr::encrypt(&pk_b, &m, &mut r);
            let mut p1 = Party1::new(pk_b, s1_b);
            let mut t = connect(addr);
            driver::p1_hello(&mut t, &id_b, GENERATION_ANY).unwrap();
            start.wait();
            let mut max_latency = Duration::ZERO;
            for _ in 0..DECRYPTS {
                let t0 = Instant::now();
                assert_eq!(driver::p1_decrypt(&mut p1, &ct, &mut t, &mut r).unwrap(), m);
                max_latency = max_latency.max(t0.elapsed());
            }
            driver::p1_shutdown(&mut t).unwrap();
            max_latency
        })
    };

    // Key A: its generation advances while B's session (bound to
    // an untouched key on another worker) keeps decrypting.
    let mut r = rand::rngs::StdRng::seed_from_u64(193);
    let mut p1 = Party1::new(pk_a, s1_a);
    let mut t = connect(addr);
    driver::p1_hello(&mut t, id_a, GENERATION_ANY).unwrap();
    start.wait();
    for _ in 0..REFRESHES {
        driver::p1_refresh(&mut p1, &mut t, &mut r).unwrap();
    }
    driver::p1_shutdown(&mut t).unwrap();
    let max_latency = decrypter.join().unwrap();

    // A slow key-A refresh may briefly share the wire, but a decrypt
    // of key B must never wait out a lock on another worker.
    assert!(
        max_latency < Duration::from_secs(2),
        "key-B decrypt stalled for {max_latency:?}"
    );

    let stats = running.stop();
    assert_eq!(stats.refreshes, REFRESHES as u64);
    assert_eq!(stats.requests_decrypt, DECRYPTS as u64);
    assert_eq!(stats.error_replies, 0);
    assert_eq!(stats.workers.len(), workers);
    // Requests were attributed to the worker owning their key.
    assert_eq!(stats.workers[owner_a].requests, REFRESHES as u64 + 1);
    assert_eq!(stats.workers[owner_b].requests, DECRYPTS as u64 + 1);
    assert_eq!(stats.workers[owner_a].sessions, 1);
    assert_eq!(stats.workers[owner_b].sessions, 1);
}
