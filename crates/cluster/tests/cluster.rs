//! End-to-end tests for the dlr-cluster subsystem: routed clients over a
//! key-partitioned fleet, NotMine redirects, mid-load replica failover,
//! replica-local epoch boundaries, and worker placement inside replicas.

use dlr_cluster::loadgen::{
    run_fleet_ladder, run_fleet_loadgen, FleetFault, FleetKeyMaterial, FleetLadderConfig,
    FleetLadderKey, FleetLoadgenConfig,
};
use dlr_cluster::{EpochCoordinator, Fleet, FleetConfig};
use dlr_core::dlr::{self, Party1, PublicKey, Share1, Share2};
use dlr_core::driver::{self, RetryPolicy, Router, GENERATION_ANY};
use dlr_core::params::SchemeParams;
use dlr_core::CoreError;
use dlr_curve::{Group, Pairing, Toy};
use dlr_protocol::place;
use dlr_protocol::transport::{TcpTransport, Transport};
use dlr_server::ServerConfig;
use rand::SeedableRng;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

type E = Toy;

fn keygen(seed: u64) -> (PublicKey<E>, Share1<E>, Share2<E>) {
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let params = SchemeParams::derive::<<E as Pairing>::Scalar>(16, 64);
    dlr::keygen::<E, _>(params, &mut r)
}

/// A key id placed on `replica` of a `replicas`-strong fleet.
fn id_on_replica(replica: usize, replicas: usize) -> Vec<u8> {
    (0u32..)
        .map(|n| format!("key-{n}").into_bytes())
        .find(|id| place(id, replicas, 1).0 == replica)
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlr-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_config() -> ServerConfig {
    ServerConfig {
        max_sessions: 16,
        read_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

fn connect(addr: &str) -> Result<Box<dyn Transport>, CoreError> {
    let stream = TcpStream::connect(addr).map_err(|e| CoreError::Transport(e.into()))?;
    let t = TcpTransport::new(stream);
    let _ = t.set_nodelay(true);
    let _ = t.set_read_timeout(Some(Duration::from_secs(5)));
    Ok(Box::new(t))
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(100),
        ..RetryPolicy::default()
    }
}

/// Two replicas, a key on each: the topology is fetchable from any
/// replica, correctly-routed clients never redirect, and a stale route is
/// healed by exactly one NotMine redirect.
#[test]
fn routed_clients_reach_sharded_keys() {
    let (pk_a, s1_a, s2_a) = keygen(900);
    let (pk_b, s1_b, s2_b) = keygen(901);
    let id_a = id_on_replica(0, 2);
    let id_b = id_on_replica(1, 2);

    let fleet = Fleet::spawn(
        FleetConfig {
            replicas: 2,
            data_dir: temp_dir("smoke"),
            base: quick_config(),
            epoch_sweep: None,
        },
        vec![
            (id_a.clone(), pk_a.clone(), s2_a),
            (id_b.clone(), pk_b.clone(), s2_b),
        ],
    )
    .unwrap();
    assert_eq!(fleet.owner_of(&id_a), 0);
    assert_eq!(fleet.owner_of(&id_b), 1);

    // The topology is served by every replica and names the whole fleet.
    for i in 0..2 {
        let mut t = connect(&fleet.addr(i).to_string()).unwrap();
        let topo = driver::p1_fetch_topology(t.as_mut()).unwrap();
        assert_eq!(topo.replicas, fleet.topology().replicas);
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut router = Router::new(fleet.topology().clone(), fast_retry());
    for (id, pk, s1) in [(&id_a, &pk_a, &s1_a), (&id_b, &pk_b, &s1_b)] {
        let message = <E as Pairing>::Gt::random(&mut rng);
        let ct = dlr::encrypt(pk, &message, &mut rng);
        let mut p1 = Party1::new(pk.clone(), s1.clone());
        let got = router
            .decrypt(&mut p1, &ct, id, &mut connect, &mut rng)
            .unwrap();
        assert_eq!(got, message);
    }
    assert_eq!(router.redirects(), 0, "correct routes must not redirect");

    // A stale route (key B pinned to replica 0) heals via one NotMine.
    let mut stale = Router::new(fleet.topology().clone(), fast_retry());
    stale.seed_route(&id_b, &fleet.topology().replicas[0]);
    let message = <E as Pairing>::Gt::random(&mut rng);
    let ct = dlr::encrypt(&pk_b, &message, &mut rng);
    let mut p1 = Party1::new(pk_b.clone(), s1_b.clone());
    let got = stale
        .decrypt(&mut p1, &ct, &id_b, &mut connect, &mut rng)
        .unwrap();
    assert_eq!(got, message);
    assert_eq!(stale.redirects(), 1);

    // The mis-routed hello shows up in replica 0's counters.
    let stats = fleet.stats();
    assert_eq!(stats[0].as_ref().unwrap().not_mine_replies, 1);
    assert_eq!(stats[1].as_ref().unwrap().not_mine_replies, 0);

    fleet.shutdown().unwrap();
}

/// Kill the owning replica mid-load and restart it: every in-flight
/// request completes through the routers' retry envelope with zero
/// mismatches and zero failures, and the failover counters prove the
/// outage was actually hit.
#[test]
fn routed_load_survives_replica_restart() {
    let (pk, s1, s2) = keygen(910);
    let id = id_on_replica(0, 2);

    let mut fleet = Fleet::spawn(
        FleetConfig {
            replicas: 2,
            data_dir: temp_dir("failover"),
            base: quick_config(),
            epoch_sweep: None,
        },
        vec![(id.clone(), pk.clone(), s2)],
    )
    .unwrap();
    let owner = fleet.owner_of(&id);
    let topology = fleet.topology().clone();
    let material = vec![FleetKeyMaterial {
        id: id.clone(),
        pk,
        share1: s1,
    }];
    let config = FleetLoadgenConfig {
        clients: 3,
        requests_per_client: 60,
        read_timeout: Some(Duration::from_millis(500)),
        max_reconnects: 64,
        backoff: RetryPolicy {
            max_attempts: 12,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            ..RetryPolicy::default()
        },
        encrypt_ops: 0,
        seed_stale_routes: false,
    };

    let total = (config.clients * config.requests_per_client) as u64;
    let kill_at = total / 6;
    let outcome = std::thread::scope(|s| {
        let loadgen = s.spawn(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            run_fleet_loadgen::<E, _>(&topology, &material, &config, &mut rng)
        });
        // Pull the owning replica out from under the load once a sixth of
        // it is served, then bring it back on the same address. The kill
        // follows progress, not a delay: the whole load can finish in
        // under 100 ms.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let served = fleet.stats()[owner]
                .as_ref()
                .map_or(0, |s| s.requests_decrypt);
            if served >= kill_at {
                break;
            }
            assert!(
                !loadgen.is_finished() && Instant::now() < deadline,
                "owner replica served {served} of {total} decrypts, never reached {kill_at}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        fleet.kill_replica(owner).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        fleet.restart_replica(owner).unwrap();
        loadgen.join().expect("loadgen thread panicked")
    });

    assert_eq!(outcome.client_panics, 0);
    assert_eq!(outcome.mismatches, 0, "failover must never corrupt plaintexts");
    assert_eq!(outcome.failures, 0, "retry envelope should absorb the outage");
    assert_eq!(outcome.successes, outcome.requests);
    assert!(
        outcome.failovers + outcome.reconnects > 0,
        "the outage window was never observed — kill/restart timing is off"
    );

    // The restarted seat has a fresh incarnation plus a retired one.
    assert!(fleet.is_up(owner));
    assert_eq!(fleet.retired_stats(owner).len(), 1);
    fleet.shutdown().unwrap();
}

/// Epoch boundaries are replica-local: kicking key A's replica advances
/// only that replica's epoch; a live session decrypting key B on
/// the other replica sees no stall, no reconnect, and no epoch movement.
#[test]
fn epoch_refresh_is_replica_local() {
    let (pk_a, _s1_a, s2_a) = keygen(920);
    let (pk_b, s1_b, s2_b) = keygen(921);
    let id_a = id_on_replica(0, 2);
    let id_b = id_on_replica(1, 2);

    let fleet = Fleet::spawn(
        FleetConfig {
            replicas: 2,
            data_dir: temp_dir("epoch"),
            base: quick_config(),
            epoch_sweep: None,
        },
        vec![(id_a.clone(), pk_a, s2_a), (id_b.clone(), pk_b.clone(), s2_b)],
    )
    .unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let message = <E as Pairing>::Gt::random(&mut rng);
    let ct = dlr::encrypt(&pk_b, &message, &mut rng);
    let mut p1 = Party1::new(pk_b.clone(), s1_b);

    // Hold one session open to key B on replica 1 across the whole test.
    let mut t = connect(&fleet.addr(1).to_string()).unwrap();
    driver::p1_hello(t.as_mut(), &id_b, GENERATION_ANY).unwrap();
    assert_eq!(driver::p1_decrypt(&mut p1, &ct, t.as_mut(), &mut rng).unwrap(), message);

    let coordinator = EpochCoordinator::new(&fleet);
    let epochs_before = coordinator.epochs();
    let (kicked, epoch_after) = coordinator
        .kick_shard_sync(0, Duration::from_secs(5))
        .unwrap();
    assert_eq!(kicked, 0, "slot 0 is replica 0");
    assert!(epoch_after > epochs_before[0].unwrap());

    // Replica 1 never saw a boundary, and the open session keeps serving
    // decrypts with no re-hello — a fleet-wide pause would break both.
    assert_eq!(coordinator.epoch_of_replica(1), epochs_before[1]);
    for _ in 0..5 {
        assert_eq!(
            driver::p1_decrypt(&mut p1, &ct, t.as_mut(), &mut rng).unwrap(),
            message
        );
    }

    // kick_key resolves the key's placement to the same owner.
    let replica = coordinator.kick_key(&id_a).unwrap();
    assert_eq!(replica, 0);

    let _ = driver::p1_shutdown(t.as_mut());
    fleet.shutdown().unwrap();
}

/// The opt-in epoch-sweep timer rolls staggered boundaries across the
/// whole fleet on its own clock: a live session keeps decrypting with
/// bounded latency right through the waves (no fleet-wide pause), killed
/// seats are skipped without stalling the timer, and shutdown stops the
/// sweeper cleanly.
#[test]
fn timed_epoch_sweep_never_blocks_live_decrypts() {
    let (pk_a, _s1_a, s2_a) = keygen(940);
    let (pk_b, s1_b, s2_b) = keygen(941);
    let id_a = id_on_replica(0, 2);
    let id_b = id_on_replica(1, 2);

    let mut fleet = Fleet::spawn(
        FleetConfig {
            replicas: 2,
            data_dir: temp_dir("sweep"),
            base: quick_config(),
            epoch_sweep: Some(Duration::from_millis(60)),
        },
        vec![(id_a, pk_a, s2_a), (id_b.clone(), pk_b.clone(), s2_b)],
    )
    .unwrap();
    assert!(fleet.sweeper_running());

    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let message = <E as Pairing>::Gt::random(&mut rng);
    let ct = dlr::encrypt(&pk_b, &message, &mut rng);
    let mut p1 = Party1::new(pk_b.clone(), s1_b);
    let mut t = connect(&fleet.addr(1).to_string()).unwrap();
    driver::p1_hello(t.as_mut(), &id_b, GENERATION_ANY).unwrap();

    // Decrypt continuously until two complete waves have been issued. A
    // sweep kicks BOTH replicas (including the one serving this session),
    // so a bounded per-request latency here proves boundaries are
    // asynchronous and replica-local — mid-sweep decrypts never block.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut max_latency = Duration::ZERO;
    while fleet.epoch_sweeps() < 2 {
        assert!(Instant::now() < deadline, "sweep timer never completed two waves");
        let t0 = Instant::now();
        assert_eq!(
            driver::p1_decrypt(&mut p1, &ct, t.as_mut(), &mut rng).unwrap(),
            message
        );
        max_latency = max_latency.max(t0.elapsed());
    }
    assert!(
        max_latency < Duration::from_secs(2),
        "decrypt stalled for {max_latency:?} during a sweep wave"
    );
    // force_epoch is asynchronous; give each replica's scheduler a bounded
    // moment for the issued boundaries to land, then both must have moved.
    {
        let coordinator = EpochCoordinator::new(&fleet);
        while coordinator.epochs().iter().any(|e| e.unwrap_or(0) < 2) {
            assert!(Instant::now() < deadline, "issued epoch boundaries never landed");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // Kill a seat mid-schedule: subsequent waves skip it (no error, no
    // stall) and the surviving replica keeps advancing.
    fleet.kill_replica(0).unwrap();
    let sweeps_at_kill = fleet.epoch_sweeps();
    let epoch_b = fleet.handle(1).unwrap().epoch();
    while fleet.epoch_sweeps() < sweeps_at_kill + 2 {
        assert!(Instant::now() < deadline, "sweeps stopped after a replica was killed");
        assert_eq!(
            driver::p1_decrypt(&mut p1, &ct, t.as_mut(), &mut rng).unwrap(),
            message
        );
    }
    while fleet.handle(1).unwrap().epoch() < epoch_b + 2 {
        assert!(Instant::now() < deadline, "surviving replica stopped sweeping");
        std::thread::sleep(Duration::from_millis(2));
    }
    fleet.restart_replica(0).unwrap();

    let _ = driver::p1_shutdown(t.as_mut());
    // Clean shutdown: the timer is stopped and joined before the replicas
    // go down, so no wave races the teardown.
    let histories = fleet.shutdown().unwrap();
    assert_eq!(histories.len(), 2);
}

/// The replica ladder completes a faulted rung: a mid-rung restart is
/// absorbed (no abort, no panics) and the rung still reports per-replica
/// latencies.
#[test]
fn fleet_ladder_tolerates_faulted_rung() {
    let (pk, s1, s2) = keygen(930);
    let id = id_on_replica(0, 2);
    let keys = vec![FleetLadderKey {
        id,
        pk,
        share1: s1,
        share2: s2,
    }];
    let config = FleetLadderConfig {
        replica_rungs: vec![1, 2],
        data_dir: temp_dir("ladder"),
        base_server: quick_config(),
        base: FleetLoadgenConfig {
            clients: 2,
            requests_per_client: 40,
            read_timeout: Some(Duration::from_millis(500)),
            max_reconnects: 64,
            backoff: RetryPolicy {
                max_attempts: 12,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
            encrypt_ops: 0,
            seed_stale_routes: true,
        },
        fault: Some(FleetFault {
            replica: 0,
            delay: Duration::from_millis(100),
            downtime: Duration::from_millis(150),
        }),
        epoch_sweep: None,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let rungs = run_fleet_ladder::<E, _>(&config, &keys, &mut rng).unwrap();

    assert_eq!(rungs.len(), 2);
    // Rung 1 (single replica) runs un-faulted.
    assert_eq!(rungs[0].restarted_replica, None);
    assert_eq!(rungs[0].outcome.mismatches, 0);
    assert_eq!(rungs[0].outcome.successes, rungs[0].outcome.requests);
    // Rung 2 absorbs the restart of the key's owner.
    assert_eq!(rungs[1].restarted_replica, Some(0));
    assert_eq!(rungs[1].outcome.client_panics, 0);
    assert_eq!(rungs[1].outcome.mismatches, 0);
    assert_eq!(rungs[1].outcome.failures, 0);
    assert!(!rungs[1].outcome.per_replica.is_empty());
}

/// Replica and worker placement are independent: with two replicas of two
/// workers each, routed decrypts on eight keys reach every worker of every
/// replica. Reducing one hash modulo both counts would leave replica `i`
/// only worker `i`.
#[test]
fn every_worker_of_every_replica_owns_keys() {
    const KEYS: u64 = 8;
    let keys: Vec<FleetLadderKey<E>> = (0..KEYS)
        .map(|i| {
            let (pk, share1, share2) = keygen(950 + i);
            FleetLadderKey {
                id: format!("key-{i}").into_bytes(),
                pk,
                share1,
                share2,
            }
        })
        .collect();
    let fleet = Fleet::spawn(
        FleetConfig {
            replicas: 2,
            data_dir: temp_dir("workers"),
            base: ServerConfig {
                workers: 2,
                ..quick_config()
            },
            epoch_sweep: None,
        },
        keys.iter()
            .map(|k| (k.id.clone(), k.pk.clone(), k.share2.clone()))
            .collect(),
    )
    .unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut router = Router::new(fleet.topology().clone(), fast_retry());
    for key in &keys {
        let message = <E as Pairing>::Gt::random(&mut rng);
        let ct = dlr::encrypt(&key.pk, &message, &mut rng);
        let mut p1 = Party1::new(key.pk.clone(), key.share1.clone());
        let got = router
            .decrypt(&mut p1, &ct, &key.id, &mut connect, &mut rng)
            .unwrap();
        assert_eq!(got, message);
    }

    for (replica, history) in fleet.shutdown().unwrap().iter().enumerate() {
        let stats = history.last().unwrap();
        assert_eq!(stats.workers.len(), 2);
        for (worker, counters) in stats.workers.iter().enumerate() {
            assert!(
                counters.requests > 0,
                "worker {worker} of replica {replica} served no request: {:?}",
                stats.workers
            );
        }
    }
}
