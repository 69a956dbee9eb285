//! CLI subcommand implementations, generic over the curve parameter set.

use crate::args::{ArgError, Args};
use dlr_core::dlr::{self, Party1, Party2, PublicKey, Share1, Share2};
use dlr_core::driver::{self, GENERATION_ANY};
use dlr_core::error::CoreError;
use dlr_core::kem::{self, HybridCiphertext};
use dlr_core::params::SchemeParams;
use dlr_curve::{Group, Pairing, Ss1024, Ss512, Ss768, Toy};
use dlr_protocol::runtime::run_pair;
use dlr_protocol::transport::TcpTransport;
use dlr_protocol::Transport;
use dlr_cluster::{run_fleet_ladder, FleetFault, FleetLadderConfig, FleetLadderKey};
use dlr_server::{Keyring, LoadgenConfig, Server, ServerConfig};
use std::error::Error;
use std::fs;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

type AnyError = Box<dyn Error>;

const HELP: &str = "\
dlr — distributed public key encryption secure against continual leakage

subcommands:
  keygen          --out-dir DIR [--curve toy|ss512|ss768|ss1024] [--n N] [--lambda L]
  info            --pk FILE [--curve C]
  encrypt         --pk FILE --in FILE --out FILE [--curve C]
  decrypt         --pk FILE --sk1 FILE --sk2 FILE --in FILE --out FILE [--curve C]
  refresh         --pk FILE --sk1 FILE --sk2 FILE [--curve C]
  serve-p2        --pk FILE --sk2 FILE --listen ADDR [--curve C] [--key-id ID]
                  [--max-sessions N] [--workers N]
                  [--epoch-secs S] [--stats-json FILE] [--stats-secs S]
                  [--batch-max N] [--batch-wait-us US]
  decrypt-remote  --pk FILE --sk1 FILE --connect ADDR --in FILE --out FILE
                  [--curve C] [--key-id ID] [--retries N]
  loadgen         --pk FILE --sk1 FILE --connect ADDR [--curve C] [--key-id ID]
                  [--clients N] [--requests N] [--out FILE]
  cluster         [--curve C] [--replicas N] [--keys K] [--clients N] [--requests N]
                  [--n N] [--lambda L] [--out FILE]
                  [--fault-ms MS] [--downtime-ms MS] [--fault-replica I]
                  [--epoch-sweep-secs S] [--batch-max N] [--batch-wait-us US]
  metrics         [--curve C] [--trials N] [--n N] [--lambda L]
  artifact        [--profile kick-tires|full] [--out DIR] [--mode all|generate|check]
                  [--docs FILE] [--l2-workers N,N,...]
  help

`serve-p2` runs the concurrent dlr-server key-share service: a fixed set
of readiness event loops (--workers, 0 = auto) driving nonblocking
sessions, each key owned by one of them (chosen by a hash of its id),
per-session key selection via hello, epoch-driven refresh
boundaries (--epoch-secs), durable share persistence back to --sk2 after
every refresh, and periodic JSON stats dumps. --batch-max N with N != 1
turns on dynamic cross-request batching: decrypt requests decoded in the
same readiness tick are executed as one fused multi-exponentiation batch
per key (N = 0 removes the size cap; --batch-wait-us bounds how long a
multi-request window stays open; a lone request is flushed immediately,
preserving idle latency). `loadgen` drives a running server with
concurrent closed-loop decrypt clients and prints (or writes with --out)
a throughput/latency report in dlr-metrics JSON.

`cluster` is a self-contained fleet demo: it generates K keys in
process, spawns a fleet of --replicas dlr-server instances (each key
owned by the replica its id hashes to; the same hash picks its worker
inside the replica), then drives the routed closed-loop load generator
— every client follows NotMine redirects and fails over on replica death. With
--fault-ms it kills replica --fault-replica (default 0, below --replicas)
that many ms into the run and restarts it after --downtime-ms, proving
routed clients ride through the outage. --epoch-sweep-secs S rolls a staggered
epoch boundary across the running replicas every S seconds while the
load runs; --batch-max/--batch-wait-us enable per-replica cross-request
batching as in serve-p2. Prints aggregate and per-replica percentiles
plus redirect/failover counters; --out writes the dlr-metrics JSON
report.

`metrics` runs an instrumented in-process session (keygen, encrypt, N
decrypt/refresh trials, plus one transport-backed decrypt+refresh) and
prints the per-phase span tree, group-operation counts and wire traffic.

`artifact` regenerates the measured EXPERIMENTS.md tables (A6 span
fingerprint, A7 fixed-base parity, A8 multiexp crossover, L1 server
load, L2 high-concurrency ladder, L3 fleet replica ladder; the full
profile adds the L1 concurrency ladder, and --l2-workers N,N,... adds
an ungated machine-dependent worker-count sweep of the L2 workload)
into --out (default `out/`) as markdown + CSV
+ raw metrics JSON, then diffs them against the committed tables in
--docs (default `EXPERIMENTS.md`): op-count cells must match exactly,
columns headed `(md)` are machine-dependent and skipped. Exits nonzero
on any drift. `tools/kick-tires.sh` and `tools/full.sh` wrap it.
";

/// Dispatch a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), AnyError> {
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{HELP}");
        return Ok(());
    }
    let args = Args::parse(argv)?;
    if let Some(flags) = help_flags(&args.command) {
        args.reject_unknown(&flags)?;
    }
    match args.get_or("curve", "toy") {
        "toy" => run::<Toy>(&args),
        "ss512" => run::<Ss512>(&args),
        "ss768" => run::<Ss768>(&args),
        "ss1024" => run::<Ss1024>(&args),
        other => Err(Box::new(ArgError(format!("unknown curve `{other}`")))),
    }
}

/// The flags HELP lists for `command` (without the `--`), or `None` when
/// HELP has no row for it. HELP is the one list of each subcommand's
/// flags: a row starts two columns in with the subcommand's name, and
/// rows indented further continue it.
fn help_flags(command: &str) -> Option<Vec<&'static str>> {
    let table = HELP.split("subcommands:\n").nth(1)?.split("\n\n").next()?;
    let mut rows = table
        .lines()
        .skip_while(|row| row.split_whitespace().next() != Some(command));
    let first = rows.next()?;
    let rest = rows.take_while(|row| row.starts_with("   "));
    Some(
        std::iter::once(first)
            .chain(rest)
            .flat_map(str::split_whitespace)
            .filter_map(|word| word.trim_start_matches('[').strip_prefix("--"))
            .map(|flag| flag.trim_end_matches(']'))
            .collect(),
    )
}

fn run<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    match args.command.as_str() {
        "keygen" => keygen::<E>(args),
        "info" => info::<E>(args),
        "encrypt" => encrypt::<E>(args),
        "decrypt" => decrypt::<E>(args),
        "refresh" => refresh::<E>(args),
        "serve-p2" => serve_p2::<E>(args),
        "decrypt-remote" => decrypt_remote::<E>(args),
        "loadgen" => loadgen::<E>(args),
        "cluster" => cluster::<E>(args),
        "metrics" => metrics::<E>(args),
        "artifact" => artifact(args),
        other => Err(Box::new(ArgError(format!(
            "unknown subcommand `{other}` (try `dlr help`)"
        )))),
    }
}

fn load_pk<E: Pairing>(args: &Args) -> Result<PublicKey<E>, AnyError> {
    let bytes = fs::read(args.require("pk")?)?;
    Ok(PublicKey::<E>::from_bytes(&bytes)?)
}

fn load_shares<E: Pairing>(
    args: &Args,
    pk: &PublicKey<E>,
) -> Result<(Share1<E>, Share2<E>), AnyError> {
    let s1 = Share1::<E>::from_bytes(&fs::read(args.require("sk1")?)?, &pk.params)?;
    let s2 = Share2::<E>::from_bytes(&fs::read(args.require("sk2")?)?, &pk.params)?;
    Ok((s1, s2))
}

fn keygen<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let out_dir = args.require("out-dir")?;
    let n = args.get_u32_or("n", 32)?;
    let lambda = args.get_u32_or("lambda", 256)?;
    let params = SchemeParams::derive::<E::Scalar>(n, lambda);
    let mut rng = rand::thread_rng();
    let (pk, s1, s2) = dlr::keygen::<E, _>(params, &mut rng);

    fs::create_dir_all(out_dir)?;
    let dir = Path::new(out_dir);
    fs::write(dir.join("pk.dlr"), pk.to_bytes())?;
    fs::write(dir.join("sk1.dlr"), s1.to_bytes())?;
    fs::write(dir.join("sk2.dlr"), s2.to_bytes())?;
    println!(
        "wrote {}/pk.dlr, sk1.dlr (device P1), sk2.dlr (device P2); κ={}, ℓ={}",
        out_dir, params.kappa, params.ell
    );
    println!("provision sk1 and sk2 onto *different* devices, then delete them here.");
    Ok(())
}

fn info<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let pk = load_pk::<E>(args)?;
    let p = pk.params;
    println!("DLR public key");
    println!("  security parameter n : {} (ε = 2^-{})", p.n, p.n);
    println!("  leakage parameter λ  : {} bits/period from P1", p.lambda);
    println!("  group order bits     : {}", p.log_p);
    println!("  κ (HPSKE key len)    : {}", p.kappa);
    println!("  ℓ (Πss key len)      : {}", p.ell);
    Ok(())
}

fn encrypt<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let pk = load_pk::<E>(args)?;
    let payload = fs::read(args.require("in")?)?;
    let mut rng = rand::thread_rng();
    let ct = kem::seal(&pk, &payload, &mut rng);
    fs::write(args.require("out")?, ct.to_bytes())?;
    println!(
        "encrypted {} bytes -> {} bytes",
        payload.len(),
        ct.to_bytes().len()
    );
    Ok(())
}

fn decrypt<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let pk = load_pk::<E>(args)?;
    let (s1, s2) = load_shares::<E>(args, &pk)?;
    let ct = HybridCiphertext::<E>::from_bytes(&fs::read(args.require("in")?)?)?;
    let mut rng = rand::thread_rng();
    let mut p1 = Party1::new(pk.clone(), s1);
    let mut p2 = Party2::new(pk, s2);
    let payload = kem::open_local(&mut p1, &mut p2, &ct, &mut rng)?;
    fs::write(args.require("out")?, &payload)?;
    println!("decrypted {} bytes", payload.len());
    Ok(())
}

fn refresh<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let pk = load_pk::<E>(args)?;
    let (s1, s2) = load_shares::<E>(args, &pk)?;
    let mut rng = rand::thread_rng();
    let mut p1 = Party1::new(pk.clone(), s1);
    let mut p2 = Party2::new(pk.clone(), s2);
    dlr::refresh_local(&mut p1, &mut p2, &mut rng)?;
    fs::write(args.require("sk1")?, p1.share().to_bytes())?;
    fs::write(args.require("sk2")?, p2.share().to_bytes())?;
    println!("shares refreshed in place (public key unchanged)");
    Ok(())
}

fn serve_p2<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let pk = load_pk::<E>(args)?;
    let sk2_path = PathBuf::from(args.require("sk2")?);
    let s2 = Share2::<E>::from_bytes(&fs::read(&sk2_path)?, &pk.params)?;
    let key_id = args.get_or("key-id", "default").as_bytes().to_vec();

    // The share file doubles as the durable store: every refresh is
    // persisted back to it atomically before the reply leaves.
    let mut keyring = Keyring::new();
    keyring.insert_persistent(&key_id, pk, s2, sk2_path);

    let epoch_secs = args.get_u32_or("epoch-secs", 0)?;
    let stats_secs = args.get_u32_or("stats-secs", 10)?;
    let config = ServerConfig {
        max_sessions: args.get_u32_or("max-sessions", 32)? as usize,
        workers: args.get_u32_or("workers", 0)? as usize,
        epoch_interval: (epoch_secs > 0).then(|| Duration::from_secs(epoch_secs.into())),
        stats_interval: (stats_secs > 0).then(|| Duration::from_secs(stats_secs.into())),
        stats_path: args.options_get("stats-json").map(PathBuf::from),
        batch_max: args.get_u32_or("batch-max", 1)? as usize,
        batch_wait: Duration::from_micros(args.get_u32_or("batch-wait-us", 0)?.into()),
        ..ServerConfig::default()
    };
    let workers = config.resolved_workers();
    let batching = if config.batching_enabled() {
        format!(
            ", batching <= {} / {} µs",
            if config.batch_max == 0 {
                "∞".to_string()
            } else {
                config.batch_max.to_string()
            },
            config.batch_wait.as_micros()
        )
    } else {
        String::new()
    };
    let server = Server::bind(args.require("listen")?, Arc::new(keyring), config)?;
    println!(
        "dlr-server: P2 serving on {} (key id `{}`, {workers} workers{batching})",
        server.handle().local_addr(),
        args.get_or("key-id", "default"),
    );
    let stats = server.run()?;
    println!(
        "server exited: {} sessions, {} decrypts, {} refreshes, {} error replies",
        stats.sessions_completed, stats.requests_decrypt, stats.refreshes, stats.error_replies
    );
    Ok(())
}

fn decrypt_remote<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let pk = load_pk::<E>(args)?;
    let s1 = Share1::<E>::from_bytes(&fs::read(args.require("sk1")?)?, &pk.params)?;
    let ct = HybridCiphertext::<E>::from_bytes(&fs::read(args.require("in")?)?)?;
    let addr = args.require("connect")?.to_string();
    let key_id = args.get_or("key-id", "default").as_bytes().to_vec();
    let mut rng = rand::thread_rng();
    let mut p1 = Party1::new(pk.clone(), s1);

    // KEM decap over the wire with capped-exponential-backoff retry
    // (reconnect + re-hello per attempt), DEM locally.
    let policy = driver::RetryPolicy {
        max_attempts: args.get_u32_or("retries", 4)?.max(1),
        ..driver::RetryPolicy::default()
    };
    let mut connect = || -> Result<Box<dyn Transport>, CoreError> {
        let stream = TcpStream::connect(&addr).map_err(dlr_protocol::TransportError::from)?;
        let mut t = TcpTransport::new(stream);
        let _ = t.set_nodelay(true);
        driver::p1_hello(&mut t, &key_id, GENERATION_ANY)?;
        Ok(Box::new(t))
    };
    let k = driver::p1_decrypt_with_retry(&mut p1, &ct.kem, &mut connect, &policy, &mut rng)?;
    let payload = kem::open_with_key::<E>(&k, &ct)?;
    fs::write(args.require("out")?, &payload)?;
    println!("decrypted {} bytes via remote P2", payload.len());
    Ok(())
}

fn loadgen<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let pk = load_pk::<E>(args)?;
    let s1 = Share1::<E>::from_bytes(&fs::read(args.require("sk1")?)?, &pk.params)?;
    let addr = args
        .require("connect")?
        .parse()
        .map_err(|e| ArgError(format!("--connect must be a socket address: {e}")))?;
    let config = LoadgenConfig {
        clients: args.get_u32_or("clients", 4)? as usize,
        requests_per_client: args.get_u32_or("requests", 25)? as usize,
        key_id: args.get_or("key-id", "default").as_bytes().to_vec(),
        ..LoadgenConfig::default()
    };
    let mut rng = rand::thread_rng();
    let outcome = dlr_server::run_loadgen::<E, _>(addr, &pk, &s1, &config, &mut rng);
    let report = outcome.to_report().to_json();
    match args.options_get("out") {
        Some(path) => {
            fs::write(path, &report)?;
            println!(
                "loadgen: {}/{} ok, {:.1} req/s, p50 {} µs, p99 {} µs -> {path}",
                outcome.successes,
                outcome.requests,
                outcome.throughput_rps(),
                outcome.latency_percentile_ns(50.0) / 1_000,
                outcome.latency_percentile_ns(99.0) / 1_000,
            );
        }
        None => println!("{report}"),
    }
    if outcome.failures > 0 || outcome.mismatches > 0 {
        return Err(Box::new(ArgError(format!(
            "loadgen saw {} failures and {} plaintext mismatches",
            outcome.failures, outcome.mismatches
        ))));
    }
    Ok(())
}

/// Self-contained fleet demo: keygen in process, spawn a replica fleet,
/// drive it with routed clients, optionally kill and restart one replica
/// mid-load, and report per-replica percentiles.
fn cluster<E: Pairing>(args: &Args) -> Result<(), AnyError> {
    let replicas = (args.get_u32_or("replicas", 2)? as usize).max(1);
    let key_count = (args.get_u32_or("keys", 4)? as usize).max(1);
    let clients = (args.get_u32_or("clients", 4)? as usize).max(1);
    let requests = args.get_u32_or("requests", 25)? as usize;
    let n = args.get_u32_or("n", 16)?;
    let lambda = args.get_u32_or("lambda", 64)?;
    let fault_ms = args.get_u32_or("fault-ms", 0)?;
    let fault_replica = args.get_u32_or("fault-replica", 0)? as usize;
    if fault_replica >= replicas {
        return Err(Box::new(ArgError(format!(
            "--fault-replica {fault_replica} is out of range for --replicas {replicas}"
        ))));
    }
    let downtime_ms = args.get_u32_or("downtime-ms", 150)?;
    let epoch_sweep_secs = args.get_u32_or("epoch-sweep-secs", 0)?;

    let params = SchemeParams::derive::<E::Scalar>(n, lambda);
    let mut rng = rand::thread_rng();
    let keys: Vec<FleetLadderKey<E>> = (0..key_count)
        .map(|i| {
            let (pk, share1, share2) = dlr::keygen::<E, _>(params, &mut rng);
            FleetLadderKey {
                id: format!("key-{i}").into_bytes(),
                pk,
                share1,
                share2,
            }
        })
        .collect();

    let data_dir = std::env::temp_dir().join(format!("dlr-cluster-cli-{}", std::process::id()));
    let _ = fs::remove_dir_all(&data_dir);
    let config = FleetLadderConfig {
        replica_rungs: vec![replicas],
        data_dir: data_dir.clone(),
        base_server: ServerConfig {
            max_sessions: clients + 2,
            poll_interval: Duration::from_millis(5),
            batch_max: args.get_u32_or("batch-max", 1)? as usize,
            batch_wait: Duration::from_micros(args.get_u32_or("batch-wait-us", 0)?.into()),
            ..ServerConfig::default()
        },
        base: dlr_cluster::FleetLoadgenConfig {
            clients,
            requests_per_client: requests,
            read_timeout: Some(Duration::from_millis(2_000)),
            max_reconnects: 64,
            backoff: driver::RetryPolicy {
                max_attempts: 12,
                base_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(50),
                ..driver::RetryPolicy::default()
            },
            ..dlr_cluster::FleetLoadgenConfig::default()
        },
        fault: (fault_ms > 0).then(|| FleetFault {
            replica: fault_replica,
            delay: Duration::from_millis(fault_ms.into()),
            downtime: Duration::from_millis(downtime_ms.into()),
        }),
        epoch_sweep: (epoch_sweep_secs > 0)
            .then(|| Duration::from_secs(epoch_sweep_secs.into())),
    };
    let rungs = run_fleet_ladder(&config, &keys, &mut rng)?;
    let _ = fs::remove_dir_all(&data_dir);
    let rung = rungs.into_iter().next().expect("one rung requested");
    let outcome = &rung.outcome;

    println!("cluster: {replicas} replicas, {key_count} keys, {clients} clients x {requests} reqs");
    println!(
        "  {}/{} ok, {:.1} req/s, p50 {} µs, p95 {} µs, p99 {} µs",
        outcome.successes,
        outcome.requests,
        outcome.throughput_rps(),
        outcome.latency_percentile_ns(50.0) / 1_000,
        outcome.latency_percentile_ns(95.0) / 1_000,
        outcome.latency_percentile_ns(99.0) / 1_000,
    );
    println!(
        "  {} redirects, {} failovers, {} reconnects{}",
        outcome.redirects,
        outcome.failovers,
        outcome.reconnects,
        match rung.restarted_replica {
            Some(i) => format!(" (replica {i} killed and restarted mid-run)"),
            None => String::new(),
        },
    );
    for (&replica, samples) in &outcome.per_replica {
        println!(
            "  replica {replica}: {} reqs, p50 {} µs, p95 {} µs",
            samples.len(),
            outcome.replica_percentile_ns(replica, 50.0) / 1_000,
            outcome.replica_percentile_ns(replica, 95.0) / 1_000,
        );
    }
    if let Some(path) = args.options_get("out") {
        fs::write(path, outcome.to_report(&rung.topology).to_json())?;
        println!("  wrote {path}");
    }
    if outcome.failures > 0 || outcome.mismatches > 0 || outcome.client_panics > 0 {
        return Err(Box::new(ArgError(format!(
            "cluster run saw {} failures, {} mismatches, {} client panics",
            outcome.failures, outcome.mismatches, outcome.client_panics
        ))));
    }
    Ok(())
}

fn metrics<E: Pairing>(args: &Args) -> Result<(), AnyError>
where
    Party1<E>: Send,
    Party2<E>: Send,
    E::Gt: Send,
{
    let trials = args.get_u32_or("trials", 5)?;
    let n = args.get_u32_or("n", 16)?;
    let lambda = args.get_u32_or("lambda", 64)?;

    dlr_metrics::reset();
    let params = SchemeParams::derive::<E::Scalar>(n, lambda);
    let mut rng = rand::thread_rng();
    let (pk, s1, s2) = dlr::keygen::<E, _>(params, &mut rng);
    let m = E::Gt::random(&mut rng);
    let ct = dlr::encrypt(&pk, &m, &mut rng);

    let mut p1 = Party1::new(pk.clone(), s1.clone());
    let mut p2 = Party2::new(pk.clone(), s2.clone());
    for _ in 0..trials {
        dlr::decrypt_local(&mut p1, &mut p2, &ct, &mut rng)?;
        dlr::refresh_local(&mut p1, &mut p2, &mut rng)?;
    }

    // One transport-backed session for wire-level statistics.
    let (mut d1, mut d2) = (Party1::new(pk.clone(), s1), Party2::new(pk, s2));
    let out = run_pair(
        move |t| {
            let mut rng = rand::thread_rng();
            let got = driver::p1_decrypt(&mut d1, &ct, t, &mut rng).expect("p1 decrypt");
            driver::p1_refresh(&mut d1, t, &mut rng).expect("p1 refresh");
            driver::p1_shutdown(t).expect("p1 shutdown");
            got
        },
        move |t| {
            let mut rng = rand::thread_rng();
            driver::p2_serve_loop(&mut d2, t, &mut rng).expect("p2 serve loop")
        },
    );
    if out.p1 != m {
        return Err(Box::new(ArgError("instrumented session decrypted wrong value".into())));
    }

    let mut report = dlr_metrics::Report::capture()
        .with_meta("curve", args.get_or("curve", "toy"))
        .with_meta("trials", &trials.to_string());
    report.push_wire("driver.session", out.wire);
    println!("{}", report.render());
    Ok(())
}

/// The artifact harness: regenerate the measured EXPERIMENTS.md tables
/// into `--out` and/or drift-check them against the committed copies.
/// Curve-independent — the tables fix their own parameter sets (TOY for
/// the session and load tables, TOY+SS512 for the A7 parity table).
fn artifact(args: &Args) -> Result<(), AnyError> {
    use dlr_bench::artifact as art;

    let mut profile = match args.get_or("profile", "kick-tires") {
        "kick-tires" => art::kick_tires_profile(),
        "full" => art::full_profile(),
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown profile `{other}` (kick-tires|full)"
            ))))
        }
    };
    if let Some(list) = args.options_get("l2-workers") {
        profile.l2_worker_rungs = list
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| {
                ArgError(format!(
                    "--l2-workers must be a comma-separated list of worker counts, got `{list}`"
                ))
            })?;
    }
    let out_dir = PathBuf::from(args.get_or("out", "out"));
    let docs = PathBuf::from(args.get_or("docs", "EXPERIMENTS.md"));
    let mode = args.get_or("mode", "all");
    if !matches!(mode, "all" | "generate" | "check") {
        return Err(Box::new(ArgError(format!(
            "unknown mode `{mode}` (all|generate|check)"
        ))));
    }

    if mode != "check" {
        println!("artifact: generating tables (profile `{}`) ...", profile.name);
        let generated = art::generate(&profile, &out_dir).map_err(ArgError)?;
        for table in &generated.tables {
            println!("  regenerated {}", table.id);
        }
        for file in &generated.files {
            println!("  wrote {}", file.display());
        }
    }
    if mode == "generate" {
        return Ok(());
    }

    println!("artifact: drift check against {} ...", docs.display());
    let checks = art::check_docs(&docs, &out_dir);
    let mut drifted = false;
    for check in &checks {
        if check.passed() {
            println!(
                "  {}: OK ({} exact cells match, {} machine-dependent cells skipped)",
                check.id, check.exact_cells, check.skipped_cells
            );
        } else {
            drifted = true;
            println!("  {}: DRIFT", check.id);
            for problem in &check.problems {
                println!("    {problem}");
            }
        }
    }
    if drifted {
        return Err(Box::new(ArgError(
            "regenerated tables disagree with the committed EXPERIMENTS.md (see above); \
             if the change is intentional, paste the regenerated out/<ID>.md blocks into \
             the docs"
                .into(),
        )));
    }
    println!("artifact: all gated tables match the committed docs");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(argv: &[String]) -> Result<(), ArgError> {
        let args = Args::parse(argv)?;
        args.reject_unknown(&help_flags(&args.command).expect("a subcommand HELP lists"))
    }

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_help_flag_is_accepted() {
        let commands = [
            "keygen", "info", "encrypt", "decrypt", "refresh", "serve-p2",
            "decrypt-remote", "loadgen", "cluster", "metrics", "artifact",
        ];
        for command in commands {
            let flags = help_flags(command).unwrap_or_else(|| panic!("no HELP row for {command}"));
            assert!(!flags.is_empty(), "{command} lists no flags");
            let mut argv = vec![command.to_string()];
            for flag in flags {
                argv.extend([format!("--{flag}"), "1".to_string()]);
            }
            check(&argv).unwrap_or_else(|e| panic!("{command}: {e}"));
        }
        // Continuation rows count, and a subcommand is not mistaken for
        // another that shares its prefix.
        assert_eq!(help_flags("decrypt").unwrap(), ["pk", "sk1", "sk2", "in", "out", "curve"]);
        assert!(help_flags("serve-p2").unwrap().contains(&"batch-wait-us"));
        assert!(help_flags("cluster").unwrap().contains(&"epoch-sweep-secs"));
        assert!(help_flags("artifact").unwrap().contains(&"l2-workers"));
        assert!(help_flags("frobnicate").is_none());
    }

    #[test]
    fn retired_and_misspelled_flags_are_rejected() {
        for (argv, flag) in [
            (&["serve-p2", "--shards", "4"][..], "--shards"),
            (&["cluster", "--shards", "2"], "--shards"),
            (&["serve-p2", "--epoch-sec", "5"], "--epoch-sec"),
            (&["decrypt", "--key-id", "k"], "--key-id"),
        ] {
            let err = check(&sv(argv)).unwrap_err();
            assert!(err.0.contains(flag), "{argv:?}: {err}");
        }
        assert!(check(&sv(&["serve-p2", "--epoch-secs", "5"])).is_ok());
    }
}
