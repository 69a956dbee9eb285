//! Self-contained load test for the dlr-server subsystem: starts an
//! in-process server (real TCP, loopback), drives it with the closed-loop
//! load generator, and writes the throughput/latency report.
//!
//! ```text
//! cargo run --release -p dlr-bench --bin loadgen -- --json BENCH_PR4.json
//! cargo run --release -p dlr-bench --bin loadgen -- --clients 8 --requests 100
//! cargo run --release -p dlr-bench --bin loadgen -- --fleet --json BENCH_PR9.json
//! ```
//!
//! One mid-run epoch boundary is forced so the measured traffic includes
//! a share refresh racing the decrypt load — the numbers reflect the
//! generation-lock contention a real deployment would see, not an
//! idealized refresh-free steady state.
//!
//! `--fleet` runs the identical workload against a 2-replica key-sharded
//! fleet through routed clients (the `BENCH_PR9.json` methodology):
//! same seed, same op-count fingerprint, plus redirect/failover counters
//! and per-replica percentiles in the report metadata.
//!
//! The sessions themselves live in [`dlr_bench::artifact::loadgen_session`]
//! and [`dlr_bench::artifact::fleet_loadgen_session`], shared with the
//! `dlr artifact` harness so the committed `BENCH_PR*.json` and the
//! regenerated `out/L1.json` / `out/L3.json` come from the same code path.

use dlr_bench::artifact::{fleet_loadgen_session, loadgen_session};

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clients: usize = arg_value(&args, "--clients")
        .map_or(6, |v| v.parse().expect("--clients must be a number"));
    let requests: usize = arg_value(&args, "--requests")
        .map_or(50, |v| v.parse().expect("--requests must be a number"));
    let json_path = arg_value(&args, "--json");
    let fleet = args.iter().any(|a| a == "--fleet");

    let report = if fleet {
        let session = fleet_loadgen_session(clients, requests);
        let outcome = &session.outcome;
        println!(
            "fleet loadgen: {clients} clients x {requests} reqs over {} replicas -> \
             {:.1} req/s, p50 {} µs, p95 {} µs, {} redirects, {} failovers",
            session.topology.replicas.len(),
            outcome.throughput_rps(),
            outcome.latency_percentile_ns(50.0) / 1_000,
            outcome.latency_percentile_ns(95.0) / 1_000,
            outcome.redirects,
            outcome.failovers,
        );
        session.report
    } else {
        let session = loadgen_session(clients, requests);
        let outcome = &session.outcome;
        println!(
            "loadgen: {clients} clients x {requests} reqs -> {:.1} req/s, p50 {} µs, p95 {} µs, p99 {} µs",
            outcome.throughput_rps(),
            outcome.latency_percentile_ns(50.0) / 1_000,
            outcome.latency_percentile_ns(95.0) / 1_000,
            outcome.latency_percentile_ns(99.0) / 1_000,
        );
        session.report
    };
    match json_path {
        Some(path) => {
            std::fs::write(&path, report.to_json()).expect("write report");
            eprintln!("wrote {path}");
        }
        None => println!("{}", report.render()),
    }
}
