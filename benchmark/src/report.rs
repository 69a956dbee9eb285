//! The metric tables (one source of truth beside `BENCHMARK.json`, which a
//! test holds to them) and the result one run prints.

use crate::json::{obj, Value};
use crate::load::{PhaseOut, Shape, MAIN};
use crate::stats::{self, Summary};
use crate::sys;

/// One row of a metric table: `(name, unit, better)`.
pub type Metric = (&'static str, &'static str, &'static str);

/// Every workload reports every one of these.
pub const END_TO_END: [Metric; 6] = [
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("cpu_us_per_req", "us", "lower"),
    ("lat_p50_us", "us", "lower"),
    ("lat_hi_p50_us", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// The traced run's metrics; curve-dependent ones are measured on the
/// workload's own curve.
pub const PER_LAYER: [Metric; 74] = [
    ("math.fp_mul_ns", "ns", "lower"),
    ("math.fp_inv_ns", "ns", "lower"),
    ("math.fp2_mul_ns", "ns", "lower"),
    ("math.fp2_sqr_ns", "ns", "lower"),
    ("curve.gt_pow_us", "us", "lower"),
    ("curve.gt_multiexp_us", "us", "lower"),
    ("curve.gt_decode_us", "us", "lower"),
    ("curve.pairing_us", "us", "lower"),
    ("curve.pair_prepared_us", "us", "lower"),
    ("curve.multi_pair_us", "us", "lower"),
    ("curve.g_pow_us", "us", "lower"),
    ("curve.g_fixed_pow_us", "us", "lower"),
    ("curve.g_random_us", "us", "lower"),
    ("curve.g_multiexp_us", "us", "lower"),
    ("core.dec_p2_respond_us", "us", "lower"),
    ("core.decmsg1_decode_us", "us", "lower"),
    ("core.decmsg1_encode_us", "us", "lower"),
    ("core.p2_handle_frame_us", "us", "lower"),
    ("core.p2_batch16_us_per_req", "us", "lower"),
    ("core.dec_p1_start_us", "us", "lower"),
    ("core.dec_p1_finish_us", "us", "lower"),
    ("core.ref_p1_start_us", "us", "lower"),
    ("core.ref_p2_respond_us", "us", "lower"),
    ("core.ref_p1_finish_us", "us", "lower"),
    ("core.enc_us", "us", "lower"),
    ("core.keygen_ms", "ms", "lower"),
    ("core.dec_pairings", "count", "lower"),
    ("core.dec_gt_pow", "count", "lower"),
    ("core.ref_g_pow", "count", "lower"),
    ("protocol.frame_encode_ns", "ns", "lower"),
    ("protocol.frame_decode_ns", "ns", "lower"),
    ("protocol.tcp_echo_rtt_us", "us", "lower"),
    ("protocol.inmem_rtt_us", "us", "lower"),
    ("server.rtt_idle_us", "us", "lower"),
    ("server.overhead_us", "us", "lower"),
    ("server.topology_rtt_us", "us", "lower"),
    ("server.hello_us", "us", "lower"),
    ("server.session_us", "us", "lower"),
    ("server.persist_us", "us", "lower"),
    ("server.batch16_sat_rps", "1/s", "higher"),
    ("cluster.route_ns", "ns", "lower"),
    ("cluster.open_us", "us", "lower"),
    ("cluster.redirect_us", "us", "lower"),
    ("cluster.fleet_spawn_ms", "ms", "lower"),
    ("cluster.restart_ms", "ms", "lower"),
    ("cluster.kick_shard_ms", "ms", "lower"),
    ("metrics.span_ns", "ns", "lower"),
    ("server.loop_wakeups_per_req", "count", "lower"),
    ("server.migrations_per_session", "count", "lower"),
    ("server.error_replies", "count", "lower"),
    ("server.busy_rejects", "count", "lower"),
    ("server.persist_failures", "count", "lower"),
    ("server.conn_share_min", "share", "higher"),
    ("server.stall_max_ms", "ms", "lower"),
    ("server.sat_lat_p50_us", "us", "lower"),
    ("server.sat_lat_p95_us", "us", "lower"),
    ("cluster.redirects", "count", "lower"),
    ("cluster.failovers", "count", "lower"),
    ("load.lo_p95_us", "us", "lower"),
    ("load.hi_p50_us", "us", "lower"),
    ("load.hi_p95_us", "us", "lower"),
    ("gen.late_p99_us", "us", "lower"),
    ("gen.trace_overhead_pct", "%", "lower"),
    ("span.req_us", "us", "lower"),
    ("span.gen_wait_us", "us", "lower"),
    ("span.cluster_open_us", "us", "lower"),
    ("span.cluster_close_us", "us", "lower"),
    ("span.round_us", "us", "lower"),
    ("span.verify_us", "us", "lower"),
    ("span.dec_start_us", "us", "lower"),
    ("span.encode_us", "us", "lower"),
    ("span.decode_us", "us", "lower"),
    ("span.dec_finish_us", "us", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
];

/// The per-layer metric a span name of the trace reports its median as.
pub const SPAN_METRICS: [(&str, &str); 10] = [
    ("req", "span.req_us"),
    ("gen.wait", "span.gen_wait_us"),
    ("cluster.open", "span.cluster_open_us"),
    ("cluster.close", "span.cluster_close_us"),
    ("protocol.round", "span.round_us"),
    ("verify", "span.verify_us"),
    ("core.dec_start", "span.dec_start_us"),
    ("core.encode", "span.encode_us"),
    ("core.decode", "span.decode_us"),
    ("core.dec_finish", "span.dec_finish_us"),
];

/// Child spans must cover their `req` to within this share of it.
pub const BOOKS_TOLERANCE_PCT: f64 = 5.0;

/// The tail percentile of the per-layer latency metrics: the highest of the
/// ladder that has ten samples beyond it over the windows of every
/// workload's phases (`period_ss512` is the small one: ~450 decrypts).
pub const TAIL_Q: f64 = 95.0;

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
        .1
}

/// The result of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is invalid beyond failed operations.
    pub invalid: Vec<String>,
    /// What a reader should know but does not void the run.
    pub warnings: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// What `results.json` keeps beside the numbers.
    pub detail: Vec<(String, Value)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            invalid: Vec::new(),
            warnings: Vec::new(),
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }

    /// 0 only when every reply verified and the run is valid.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn count(&mut self, outs: &[PhaseOut]) {
        self.attempted += outs.iter().map(PhaseOut::attempted).sum::<u64>();
        self.failed += outs.iter().map(PhaseOut::failed).sum::<u64>();
    }

    /// The result line of the builder's contract: exactly the metrics of
    /// `table`, each with its unit.
    pub fn result_line(&self, table: &[Metric]) -> String {
        let metrics = table
            .iter()
            .map(|&(name, unit, _)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: metric {name} not measured", self.workload));
                (
                    name.to_string(),
                    obj([("value", value.into()), ("unit", unit.into())]),
                )
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_line()
    }

    pub fn detail_json(&self) -> Value {
        let mut fields = vec![
            ("workload".to_string(), self.workload.into()),
            ("correct".to_string(), self.correct().into()),
            ("attempted".to_string(), self.attempted.into()),
            ("failed".to_string(), self.failed.into()),
            (
                "invalid".to_string(),
                Value::Arr(self.invalid.iter().map(|s| s.as_str().into()).collect()),
            ),
            (
                "warnings".to_string(),
                Value::Arr(self.warnings.iter().map(|s| s.as_str().into()).collect()),
            ),
            (
                "metrics".to_string(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|&(n, v)| {
                            (
                                n.to_string(),
                                obj([("value", v.into()), ("unit", unit_of(n).into())]),
                            )
                        })
                        .collect(),
                ),
            ),
        ];
        fields.extend(self.detail.iter().cloned());
        Value::Obj(fields)
    }
}

pub fn summary_json(s: Summary) -> Value {
    obj([
        ("min", s.min.into()),
        ("median", s.median.into()),
        ("max", s.max.into()),
    ])
}

/// Per-window min/median/max of everything a phase measured.
pub fn phase_json(out: &PhaseOut, kinds: &[(u8, &str)]) -> Value {
    let mut fields = vec![
        ("name".to_string(), out.phase.name.into()),
        (
            "shape".to_string(),
            match out.phase.shape {
                Shape::Closed => "closed".into(),
                Shape::Open { .. } => "open".into(),
            },
        ),
        ("warm_s".to_string(), out.phase.warm.as_secs_f64().into()),
        ("seconds".to_string(), out.phase.dur.as_secs_f64().into()),
        ("windows".to_string(), (out.windows.len() as u64).into()),
        ("attempted".to_string(), out.attempted().into()),
        ("failed".to_string(), out.failed().into()),
        ("gen_late_p99_us".to_string(), out.lateness_p99_us().into()),
    ];
    if let Shape::Open { rate } = out.phase.shape {
        fields.push(("rate_rps".to_string(), rate.into()));
    }
    for &(kind, label) in kinds {
        let (p50, samples) = out.latency_us(kind, 50.0);
        let mut k = vec![
            (
                "throughput_rps".to_string(),
                summary_json(out.throughput(kind)),
            ),
            (
                "cpu_us_per_op".to_string(),
                summary_json(out.cpu_us_per_op(kind)),
            ),
            ("lat_p50_us".to_string(), summary_json(p50)),
            (
                "lat_p95_us".to_string(),
                summary_json(out.latency_us(kind, TAIL_Q).0),
            ),
            ("latency_samples".to_string(), (samples as u64).into()),
        ];
        if let Some((q, us, n)) = out.pooled_tail(kind) {
            k.push((
                "pooled_tail".to_string(),
                obj([
                    ("q", q.into()),
                    ("us", us.into()),
                    ("samples", (n as u64).into()),
                ]),
            ));
        }
        fields.push((label.to_string(), Value::Obj(k)));
    }
    Value::Obj(fields)
}

fn phase<'a>(outs: &'a [PhaseOut], name: &str) -> &'a PhaseOut {
    outs.iter()
        .find(|o| o.phase.name == name)
        .unwrap_or_else(|| panic!("phase {name} did not run"))
}

/// A percentile of a phase as a metric: the median of its per-window
/// values. Warns when the windows together hold fewer than ten samples
/// beyond it.
pub fn latency_metric(report: &mut Report, out: &PhaseOut, kind: u8, q: f64) -> f64 {
    let (summary, samples) = out.latency_us(kind, q);
    if stats::beyond(samples, q) < stats::MIN_BEYOND {
        report.warnings.push(format!(
            "phase {} p{q} rests on {samples} samples ({} beyond it)",
            out.phase.name,
            stats::beyond(samples, q)
        ));
    }
    summary.median
}

/// The untraced run of a server-bound workload: the end-to-end metrics
/// from its `sat` and `lo` phases.
pub fn end_to_end(report: &mut Report, outs: &[PhaseOut], setup_s: f64) {
    let (sat, lo) = (phase(outs, "sat"), phase(outs, "lo"));
    report.set("setup_s", setup_s);
    report.set("throughput_rps", sat.throughput(MAIN).median);
    report.set("cpu_us_per_req", sat.cpu_us_per_op(MAIN).median);
    let p50 = latency_metric(report, lo, MAIN, 50.0);
    report.set("lat_p50_us", p50);
    let heavy = latency_metric(report, sat, MAIN, 50.0);
    report.set("lat_hi_p50_us", heavy);
    check_generator(report, lo, p50);
    report.set("peak_rss_mb", sys::peak_rss_mb());
}

/// A generator that ran later than the median latency it measured was
/// itself a limit. Warned about, not failed: on a shared two-CPU host one
/// stall of the generator's CPU would void an otherwise verified run, and
/// `gen.late_p99_us` of the traced run shows the generator's health anyway.
pub fn check_generator(report: &mut Report, out: &PhaseOut, lat_p50_us: f64) {
    let late = out.lateness_p99_us();
    if late > lat_p50_us {
        report.warnings.push(format!(
            "phase {}: generator lateness p99 {late:.1} us exceeds latency p50 {lat_p50_us:.1} us",
            out.phase.name
        ));
    }
}

/// The traced run of a server-bound workload: what its phases tell about
/// the layers (set beside the micro-timings and the server's counters).
pub fn per_layer_from_phases(report: &mut Report, outs: &[PhaseOut]) {
    let (lo, hi) = (phase(outs, "lo"), phase(outs, "hi"));
    closed_loop_layers(report, phase(outs, "sat"), phase(outs, "sat.traced"));
    report.set("load.lo_p95_us", lo.latency_us(MAIN, TAIL_Q).0.median);
    report.set("load.hi_p50_us", hi.latency_us(MAIN, 50.0).0.median);
    report.set("load.hi_p95_us", hi.latency_us(MAIN, TAIL_Q).0.median);
    let late = outs
        .iter()
        .map(PhaseOut::lateness_p99_us)
        .fold(0.0, f64::max);
    report.set("gen.late_p99_us", late);
    span_metrics(report, lo.spans());
}

/// What a traced run's closed loop tells about the server, and what tracing
/// cost: the loop runs once untraced (`plain`) and once traced.
pub fn closed_loop_layers(report: &mut Report, plain: &PhaseOut, traced: &PhaseOut) {
    report.set("server.conn_share_min", plain.share_min());
    report.set("server.stall_max_ms", plain.stall_max_ms());
    let p50 = plain.latency_us(MAIN, 50.0).0.median;
    report.set("server.sat_lat_p50_us", p50);
    let tail = plain.latency_us(MAIN, TAIL_Q).0.median;
    report.set("server.sat_lat_p95_us", tail);
    let (without, with) = (
        plain.throughput(MAIN).median,
        traced.throughput(MAIN).median,
    );
    report.set("gen.trace_overhead_pct", 100.0 * (without - with) / without);
}

/// Median duration of every span name, and the books: the part of `req`
/// its children do not cover.
pub fn span_metrics<'a>(report: &mut Report, spans: impl Iterator<Item = &'a crate::load::Span>) {
    let (unattributed, medians) = crate::load::span_books(spans);
    for (span, metric) in SPAN_METRICS {
        let median = medians.iter().find(|m| m.0 == span).map_or(0.0, |m| m.1);
        report.set(metric, median);
    }
    report.set("trace.unattributed_pct", unattributed);
    if unattributed > BOOKS_TOLERANCE_PCT {
        report.invalid.push(format!(
            "trace: child spans leave {unattributed:.2} % of req unattributed (limit {BOOKS_TOLERANCE_PCT} %)"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` names exactly the metrics the code reports, with
    /// the same units and directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let coded: Vec<(String, String, String)> = table
                .iter()
                .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
                .collect();
            assert_eq!(listed, coded, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report::new("t");
        r.attempted = 10;
        assert_eq!(r.exit_code(), 0);
        r.failed = 1;
        assert!(!r.correct());
        assert_ne!(r.exit_code(), 0);
    }
}
