//! The repo benchmark (see `benchmark/README.md`).
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is its result
//! run.sh [--seed N] [--seconds S] [--runs R] [--trace]   every workload, a fresh process each -> out/results.json
//! run.sh --smoke                                         every workload, seconds-long, correctness and schema only
//! run.sh --compare A.json B.json                         two results files against the bounds of BENCHMARK.json
//! ```

mod churn;
mod compare;
mod gen;
mod json;
mod load;
mod micro;
mod period;
mod replay;
mod report;
mod stats;
mod sys;
mod trace;
mod wl;

use dlr_curve::{Ss512, Toy};
use json::{obj, Value};
use report::{Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use wl::{Rates, RunArgs};

pub const WORKLOADS: [&str; 4] = [
    "replay_toy",
    "replay_ss512",
    "period_ss512",
    "fleet_churn_toy",
];

/// Defaults of the one-command run; `BENCHMARK.json` records the same.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 2.5;

/// Replay frames per key. SS512 has fewer: a frame costs `P1` ~35 ms of
/// pairings to precompute and set-up is timed three times a run.
const TOY_FRAMES: usize = 256;
const SS512_FRAMES: usize = 32;

/// Fixed open-loop rates, about 35 % and 55 % of the saturation rate each
/// workload showed on the 2-CPU box the benchmark was defined on.
const REPLAY_TOY_RATES: Rates = Rates {
    lo: 2800.0,
    hi: 4400.0,
};
const REPLAY_SS512_RATES: Rates = Rates {
    lo: 290.0,
    hi: 460.0,
};
const CHURN_TOY_RATES: Rates = Rates {
    lo: 1800.0,
    hi: 2900.0,
};

/// Where a run may write: `benchmark/out/` under the current directory
/// (`run.sh` starts the binary from the repository root).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

fn run_workload(name: &str, args: RunArgs) -> Option<Report> {
    let name = *WORKLOADS.iter().find(|w| **w == name)?;
    let origin = Instant::now();
    Some(match name {
        "replay_toy" => replay::run::<Toy>(name, TOY_FRAMES, REPLAY_TOY_RATES, args, origin),
        "replay_ss512" => {
            replay::run::<Ss512>(name, SS512_FRAMES, REPLAY_SS512_RATES, args, origin)
        }
        "period_ss512" => period::run::<Ss512>(name, args, origin),
        _ => churn::run::<Toy>(name, CHURN_TOY_RATES, args, origin),
    })
}

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("detail.{workload}.trace{}.json", u8::from(trace)))
}

/// One run of one workload: the builder's contract.
fn single(name: &str, args: RunArgs) -> ExitCode {
    // The main thread sets up, times the micro round trips and samples CPU
    // on the generators' side; servers pin themselves to theirs.
    sys::nproc();
    sys::pin_current_thread(0);
    let Some(report) = run_workload(name, args) else {
        eprintln!("unknown workload {name}; known: {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    let table: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for reason in &report.invalid {
        eprintln!("{name}: invalid run: {reason}");
    }
    for warning in &report.warnings {
        eprintln!("{name}: warning: {warning}");
    }
    std::fs::write(
        detail_path(name, args.trace),
        report.detail_json().to_pretty(),
    )
    .expect("write run detail");
    println!("{}", report.result_line(table));
    ExitCode::from(report.exit_code())
}

/// Run this binary again for one workload and return its result line and
/// detail document.
fn child(workload: &str, args: RunArgs) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    let result = json::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload}: exit {} with result {line}",
            output.status
        ));
    }
    let detail =
        std::fs::read_to_string(detail_path(workload, args.trace)).map_err(|e| e.to_string())?;
    Ok((result, json::parse(&detail)?))
}

/// Check one result line against the schema of the contract.
fn check_schema(workload: &str, result: &Value, table: &[report::Metric]) -> Result<(), String> {
    let fail = |what: &str| Err(format!("{workload}: result line {what}"));
    let keys: Vec<&str> = result
        .as_obj()
        .map(|f| f.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return fail("does not have exactly the keys correct, attempted, failed, metrics");
    }
    if result.get("correct") != Some(&Value::Bool(true)) {
        return fail("is not correct");
    }
    if result
        .get("attempted")
        .and_then(Value::as_f64)
        .is_none_or(|n| n < 1.0)
    {
        return fail("attempted nothing");
    }
    if result.get("failed").and_then(Value::as_f64) != Some(0.0) {
        return fail("counts failed operations");
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default();
    let named: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = table.iter().map(|m| m.0).collect();
    if named != wanted {
        return fail("does not name exactly the metrics of BENCHMARK.json");
    }
    for ((name, m), want) in metrics.iter().zip(table) {
        if m.get("unit").and_then(Value::as_str) != Some(want.1)
            || m.get("value").and_then(Value::as_f64).is_none()
        {
            return Err(format!(
                "{workload}: metric {name} lacks a number or the unit {}",
                want.1
            ));
        }
    }
    Ok(())
}

/// One checked run of `workload` in a process of its own: prints a
/// `workload metric value unit` line per metric of `table` and returns the
/// values in table order with the run's detail document.
fn checked_run(
    workload: &str,
    args: RunArgs,
    table: &[report::Metric],
) -> Result<(Vec<f64>, Value), String> {
    let (result, detail) = child(workload, args)?;
    check_schema(workload, &result, table)?;
    let values = table
        .iter()
        .map(|&(name, unit, _)| {
            let metric = result.get("metrics").and_then(|m| m.get(name));
            let value = metric
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .expect("schema checked");
            println!("{workload} {name} {value} {unit}");
            value
        })
        .collect();
    Ok((values, detail))
}

struct AllArgs {
    seed: u64,
    seconds: f64,
    runs: u64,
    trace: bool,
    smoke: bool,
}

/// Every workload, a fresh process each, so set-up time, peak memory and
/// CPU time belong to one workload alone.
fn all(a: AllArgs) -> ExitCode {
    let mut workloads = Vec::new();
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        let mut details = Vec::new();
        let mut values = vec![Vec::new(); END_TO_END.len()];
        for run in 0..a.runs {
            let args = RunArgs {
                seed: a.seed + run,
                seconds: a.seconds,
                trace: false,
            };
            match checked_run(workload, args, &END_TO_END) {
                Ok((run_values, detail)) => {
                    values
                        .iter_mut()
                        .zip(run_values)
                        .for_each(|(v, x)| v.push(x));
                    details.push(detail);
                }
                Err(e) => failures.push(e),
            }
        }
        let end_to_end = END_TO_END
            .iter()
            .zip(values)
            .filter(|(_, v)| !v.is_empty())
            .map(|(&(name, unit, _), v)| {
                let median = stats::median(&v);
                let values = Value::Arr(v.into_iter().map(Value::from).collect());
                let fields = [
                    ("unit", unit.into()),
                    ("median", median.into()),
                    ("values", values),
                ];
                (name.to_string(), obj(fields))
            })
            .collect();
        let mut fields = vec![
            ("end_to_end".to_string(), Value::Obj(end_to_end)),
            ("runs".to_string(), Value::Arr(details)),
        ];
        // The smoke profile traces one TOY workload only.
        if a.trace && (!a.smoke || workload == "replay_toy") {
            let args = RunArgs {
                seed: a.seed,
                seconds: a.seconds,
                trace: true,
            };
            match checked_run(workload, args, &PER_LAYER) {
                Ok((_, detail)) => fields.push(("traced_run".to_string(), detail)),
                Err(e) => failures.push(e),
            }
        }
        workloads.push((workload.to_string(), Value::Obj(fields)));
    }
    let results = obj([
        ("claim", Value::Null),
        (
            "environment",
            obj([
                ("nproc", (sys::nproc() as u64).into()),
                ("cpu_model", sys::cpu_model().into()),
                ("rustc", sys::rustc_version().into()),
                ("git_commit", sys::git_commit().into()),
                ("seed", a.seed.into()),
                ("seconds", a.seconds.into()),
                ("runs", a.runs.into()),
                ("smoke", a.smoke.into()),
                ("transport", "loopback TCP, one process".into()),
            ]),
        ),
        ("workloads", Value::Obj(workloads)),
    ]);
    let name = if a.smoke {
        "smoke.json"
    } else {
        "results.json"
    };
    let path = out_dir().join(name);
    std::fs::write(&path, results.to_pretty()).expect("write results");
    eprintln!("wrote {}", path.display());
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    ExitCode::from(u8::from(!failures.is_empty()))
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\nusage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--runs R] [--smoke] | --compare A.json B.json");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut runs) = (None, DEFAULT_SEED, None, 1u64);
    let (mut trace, mut smoke) = (false, false);
    let mut args = argv.iter().map(String::as_str).peekable();
    while let Some(flag) = args.next() {
        match flag {
            "--smoke" => smoke = true,
            // The contract passes `--trace 0|1`; on its own it means 1.
            "--trace" => trace = args.next_if(|v| matches!(*v, "0" | "1")) != Some("0"),
            "--compare" => {
                return match (args.next(), args.next()) {
                    (Some(a), Some(b)) => compare::run(a, b),
                    _ => usage("--compare takes two files"),
                }
            }
            "--workload" | "--seed" | "--seconds" | "--runs" => {
                let value = args.next().unwrap_or_default();
                let taken = match flag {
                    "--workload" => {
                        workload = Some(value.to_string());
                        !value.is_empty()
                    }
                    "--seed" => value.parse().map(|v| seed = v).is_ok(),
                    "--runs" => value.parse().map(|v| runs = v).is_ok() && runs > 0,
                    _ => {
                        seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0);
                        seconds.is_some()
                    }
                };
                if !taken {
                    return usage(&format!("{flag} needs a value, got {value:?}"));
                }
            }
            other => return usage(&format!("bad argument {other}")),
        }
    }
    let seconds = seconds.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    match workload {
        Some(name) => single(
            &name,
            RunArgs {
                seed,
                seconds,
                trace,
            },
        ),
        None => all(AllArgs {
            seed,
            seconds,
            runs,
            trace: trace || smoke,
            smoke,
        }),
    }
}
