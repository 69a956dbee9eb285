//! `--compare A.json B.json`: two results files of the one-command run,
//! judged per workload and end-to-end metric against the bounds of
//! `BENCHMARK.json`. This is how "two sets of runs agree" is checked.

use crate::json::{self, Value};
use crate::stats;
use std::process::ExitCode;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Same,
    Worse,
    /// The runs of one side spread wider than the bound: the comparison
    /// cannot tell a change of that size from noise.
    Unresolved,
}

/// `a` and `b` are one metric's values over the runs of each side.
/// Returns `(median a, median b, spread, verdict)`; the spread is the wider
/// of the two sides' interquartile range as a share of the median, 0 when a
/// side has a single run.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let spread = [a, b]
        .iter()
        .filter(|v| v.len() >= 2)
        .map(|v| stats::spread(v))
        .fold(0.0, f64::max);
    let worse_by = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    };
    (ma, mb, spread, verdict)
}

fn load(path: &str) -> Result<Value, String> {
    json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn values(results: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let v = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?;
    Some(
        v.as_arr()?
            .iter()
            .filter_map(Value::as_f64)
            .collect::<Vec<_>>(),
    )
    .filter(|v| !v.is_empty())
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let loaded = load(path_a).and_then(|a| Ok((a, load(path_b)?, load("BENCHMARK.json")?)));
    let (a, b, benchmark) = match loaded {
        Ok(docs) => docs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let metrics = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default();
    let mut worse = 0;
    println!(
        "{:<16} {:<15} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    for workload in crate::WORKLOADS {
        for m in metrics {
            let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let (Some(va), Some(vb)) = (values(&a, workload, name), values(&b, workload, name))
            else {
                println!("{workload:<16} {name:<15} missing from one side");
                worse += 1;
                continue;
            };
            let (ma, mb, spread, verdict) = judge(&va, &vb, higher, bound);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload:<16} {name:<15} {ma:>12.3} {mb:>12.3} {:>+7.1}% {:>7.1}% {:>5.0}%  {}",
                100.0 * (mb - ma) / ma,
                100.0 * spread,
                100.0 * bound,
                match verdict {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    ExitCode::from(u8::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&steady, &slower, false, 0.10).3, Verdict::Worse);
        assert_eq!(judge(&steady, &slower, true, 0.10).3, Verdict::Same); // higher is better: a gain
        assert_eq!(judge(&slower, &steady, true, 0.10).3, Verdict::Worse);
        assert_eq!(judge(&steady, &slower, false, 0.25).3, Verdict::Same);
        let noisy = [60.0, 100.0, 140.0, 90.0, 120.0];
        assert_eq!(judge(&noisy, &slower, false, 0.10).3, Verdict::Unresolved);
        // A single run a side has no spread to judge by.
        assert_eq!(
            judge(&[100.0], &[105.0], false, 0.10),
            (100.0, 105.0, 0.0, Verdict::Same)
        );
    }
}
