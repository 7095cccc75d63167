//! `perf_e2e compare A.jsonl B.jsonl`: for every workload and end-to-end
//! metric, whether the runs in B are better, the same, worse, or
//! unresolved against the runs in A, under the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

use crate::stats::{median, spread};

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// B's median is better than A's by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own runs spread wider than the bound, and not every run of B
    /// beats every run of A.
    Unresolved,
}

/// Classifies runs `b` against runs `a` for a metric whose bound is a share
/// of A's median.
pub fn classify(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Class {
    let (ma, mb) = (median(a), median(b));
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let all_b_better = if lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    if spread(a) > bound {
        return if all_b_better {
            Class::Better
        } else {
            Class::Unresolved
        };
    }
    if ma == 0.0 {
        return if mb == 0.0 {
            Class::Same
        } else {
            Class::Unresolved
        };
    }
    let worse_by = (mb - ma) / ma.abs() * if lower_is_better { 1.0 } else { -1.0 };
    if worse_by > bound {
        Class::Worse
    } else if worse_by < -bound {
        Class::Better
    } else {
        Class::Same
    }
}

struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn metrics(benchmark: &Value) -> Result<Vec<Metric>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Metric {
                name: field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_owned(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: number(field("bound")?).ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// workload → metric → values, from the untraced records of a `--out` file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn runs(text: &str) -> Result<Runs, String> {
    let mut out = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record: Value = serde_json::from_str(line).map_err(|e| format!("bad record: {e}"))?;
        if record.get("trace").and_then(number) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("record without a workload")?;
        let metrics = record
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or("record without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(number) {
                out.entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let benchmark: Value = serde_json::from_str(&read("BENCHMARK.json")?)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = metrics(&benchmark)?;
    let (a, b) = (runs(&read(a_path)?)?, runs(&read(b_path)?)?);
    let mut any_worse = false;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>8} {:>8} {:>6}  class",
        "workload", "metric", "A median", "B median", "change", "A IQR", "bound"
    );
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            continue;
        };
        for m in &metrics {
            let (Some(av), Some(bv)) = (a_metrics.get(&m.name), b_metrics.get(&m.name)) else {
                continue;
            };
            let class = classify(av, bv, m.lower_is_better, m.bound);
            any_worse |= class == Class::Worse;
            let (ma, mb) = (median(av), median(bv));
            println!(
                "{workload:<16} {:<18} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>7.1}% {:>5.0}%  {}",
                m.name,
                if ma == 0.0 {
                    0.0
                } else {
                    100.0 * (mb - ma) / ma.abs()
                },
                100.0 * spread(av),
                100.0 * m.bound,
                format!("{class:?}").to_lowercase(),
            );
        }
    }
    Ok(!any_worse)
}

/// Entry point of the subcommand; exits 1 when any row is `worse`.
pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: perf_e2e compare A.jsonl B.jsonl   (run from the directory holding BENCHMARK.json)");
        return ExitCode::from(2);
    };
    match compare(a, b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_e2e compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn scaled(f: f64) -> Vec<f64> {
        A.iter().map(|x| x * f).collect()
    }

    #[test]
    fn classifies_by_the_bound_in_the_metric_direction() {
        assert_eq!(classify(&A, &scaled(1.05), true, 0.1), Class::Same);
        assert_eq!(classify(&A, &scaled(1.2), true, 0.1), Class::Worse);
        assert_eq!(classify(&A, &scaled(0.8), true, 0.1), Class::Better);
        assert_eq!(classify(&A, &scaled(1.2), false, 0.1), Class::Better);
        assert_eq!(classify(&A, &scaled(0.8), false, 0.1), Class::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let wide = [50.0, 100.0, 150.0, 80.0, 120.0];
        assert_eq!(classify(&wide, &scaled(1.5), true, 0.1), Class::Unresolved);
        assert_eq!(classify(&wide, &scaled(1.0), true, 0.1), Class::Unresolved);
        assert_eq!(classify(&wide, &scaled(0.4), true, 0.1), Class::Better);
    }

    #[test]
    fn reads_untraced_records_and_metric_bounds() {
        let record = |trace: u8, v: f64| {
            format!(
                r#"{{"workload":"w","seed":1,"trace":{trace},"result":{{"correct":true,"attempted":1,"failed":0,"metrics":{{"op_ms_p50":{{"value":{v},"unit":"ms"}}}}}}}}"#
            )
        };
        let text = [record(0, 1.5), record(1, 9.0), record(0, 2.5)].join("\n");
        let runs = runs(&text).unwrap();
        assert_eq!(runs["w"]["op_ms_p50"], vec![1.5, 2.5]);

        let bench: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let m = metrics(&bench).unwrap();
        assert_eq!(
            (m[0].name.as_str(), m[0].lower_is_better, m[0].bound),
            ("ops_per_s", false, 0.1)
        );
    }
}
