//! `compare A.json B.json`: one row per (workload, end-to-end metric) with
//! both sides' medians and quartiles, the change, the bound and a verdict.
//! The rule is the one the metric guide fixes: B regresses when its median
//! is worse than A's by more than the bound; where either side's own
//! run-to-run spread is wider than the bound the pair is `unresolved`, not
//! unchanged, unless every run of B reads better than every run of A.

use std::collections::BTreeMap;

use dse_sweep::json::{parse, Value};

use crate::spec;
use crate::stats::{iqr_share, median, quartiles};

/// The runs of one results file: (workload, metric) to the values of its
/// untraced runs, in file order.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Read the end-to-end samples out of a `results.json` document.
pub fn samples(doc: &str) -> Result<Samples, String> {
    let doc = parse(doc)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("results file has no \"runs\" array")?;
    let mut out = Samples::new();
    for run in runs {
        if run.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload")?;
        let Some(Value::Object(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("run of {workload} has no metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{workload}/{name} has no value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judge B against A for one metric. `higher_is_better` orients "worse".
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let too_wide = |v: &[f64]| iqr_share(v).is_some_and(|s| s > bound);
    if (too_wide(a) || too_wide(b)) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn quartile_text(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("[{q1:.6} .. {q3:.6}]"),
        None => "[one run]".to_string(),
    }
}

/// Print the comparison table; returns whether any pair regressed.
pub fn compare(a: &Samples, b: &Samples) -> bool {
    println!(
        "{:<10} {:<12} {:>16} {:>32} {:>16} {:>32} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "change",
        "bound"
    );
    let mut regressed = false;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{:<10} {:<12} missing on one side", w.name, m.name);
                regressed = true;
                continue;
            };
            let verdict = judge(va, vb, m.better == "higher", m.bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<10} {:<12} {:>16.6} {:>32} {:>16.6} {:>32} {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                median(va),
                quartile_text(va),
                median(vb),
                quartile_text(vb),
                (median(vb) - median(va)) / median(va).abs() * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [100.0, 140.0, 70.0, 125.0, 80.0];
        // lower is better, bound 10%
        assert_eq!(judge(&steady, &steady, false, 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, false, 0.10), Verdict::Regressed);
        assert_eq!(judge(&slower, &steady, false, 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &noisy, false, 0.10), Verdict::Unresolved);
        // higher is better: the same numbers read the other way round
        assert_eq!(judge(&slower, &steady, true, 0.10), Verdict::Regressed);
        // a noisy side that still beats every run of the other is a win
        let far_better = [10.0, 14.0, 7.0, 12.5, 8.0];
        assert_eq!(judge(&steady, &far_better, false, 0.10), Verdict::Ok);
    }

    #[test]
    fn samples_come_from_untraced_runs_only() {
        let doc = r#"{"runs": [
            {"workload": "gm_small", "seed": 1, "trace": 0,
             "result": {"correct": true, "attempted": 5, "failed": 0,
                        "metrics": {"ops_per_s": {"value": 10.5, "unit": "1/s"}}}},
            {"workload": "gm_small", "seed": 2, "trace": 0,
             "result": {"correct": true, "attempted": 5, "failed": 0,
                        "metrics": {"ops_per_s": {"value": 11.5, "unit": "1/s"}}}},
            {"workload": "gm_small", "seed": 1, "trace": 1,
             "result": {"correct": true, "attempted": 5, "failed": 0,
                        "metrics": {"msg.encode_small_ns": {"value": 20, "unit": "ns"}}}}
        ]}"#;
        let s = samples(doc).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(
            s[&("gm_small".to_string(), "ops_per_s".to_string())],
            vec![10.5, 11.5]
        );
        assert!(samples("{}").is_err());
    }
}
