//! `ffbench compare A.json B.json`: per workload and metric, the two
//! medians, the bound and a verdict. A is the baseline, B the candidate.

use crate::spec::{self, MetricSpec};
use crate::stats::{median, spread};
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The runs of one side spread wider than the bound, so a change
    /// within the bound can be neither confirmed nor ruled out.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of the baseline median by which the candidate got worse
/// (negative: better), in the metric's own direction.
pub fn worsening(m: &MetricSpec, baseline: f64, candidate: f64) -> f64 {
    if baseline == 0.0 {
        return if candidate == baseline {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let change = (candidate - baseline) / baseline.abs();
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

/// The verdict on one metric of one workload. `same_code` is set when both
/// sides ran the same program on the same seeds (`ffbench repeat`): then
/// every exact metric must repeat exactly. Metrics with neither a bound
/// nor exactness get no verdict.
pub fn verdict(m: &MetricSpec, a: &[f64], b: &[f64], same_code: bool) -> Option<Verdict> {
    if m.exact && a == b {
        return Some(Verdict::Same);
    }
    let w = worsening(m, median(a), median(b));
    let by_direction = if w > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    if m.exact && same_code {
        return Some(Verdict::Worse);
    }
    let Some(bound) = m.bound else {
        return m.exact.then_some(by_direction);
    };
    Some(if w > bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    })
}

/// `(workload, metric) -> values`, one per run, in file order.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads the samples of a file written by `ffbench run --out`.
pub fn parse_samples(text: &str) -> Result<Samples, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let runs = v
        .get_field("runs")
        .and_then(Value::as_array)
        .ok_or("no \"runs\" array")?;
    let mut out = Samples::new();
    for run in runs {
        let workload = run
            .get_field("workload")
            .and_then(Value::as_str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get_field("result")
            .and_then(|r| r.get_field("metrics"))
            .and_then(Value::as_object)
            .ok_or("run without result metrics")?;
        for (name, m) in metrics {
            let value = m
                .get_field("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name} has no numeric value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Prints the comparison table; returns how many rows read `worse` or
/// `unresolved`.
pub fn report(a: &Samples, b: &Samples, same_code: bool) -> usize {
    println!(
        "{:<22} {:<38} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "bound"
    );
    let mut bad = 0;
    for w in &spec::WORKLOADS {
        for m in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            // 0 on both sides: a layer this workload never calls.
            if va.iter().chain(vb).all(|&x| x == 0.0) {
                continue;
            }
            let Some(v) = verdict(m, va, vb, same_code) else {
                continue;
            };
            bad += usize::from(matches!(v, Verdict::Worse | Verdict::Unresolved));
            let bound = match m.bound {
                Some(b) => format!("{:.0} %", b * 100.0),
                None => "exact".to_string(),
            };
            println!(
                "{:<22} {:<38} {:>14.4} {:>14.4} {:>7}  {}",
                w.name,
                m.name,
                median(va),
                median(vb),
                bound,
                v.as_str()
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric of the given direction, bound and exactness; the real
    /// table's bounds may be retuned without touching these tests.
    fn metric(higher_is_better: bool, bound: Option<f64>, exact: bool) -> MetricSpec {
        MetricSpec {
            name: "m",
            unit: "u",
            higher_is_better,
            bound,
            exact,
        }
    }

    #[test]
    fn verdicts_at_and_around_a_lower_is_better_bound() {
        let m = &metric(false, Some(0.10), false);
        let a = [100.0];
        assert_eq!(verdict(m, &a, &[100.0], false), Some(Verdict::Same));
        // Exactly at the bound is still within it, on either side.
        assert_eq!(verdict(m, &a, &[110.0], false), Some(Verdict::Same));
        assert_eq!(verdict(m, &a, &[110.1], false), Some(Verdict::Worse));
        assert_eq!(verdict(m, &a, &[90.0], false), Some(Verdict::Same));
        assert_eq!(verdict(m, &a, &[89.9], false), Some(Verdict::Better));
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        let m = &metric(true, Some(0.10), false);
        let a = [1000.0];
        assert_eq!(verdict(m, &a, &[899.0], false), Some(Verdict::Worse));
        assert_eq!(verdict(m, &a, &[900.0], false), Some(Verdict::Same));
        assert_eq!(verdict(m, &a, &[1101.0], false), Some(Verdict::Better));
    }

    #[test]
    fn a_wider_bound_moves_the_line() {
        let m = &metric(false, Some(0.25), false);
        assert_eq!(verdict(m, &[1.0], &[1.25], false), Some(Verdict::Same));
        assert_eq!(verdict(m, &[1.0], &[1.26], false), Some(Verdict::Worse));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let m = &metric(false, Some(0.10), false);
        // Quartiles of A are 25 % of its median apart.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert!(spread(&noisy) > 0.10);
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(
            verdict(m, &noisy, &steady, false),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            verdict(m, &steady, &noisy, false),
            Some(Verdict::Unresolved)
        );
        // A regression beyond the bound is worse however noisy.
        let slow = [130.0, 140.0, 150.0, 160.0, 170.0];
        assert_eq!(verdict(m, &noisy, &slow, false), Some(Verdict::Worse));
        // An apparent gain inside the noise is not a gain.
        let fast = [60.0, 70.0, 80.0, 90.0, 100.0];
        assert_eq!(verdict(m, &noisy, &fast, false), Some(Verdict::Unresolved));
    }

    #[test]
    fn exact_metrics_must_repeat_exactly_for_the_same_code() {
        let cost = &metric(false, Some(0.02), true);
        assert_eq!(verdict(cost, &[101.5], &[101.5], true), Some(Verdict::Same));
        assert_eq!(
            verdict(cost, &[101.5], &[101.5001], true),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(cost, &[101.5], &[101.4999], true),
            Some(Verdict::Worse)
        );
        // Between two versions of the code the bound decides.
        assert_eq!(
            verdict(cost, &[100.0], &[101.9], false),
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict(cost, &[100.0], &[102.1], false),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(cost, &[100.0], &[97.0], false),
            Some(Verdict::Better)
        );

        let evals = &metric(true, None, true);
        assert_eq!(
            verdict(evals, &[4000.0], &[4000.0], false),
            Some(Verdict::Same)
        );
        assert_eq!(
            verdict(evals, &[4000.0], &[3999.0], true),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(evals, &[4000.0], &[3999.0], false),
            Some(Verdict::Worse)
        );
        assert_eq!(
            verdict(evals, &[4000.0], &[4001.0], false),
            Some(Verdict::Better)
        );
    }

    #[test]
    fn unbounded_timings_get_no_verdict() {
        assert_eq!(
            verdict(&metric(false, None, false), &[500.0], &[900.0], false),
            None
        );
    }

    #[test]
    fn samples_group_by_workload_and_metric_in_run_order() {
        let text = r#"{"seed":7,"runs":[
            {"workload":"serve_hit","traced":false,"seed":7,"result":{"correct":true,"attempted":1,"failed":0,
             "metrics":{"setup_s":{"value":1.5,"unit":"s"},"work_per_s":{"value":9000,"unit":"1/s"}}}},
            {"workload":"serve_hit","traced":false,"seed":8,"result":{"correct":true,"attempted":1,"failed":0,
             "metrics":{"setup_s":{"value":1.25,"unit":"s"}}}}]}"#;
        let s = parse_samples(text).expect("parses");
        assert_eq!(
            s[&("serve_hit".to_string(), "setup_s".to_string())],
            vec![1.5, 1.25]
        );
        assert_eq!(
            s[&("serve_hit".to_string(), "work_per_s".to_string())],
            vec![9000.0]
        );
        assert!(parse_samples("{}").is_err());
    }
}
