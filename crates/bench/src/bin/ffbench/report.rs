//! What a workload run hands back: checked-operation tallies and metrics,
//! and the one-line JSON form the benchmark driver reads.

use crate::spec::{self, MetricSpec};
use std::path::PathBuf;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Directory for daemon caches, CLI exports and traces.
    pub scratch: PathBuf,
    /// The real `flexflow` binary (beside this executable).
    pub flexflow: PathBuf,
}

/// Tallies and metrics of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked (searches, requests).
    pub attempted: u64,
    /// Operations that failed a check, were refused or missed a deadline.
    pub failed: u64,
    /// The first few failure descriptions, for the human-readable report.
    pub failures: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Counts one checked operation; `describe` is only evaluated for a
    /// failure.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Records a metric. A value that is not a number (a ratio over no
    /// samples) is a failed operation of the run, never a reported 0.
    pub fn set(&mut self, name: &str, value: f64) {
        if !value.is_finite() {
            self.check(false, || format!("{name} could not be computed ({value})"));
            return;
        }
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Records a per-layer metric when the workload called the layer at
    /// all; a layer it never calls stays unreported.
    pub fn set_if_called(&mut self, name: &str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Records a metric whose source may be unreadable (`/proc`); `None`
    /// fails the run.
    pub fn set_measured(&mut self, name: &str, value: Option<f64>) {
        match value {
            Some(v) => self.set(name, v),
            None => self.check(false, || format!("{name} could not be measured")),
        }
    }

    /// Fails an untraced run that lacks an end-to-end metric or reports one
    /// as 0: every workload measures every one of them, and a 0 would read
    /// as the best possible value of a lower-is-better metric.
    pub fn require_end_to_end(&mut self) {
        for m in &spec::END_TO_END {
            let present = self.get(m.name).is_some_and(|v| v > 0.0);
            self.check(present, || format!("{} was not measured", m.name));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics of `specs` in their declared order. The driver wants
    /// every metric of the run's kind on the line, so a per-layer metric
    /// of a layer the workload never calls reads 0 (`compare` skips those).
    fn ordered<'a>(&self, specs: &'a [MetricSpec]) -> Vec<(&'a MetricSpec, f64)> {
        specs
            .iter()
            .map(|m| (m, self.get(m.name).unwrap_or(0.0)))
            .collect()
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of the run's kind.
    pub fn json_line(&self, traced: bool) -> String {
        let specs = spec::metrics(traced);
        let body: Vec<String> = self
            .ordered(specs)
            .into_iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// Aligned `name value unit` lines for people.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        for (m, v) in self.ordered(spec::metrics(traced)) {
            out.push_str(&format!(
                "  {:<40} {:>16} {}\n",
                m.name,
                display_number(v),
                m.unit
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        out
    }
}

fn display_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("setup_s", 0.25);
        let line = o.json_line(false);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get_field("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        let setup = v
            .get_field("metrics")
            .unwrap()
            .get_field("setup_s")
            .unwrap();
        assert_eq!(setup.get_field("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(setup.get_field("unit").unwrap().as_str(), Some("s"));
        // The traced line carries the per-layer set instead.
        let v: serde_json::Value = serde_json::from_str(&o.json_line(true)).unwrap();
        let metrics = v.get_field("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), spec::PER_LAYER.len());
    }

    #[test]
    fn a_metric_that_could_not_be_computed_fails_the_run() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("work_per_s", f64::NAN);
        assert!(!o.correct() && o.get("work_per_s").is_none());

        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set_measured("peak_rss_mb", None);
        assert!(!o.correct());

        let mut o = Outcome::default();
        for m in &spec::END_TO_END {
            o.set(m.name, 1.5);
        }
        o.require_end_to_end();
        assert!(o.correct());
        o.set("setup_s", 0.0);
        o.require_end_to_end();
        assert!(!o.correct());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        assert!(o.correct());
        o.check(false, || "cost mismatch".to_string());
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(o
            .json_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
