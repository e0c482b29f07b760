//! A run's result: metrics with their samples, operation counts and
//! correctness checks, printed as a table and as the final JSON line.

use crate::stats::{percentile, rank, summarize, Summary};

/// Which statistic of its samples a metric reports.
///
/// Speeds and durations report the fast edge of their samples (the tenth
/// percentile of a duration, the ninetieth of a throughput; with ten
/// samples or fewer, the best one).  Other load on a shared machine only
/// ever slows a sample down, so the fast edge is the steadiest estimate
/// of what the code itself costs, while the median moves with how busy
/// the machine was.  Ratios of interleaved timings already cancel that
/// load and report the median.  The table prints the median and
/// quartiles of every metric either way.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// The median sample.
    Median,
    /// The tenth percentile (durations, latencies).
    Lowest,
    /// The ninetieth percentile (throughputs).
    Highest,
}

/// One metric of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Spread of the samples behind the value, when there were several.
    pub summary: Option<Summary>,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    notes: Vec<String>,
}

impl RunReport {
    /// Reports the `pick` statistic of `samples`.
    pub fn samples(&mut self, name: &str, unit: &'static str, samples: &[f64], pick: Pick) {
        let summary = summarize(samples);
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let value = match (pick, &summary) {
            (_, None) => f64::NAN,
            (Pick::Median, Some(s)) => s.median,
            (Pick::Lowest, Some(_)) => percentile(&sorted, 1000),
            (Pick::Highest, Some(_)) => sorted[sorted.len() - rank(sorted.len(), 1000)],
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary,
        });
    }

    /// Reports a single measured or counted value.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Records an informational line printed with the table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The human-readable report: metrics table, operations, checks and
    /// notes.
    pub fn render(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        let kind = if trace {
            "per-layer (traced)"
        } else {
            "end-to-end"
        };
        out.push_str(&format!("== {workload}: {kind} metrics ==\n"));
        out.push_str(&format!(
            "{:<34} {:>10} {:>14} {:>14} {:>14} {:>14} {:>20} {:>7}\n",
            "metric", "unit", "value", "median", "q1", "q3", "tail", "n"
        ));
        for m in &self.metrics {
            let (median, q1, q3, tail, n) = match &m.summary {
                Some(s) => (
                    fmt_num(s.median),
                    fmt_num(s.q1),
                    fmt_num(s.q3),
                    s.tail
                        .map_or("-".to_string(), |(p, v)| format!("p{p}={}", fmt_num(v))),
                    s.n.to_string(),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into(), "1".into()),
            };
            out.push_str(&format!(
                "{:<34} {:>10} {:>14} {:>14} {:>14} {:>14} {:>20} {:>7}\n",
                m.name,
                m.unit,
                fmt_num(m.value),
                median,
                q1,
                q3,
                tail,
                n
            ));
        }
        out.push_str(&format!(
            "operations: attempted {}, failed {}\n",
            self.attempted, self.failed
        ));
        for (what, ok) in &self.checks {
            out.push_str(&format!(
                "check {}: {what}\n",
                if *ok { "pass" } else { "FAIL" }
            ));
        }
        for line in &self.notes {
            out.push_str(&format!("note: {line}\n"));
        }
        out
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (which JSON cannot hold) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = RunReport::default();
        r.samples("latency_ms", "ms", &[1.5, 1.25, 2.0], Pick::Median);
        r.value("setup_s", "s", 0.8127);
        r.attempted = 3;
        r.check("ok", true);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn picks_the_fast_edge_of_the_samples() {
        let mut r = RunReport::default();
        r.samples("a", "s", &[3.0, 1.0, 2.0], Pick::Lowest);
        r.samples("b", "1/s", &[3.0, 1.0, 2.0], Pick::Highest);
        r.samples("c", "s", &[], Pick::Median);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        r.samples("d", "s", &twenty, Pick::Lowest);
        r.samples("e", "1/s", &twenty, Pick::Highest);
        let values: Vec<f64> = r.metrics.iter().map(|m| m.value).collect();
        assert_eq!(&values[..2], &[1.0, 3.0]);
        assert!(values[2].is_nan());
        assert_eq!(&values[3..], &[2.0, 19.0]);
        assert!(r.json().contains("\"c\": {\"value\": null"));
    }

    #[test]
    fn a_failed_or_missing_check_is_not_correct() {
        let mut r = RunReport::default();
        assert!(!r.correct());
        r.check("a", true);
        r.check("b", false);
        assert!(!r.correct());
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
