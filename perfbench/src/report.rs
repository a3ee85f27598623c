//! What one run prints: a human-readable block, then one JSON line.

use std::fmt::Write as _;

/// Failure messages kept for the human-readable block; the count is
/// always exact.
const KEPT_FAILURES: usize = 10;

/// Metrics, operation counts and failures of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Printed in the human-readable block only: figures of one
    /// workload that the other workloads have no counterpart for.
    details: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
    invalid: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records one metric. A non-finite value means the measurement
    /// broke, which invalidates the run.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.invalid
                .push(format!("metric {name} has no finite value"));
        }
    }

    /// A figure for the human-readable block only, not the JSON line.
    /// Every workload prints the same metrics (BENCHMARK.json lists
    /// them once for all workloads); what only one workload has, such as
    /// service latencies or PLA parse time, is a detail.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.details.push((name.into(), value, unit));
    }

    /// A line of context for the human-readable block (sample counts,
    /// file paths).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation (wrong output, refusal, loss).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why.into());
        }
    }

    /// Marks the whole run invalid (e.g. the load generator fell
    /// behind its schedule), independent of operation failures.
    pub fn invalidate(&mut self, why: impl Into<String>) {
        self.invalid.push(why.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }

    /// The human-readable block followed by the JSON result line.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {header}");
        for n in &self.notes {
            let _ = writeln!(out, "#   {n}");
        }
        for (name, value, unit) in &self.details {
            let _ = writeln!(out, "# {name:<32} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<34} {value:>16.6} {unit}");
        }
        let frac = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            1.0
        };
        let _ = writeln!(
            out,
            "{:<34} {frac:>16.6} fraction ({} of {} operations)",
            "failed_frac", self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "# FAILED: {f}");
        }
        for i in &self.invalid {
            let _ = writeln!(out, "# INVALID: {i}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_result_object() {
        let mut r = Report::default();
        r.attempt();
        r.metric("wall_s", 1.25, "s");
        r.detail("low.p50_ms", 0.5, "ms");
        let text = r.render("t");
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
        assert!(text.contains("# low.p50_ms"));
    }

    #[test]
    fn failures_and_broken_metrics_make_the_run_incorrect() {
        let mut r = Report::default();
        r.attempt();
        r.metric("x", f64::NAN, "s");
        assert!(!r.correct());
        let mut r = Report::default();
        r.attempt();
        r.fail("wrong cost");
        assert!(!r.correct());
        assert!(r.render("t").contains("# FAILED: wrong cost"));
    }
}
