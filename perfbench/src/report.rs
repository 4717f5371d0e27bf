//! Collecting a run's checks and metrics, and printing them.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::tail;
use crate::trace::{write_csv, Span};
use crate::workload::Workload;
use std::fmt::Write;

/// Most failure messages kept for the report.
const MAX_ERRORS: usize = 20;

/// Everything one run checked and measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong or missing.
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    errors: Vec<String>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(message());
            }
        }
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records the tail latency of `samples` under the percentile rule,
    /// capped at the workload's tail percentile, noting which percentile
    /// and how many samples it rests on.
    pub fn tail(&mut self, name: &'static str, samples: &[f64], workload: Workload) {
        let t = tail(samples, workload.tail_cap());
        self.metric(name, t.value);
        self.note(format!("{name}: p{} of {} samples", t.pct, t.samples));
    }

    /// Adds a human-readable line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Writes the traced run's spans to `.bench_out/spans-<workload>.csv`
    /// under the working directory, noting where, or why not.
    pub fn write_spans(&mut self, workload: Workload, spans: &[Span]) {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("spans-{}.csv", workload.name()));
        let written = std::fs::create_dir_all(dir).and_then(|()| write_csv(spans, &path));
        self.note(match written {
            Ok(()) => format!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => format!("spans not written: {e}"),
        });
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The report: notes and one `name = value unit` line per metric,
    /// then the final JSON line. Metrics of the other mode are not
    /// printed; a per-layer metric a workload has no layer for reads 0,
    /// an end-to-end metric the workload failed to produce makes the run
    /// incorrect.
    pub fn render(&self, workload: Workload, seed: u64, trace: bool, fingerprint: &str) -> String {
        let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut text = String::new();
        let _ = writeln!(
            text,
            "workload {} seed {seed} trace {}",
            workload.name(),
            u8::from(trace)
        );
        let _ = writeln!(text, "fingerprint: {fingerprint}");
        for line in &self.notes {
            let _ = writeln!(text, "  {line}");
        }
        for e in &self.errors {
            let _ = writeln!(text, "  FAILED: {e}");
        }
        let mut complete = true;
        let mut json = Vec::with_capacity(defs.len());
        for d in defs {
            let value = match self.value(d.name) {
                Some(v) => v,
                None if trace => 0.0,
                None => {
                    complete = false;
                    0.0
                }
            };
            let _ = writeln!(text, "{} = {} {}", d.name, value, d.unit);
            json.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            ));
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            text,
            "error_rate = {error_rate} (failed {} of {} checked outputs)",
            self.failed, self.attempted
        );
        let correct = complete && self.failed == 0 && self.attempted > 0;
        let _ = writeln!(
            text,
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(",")
        );
        text
    }
}

/// Accessors for the vendored `serde_json::Value`, which has none.
pub mod json {
    use serde_json::Value;

    /// The string, if `v` is one.
    pub fn str(v: &Value) -> Option<&str> {
        match v {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The non-negative integer, if `v` is one.
    pub fn u64(v: &Value) -> Option<u64> {
        match v {
            Value::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if `v` is one.
    #[cfg(test)]
    pub fn f64(v: &Value) -> Option<f64> {
        match v {
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The elements, if `v` is an array.
    pub fn array(v: &Value) -> Option<&[Value]> {
        match v {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON number for `v`, with every digit `{:?}` gives; non-finite
/// values (an infinite latency) become the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_result_object() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        for m in END_TO_END {
            o.metric(m.name, 1.5);
        }
        let text = o.render(Workload::PaperEvolve, 1, false, "fp");
        let last = text.lines().last().expect("lines");
        let v: serde_json::Value = serde_json::from_str(last).expect("json");
        assert_eq!(v["correct"], serde_json::Value::Bool(true));
        assert_eq!(json::u64(&v["attempted"]), Some(1));
        assert_eq!(json::f64(&v["metrics"]["setup_s"]["value"]), Some(1.5));
        assert_eq!(json::str(&v["metrics"]["setup_s"]["unit"]), Some("s"));
    }

    #[test]
    fn a_failed_check_or_missing_metric_is_incorrect() {
        let mut o = Outcome::default();
        o.check(false, || "boom".into());
        let text = o.render(Workload::PaperEvolve, 1, false, "fp");
        assert!(text.contains("FAILED: boom"));
        assert!(text
            .lines()
            .last()
            .expect("lines")
            .starts_with("{\"correct\":false"));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(0.123456789012345), "0.123456789012345");
        assert_eq!(json_number(f64::INFINITY), format!("{:?}", f64::MAX));
        let v = json::f64(&serde_json::from_str(&json_number(1e-7)).expect("valid json"))
            .expect("number");
        assert_eq!(v, 1e-7);
    }
}
