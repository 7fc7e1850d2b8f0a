//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// No correctness or replay-fidelity check failed.
    pub correct: bool,
    /// Commands attempted.
    pub attempted: u64,
    /// Commands that failed (any cause).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Add a metric.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Human-readable lines, one metric each.
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            s.push_str(&format!("{:<40} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
        s
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a non-finite value is a
                // bug in the benchmark and reads as 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
