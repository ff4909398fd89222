//! Metric collection and the one-line JSON result.

use std::fmt::Write as _;

/// What one phase measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (rounds, requests, write batches, restores).
    pub attempted: u64,
    /// Operations whose oracle check failed, or that were refused.
    pub failed: u64,
    /// End-to-end metrics: (name, value, unit).
    pub e2e: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics: (name, value, unit).
    pub layer: Vec<(String, f64, &'static str)>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.e2e.push((name.into(), value, unit));
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layer.push((name.into(), value, unit));
    }

    /// Counts one op and whether its check passed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Appends the report of the phase called `phase`.
    pub fn absorb(&mut self, phase: &str, other: Report) {
        self.notes.push(format!(
            "{phase}: {} ops attempted, {} failed",
            other.attempted, other.failed
        ));
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.e2e.extend(other.e2e);
        self.layer.extend(other.layer);
        self.notes.extend(other.notes);
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let m = vec![
            ("setup_s".to_string(), 0.5, "s"),
            ("x".to_string(), f64::NAN, "ms"),
        ];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"x\": {\"value\": -1, \"unit\": \"ms\"}}}"
        );
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
