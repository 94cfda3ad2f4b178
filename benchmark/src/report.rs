//! The result of one run and the one JSON line the driver reads.

pub type Metric = (&'static str, f64, &'static str);

pub struct Report {
    /// Every response matched its in-process answer and every workload
    /// precondition held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A JSON number with all the digits `f64` round-trips through. JSON has
/// no NaN or infinity; a measurement that produced one is reported as -1
/// so it can never pass for a good reading.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

impl Report {
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_util::json::{parse, JsonValue};

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("latency_p50_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")],
        };
        let doc = parse(&report.to_json_line()).expect("valid JSON");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let p50 = doc.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(p50.and_then(|m| m.get("value")?.as_f64()), Some(1.2034));
        assert_eq!(p50.and_then(|m| m.get("unit")?.as_str()), Some("ms"));
        assert_eq!(number(f64::NAN), "-1");
    }
}
