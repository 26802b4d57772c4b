//! JSON output. Reading goes through `dse_sweep::json::parse`; this is
//! the writing half the benchmark needs: strings, numbers with all their
//! digits, and the one-object result line the driver reads.

use dse_sweep::json::escape;

/// `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// `v` as a JSON number with every digit it was measured with (Rust's
/// shortest round-trip form). JSON has no NaN or infinity; a metric that
/// is not a number is a defect of the benchmark, reported as `null` so the
/// reader refuses the line instead of taking a made-up value.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the contract's table.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The result as one line of JSON.
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(name),
                    number(*value),
                    string(unit)
                )
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

    /// Parse a line written by [`RunResult::to_line`] (metric order is
    /// alphabetical after a round trip: JSON objects are unordered).
    pub fn from_line(line: &str) -> Result<RunResult, String> {
        let doc = dse_sweep::json::parse(line)?;
        let field = |k: &str| doc.get(k).ok_or(format!("result line lacks {k:?}"));
        let metrics = match field("metrics")? {
            dse_sweep::json::Value::Object(map) => map
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").and_then(|v| v.as_f64());
                    let unit = m.get("unit").and_then(|u| u.as_str());
                    match (value, unit) {
                        (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                        _ => Err(format!("metric {name:?} lacks a value or a unit")),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("\"metrics\" is not an object".into()),
        };
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a boolean")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("\"attempted\" is not a count")?,
            failed: field("failed")?
                .as_u64()
                .ok_or("\"failed\" is not a count")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_their_digits() {
        for v in [1.2034, 0.1 + 0.2, 1e-9, 123456789.125, 0.0, 3.0] {
            assert_eq!(number(v).parse::<f64>().unwrap(), v);
        }
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("latency_ms".into(), 1.203_456_789_012_3, "ms".into()),
                ("setup_s".into(), 0.8127, "s".into()),
            ],
        };
        let line = r.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_line(&line), Ok(r));
        assert!(RunResult::from_line("{\"correct\": true}").is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
