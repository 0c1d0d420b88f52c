//! The result of one benchmark run and its printed form.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value (1 for a count or a single measurement).
    pub n: usize,
}

impl Metric {
    /// A value that rests on `n` samples.
    pub fn new(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            n,
        }
    }

    /// A count or other single reading.
    pub fn once(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, value, 1)
    }
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (campaigns or jobs, plus the traced pass).
    pub attempted: u64,
    /// Attempted operations that errored, were refused, or failed a check.
    pub failed: u64,
    /// What went wrong, one line per failure.
    pub problems: Vec<String>,
    /// Metrics printed with `--trace 0`.
    pub end_to_end: Vec<Metric>,
    /// Metrics printed with `--trace 1`.
    pub per_layer: Vec<Metric>,
    /// Facts about the run: workload shape, seed, machine, checkout.
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one attempted operation, failed when `problem` is `Some`.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// Every attempt succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The failed share of attempts, reported beside the result.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The context as one JSON object, with each metric's sample count.
    pub fn context_json(&self) -> String {
        let mut s = String::from("{");
        for (k, v) in &self.context {
            let _ = write!(s, "\"{k}\": \"{}\", ", escape(v));
        }
        let _ = write!(s, "\"failed_frac\": {}, \"n\": {{", self.failed_frac());
        let all = self.end_to_end.iter().chain(&self.per_layer);
        let ns: Vec<String> = all.map(|m| format!("\"{}\": {}", m.name, m.n)).collect();
        s.push_str(&ns.join(", "));
        s.push_str("}}");
        s
    }

    /// The result line: the last line a run prints.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
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
}

/// Shortest round-trip decimal form; non-finite values (never expected)
/// print as 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.attempt(None);
        o.end_to_end.push(Metric::new("setup_s", "s", 0.25, 5));
        o.per_layer
            .push(Metric::once("mpisim.events", "count", 12.0));
        assert_eq!(
            o.result_json(false),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(o
            .result_json(true)
            .contains("\"mpisim.events\": {\"value\": 12.0"));
        o.attempt(Some("mismatch".into()));
        assert!(!o.correct());
        assert_eq!(o.failed_frac(), 0.5);
        o.context.push(("commit", "a\"b".into()));
        assert!(o.context_json().starts_with("{\"commit\": \"a\\\"b\""));
    }
}
