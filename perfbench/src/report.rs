//! The result line the benchmark prints.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Operations issued and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that errored, were unavailable, or disagreed with the
    /// oracle.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one benchmark run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every operation agreed with the oracle and no check failed.
    pub correct: bool,
    /// Operations issued (counts, lookup requests, scans).
    pub attempted: u64,
    /// Operations that errored, were unavailable or disagreed with the
    /// oracle.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The outcome of a run that issued `tally`'s operations; correct when
    /// none failed.
    pub fn new(tally: Tally, metrics: Vec<Metric>) -> Self {
        Self {
            correct: tally.failed == 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
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

    /// A readable table for standard error.
    pub fn render(&self) -> String {
        let mut s = format!(
            "correct={} attempted={} failed={}\n",
            self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            s.push_str(&format!("  {:<32} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("op_ms.p50", 1.25, "ms"), metric("setup_s", 0.5, "s")],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
