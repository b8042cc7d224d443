//! The result line: every metric by name with its unit, plus the attempted
//! and failed command counts of the measured runs.

use crate::stats::Accounting;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (latency samples, repeats or
    /// probes), shown in the table above the result line.
    pub samples: u64,
}

#[derive(Debug)]
pub struct Report {
    seed: u64,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts a measured run's commands into `attempted` and `failed`.
    pub fn count(&mut self, acct: &Accounting) {
        self.attempted += acct.offered;
        self.failed += acct.failed();
    }

    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        assert!(valid_name(name), "metric name {name} breaks the name rule");
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|m| m.name.as_str()).collect()
    }

    /// The result line (exactly `correct`, `attempted`, `failed`, `metrics`).
    pub fn json_line(&self) -> String {
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
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints a readable table (seed, every metric with unit and sample
    /// count) and then the result line, last.
    pub fn print(&self) {
        println!("seed {}", self.seed);
        for m in &self.metrics {
            println!(
                "{:<40} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("{}", self.json_line());
    }
}

/// True when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::new(3);
        r.count(&Accounting {
            offered: 10,
            shed: 1,
            submitted: 9,
            completed: 9,
        });
        r.add("fs.p50_ms", 0.25, "ms", 1000);
        let line = r.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \
             \"metrics\": {\"fs.p50_ms\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("crash.capacity_cmds_s"));
        assert!(valid_name("9-a_b.c"));
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_is_a_bug() {
        let mut r = Report::new(0);
        r.add("a", 1.0, "ms", 1);
        r.add("a", 2.0, "ms", 1);
    }
}
