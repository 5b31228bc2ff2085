//! Metric names, failure accounting and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run. Each workload defines
/// its own *operation* for the `op_*` and `work_per_s` metrics (see
/// `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p75_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer that does not
/// run on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.fit_ms_p50", "ms"),
    ("core.em_rounds_per_fit", "count"),
    ("core.decode_us_p50", "us"),
    ("core.source_fit_ms", "ms"),
    ("bayes.prior_fit_ms", "ms"),
    ("serve.fetch_payload_us_p50", "us"),
    ("serve.report_us_p50", "us"),
    ("serve.publish_us_p50", "us"),
    ("serve.frame_cache_hit_ratio", "ratio"),
    ("serve.wouldblock_reads_per_req", "ratio"),
    ("serve.batched_writes_per_req", "ratio"),
    ("serve.inbox_backlog_max", "count"),
    ("serve.connections_per_op", "ratio"),
    ("serve.bytes_out_per_fetch", "bytes"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
    ("serve.reports_shed", "count"),
    ("serve.reports_replayed", "count"),
    ("learner.absorb_us_per_report", "us"),
    ("learner.collapse_us_p50", "us"),
    ("learner.drain_us_p50", "us"),
    ("learner.admitted", "count"),
    ("learner.gated", "count"),
    ("learner.quarantined", "count"),
    ("learner.gated_honest", "count"),
    ("learner.resamples", "count"),
    ("learner.map_clusters", "count"),
    ("learner.observations", "count"),
    ("edgesim.legacy_events_per_s", "1/s"),
    ("edgesim.fabric_events_per_s", "1/s"),
    ("edgesim.build_ms", "ms"),
    ("edgesim.events_legacy", "count"),
    ("edgesim.events_fabric", "count"),
    ("edgesim.frames_forwarded", "count"),
    ("edgesim.messages_dropped", "count"),
    ("edgesim.bytes_retransmitted", "count"),
    ("parallel.threads", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Attempted operations and the failed ones by kind.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    attempted: u64,
    failed: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations of `kind` (already counted as
    /// attempted).
    pub fn fail(&mut self, kind: &'static str, n: u64) {
        if n > 0 {
            *self.failed.entry(kind).or_default() += n;
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed, all kinds together.
    pub fn failed(&self) -> u64 {
        self.failed.values().sum()
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Failed counts by kind, in name order.
    pub fn failures(&self) -> &BTreeMap<&'static str, u64> {
        &self.failed
    }
}

/// Metric values keyed by name; only names from one declared list are
/// accepted.
#[derive(Debug, Clone)]
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `declared`.
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            declared,
            values: BTreeMap::new(),
        }
    }

    /// Sets `name`, which must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.declared.iter().any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every declared metric in declaration order; unset ones read 0.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.declared
            .iter()
            .map(|&(n, u)| (n, self.values.get(n).copied().unwrap_or(0.0), u))
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .entries()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted(),
        tally.failed(),
        body.join(", ")
    )
}

/// A finite number with every digit Rust's shortest round-trip form
/// gives; non-finite values (a bug upstream) print as 0 so the line stays
/// valid JSON, and the caller marks the run incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_counts_every_kind_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.attempt(200);
        t.fail("not_fresh_prior", 3);
        t.fail("fetch_error", 1);
        t.fail("busy", 0);
        assert_eq!(t.failed(), 4);
        assert_eq!(t.failed_frac(), 0.02);
        assert_eq!(t.failures().len(), 2, "zero counts add no kind");
        t.attempt(100);
        t.fail("fetch_error", 2);
        assert_eq!(t.failures()["fetch_error"], 3);
        assert_eq!(t.failed_frac(), 6.0 / 300.0);
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut m = Metrics::new(END_TO_END);
        m.set("op_p50_ms", 1.25);
        m.set("setup_s", f64::NAN);
        let mut t = Tally::default();
        t.attempt(7);
        let line = result_line(true, &t, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0,"));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metric_is_refused() {
        Metrics::new(END_TO_END).set("core.fit_ms_p50", 1.0);
    }

    #[test]
    fn names_and_units_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (list, key) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let section = &json[start..];
            let end = section.find(']').expect("section closes");
            let declared: Vec<(String, String)> = section[..end]
                .split("\"name\":")
                .skip(1)
                .map(|entry| {
                    let name = entry.split('"').nth(1).expect("name").to_string();
                    let unit_at = entry.find("\"unit\":").expect("unit");
                    let unit = entry[unit_at + 7..]
                        .split('"')
                        .nth(1)
                        .expect("unit")
                        .to_string();
                    (name, unit)
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
