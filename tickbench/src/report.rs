//! The metrics every run reports, and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the metric sets `BENCHMARK.json`
//! declares; a run fills values by name and [`Outcome::json`] emits exactly
//! the declared set for its mode.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("tick_ms_p50", "ms"),
    ("tick_ms_p90", "ms"),
    ("updates_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Times are medians over
/// traced ticks of a layer's per-tick total; counts and ratios cover the
/// workload's fixed counted window. A layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("updates.validate_ms", "ms"),
    ("updates.reduce_ms", "ms"),
    ("updates.reduced_frac", "ratio"),
    ("updates.detect_ms", "ms"),
    ("updates.eliminated_frac", "ratio"),
    ("distance.commit_ms", "ms"),
    ("distance.commit_ms.insert_edge", "ms"),
    ("distance.commit_ms.delete_edge", "ms"),
    ("distance.commit_ms.insert_node", "ms"),
    ("distance.commit_ms.delete_node", "ms"),
    ("distance.slen_changed", "count"),
    ("distance.affected_nodes", "count"),
    ("distance.resident_rows", "count"),
    ("distance.index_mb", "MB"),
    ("distance.pages_read", "count"),
    ("distance.cache_hit_ratio", "ratio"),
    ("distance.evictions", "count"),
    ("engine.plan_ms", "ms"),
    ("matcher.refresh_ms", "ms"),
    ("matcher.refresh_max_ms", "ms"),
    ("matcher.repair_calls", "count"),
    ("matcher.changed_frac", "ratio"),
    ("service.publish_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.read_ns_p50", "ns"),
    ("service.reads_per_s", "1/s"),
    ("engine.slen_ms", "ms"),
    ("engine.detect_ms", "ms"),
    ("engine.tree_ms", "ms"),
    ("engine.repair_ms", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("baseline.scratch_tick_ms_p50", "ms"),
    ("baseline.rebuild_tick_ms_p50", "ms"),
    ("baseline.sparse_tick_ms_p50", "ms"),
    ("telemetry.noop_overhead_pct", "%"),
    ("telemetry.collector_overhead_pct", "%"),
    ("tick.untraced_ms", "ms"),
];

/// Per-layer metrics that are exact work counts: two runs with the same
/// seed must report them identically.
pub const COUNTERS: [&str; 11] = [
    "updates.reduced_frac",
    "updates.eliminated_frac",
    "distance.slen_changed",
    "distance.affected_nodes",
    "distance.resident_rows",
    "distance.index_mb",
    "distance.pages_read",
    "distance.cache_hit_ratio",
    "distance.evictions",
    "matcher.repair_calls",
    "matcher.changed_frac",
];

/// What one run measured and whether every output was correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ticks attempted.
    pub attempted: u64,
    /// Ticks whose call returned an error or whose results were wrong.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every tick succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: the declared metrics of the mode, each with its unit.
    /// Panics if the run left a declared metric unset — a bug in the run.
    pub fn json(&self, traced: bool) -> String {
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("run did not set metric {name}"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Set every per-layer metric to 0 so a run fills only the layers its
/// workload exercises.
pub fn zero_per_layer(outcome: &mut Outcome) {
    for (name, _) in PER_LAYER {
        outcome.set(name, 0.0);
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric sets here are the ones `BENCHMARK.json` declares.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics the benchmark does not report"
        );
    }

    #[test]
    fn json_line_carries_every_declared_metric() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = outcome.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
