//! Metric names and units, the result line, and host measurements.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two in step.

use crate::gate::Gate;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload in the traced run. A
/// layer a workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.allocate_ns", "ns/cycle"),
    ("engine.deliver_ns", "ns/cycle"),
    ("engine.inject_ns", "ns/cycle"),
    ("engine.transmit_ns", "ns/cycle"),
    ("engine.policy_ns", "ns/cycle"),
    ("engine.cycle_ns_p50", "ns"),
    ("engine.cycle_ns_p99", "ns"),
    ("engine.ns_per_node_cycle", "ns"),
    ("engine.new_ms", "ms"),
    ("topology.build_ms", "ms"),
    ("routing.build_ms", "ms"),
    ("core.cell_setup_ms", "ms"),
    ("core.cell_ms_p50", "ms"),
    ("core.cell_ms_max", "ms"),
    ("core.busy_ratio", "ratio"),
    ("core.tail_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.serialize_ms", "ms"),
    ("workload.spec_ms", "ms"),
    ("workload.expand_ms", "ms"),
    ("workload.gen_ns", "ns/cycle"),
    ("service.open_ms", "ms"),
    ("service.admit_ms_p50", "ms"),
    ("service.queue_ms_p50", "ms"),
    ("service.queue_ms_p90", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.run_ms_p90", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.miss_p90_ms", "ms"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_p99_ms", "ms"),
    ("service.hits", "count"),
    ("service.misses", "count"),
    ("service.rejected", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.spill_files", "count"),
    ("service.state_kb", "KiB"),
    ("engine.cycles", "count"),
    ("engine.delivered_packets", "count"),
    ("engine.delivered_phits", "count"),
    ("engine.escape_grants", "count"),
    ("engine.global_phits", "count"),
    ("engine.probe_ready", "count"),
    ("engine.port_epochs", "count"),
    ("engine.in_flight_end", "count"),
    ("engine.shards", "count"),
    ("workload.offered_packets", "count"),
    ("core.units", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// A set of named metric values being filled in by one run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Set one metric.
    ///
    /// # Panics
    /// Panics on a name neither list declares (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `(name, value, unit)` triples of one declared list, in list
    /// order; unset metrics read 0.
    pub fn listed(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        list.iter()
            .map(|&(n, u)| (n, self.0.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (cells, units or requests).
    pub attempted: u64,
    /// Correctness failures.
    pub gate: Gate,
    /// Measured values.
    pub values: Values,
    /// `(item, md5)` of the outputs, for `--record`.
    pub digests: Vec<(String, String)>,
}

/// Format a number for JSON: all its digits, and never NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `list`.
pub fn result_line(outcome: &Outcome, list: &[(&'static str, &'static str)]) -> String {
    let metrics: Vec<String> = outcome
        .values
        .listed(list)
        .into_iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.gate.passed(),
        outcome.attempted,
        outcome.gate.failed_ops,
        metrics.join(", ")
    )
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json declares exactly these metrics with these units.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"name\":").count();
        let workloads = crate::inputs::WORKLOADS.len();
        assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
        for (name, why) in crate::inputs::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"why\": \"{why}\"")));
        }
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut outcome = Outcome {
            attempted: 6,
            ..Outcome::default()
        };
        outcome.values.set("wall_s", 1.25);
        let line = result_line(&outcome, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 6, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
