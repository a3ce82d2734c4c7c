//! Metric definitions and the one-line JSON result.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Which end-to-end metric, on which workload, the value should move.
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        moves,
    }
}

/// Printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    def(
        "setup_s",
        "s",
        "lower",
        "spawn to first 200 /healthz, median of 21 starts",
    ),
    def(
        "decide_p50_ms",
        "ms",
        "lower",
        "/decide at the base rate, from the scheduled send",
    ),
    def(
        "decide_p50_ms.light",
        "ms",
        "lower",
        "/decide at 1000 req/s",
    ),
    def(
        "peak_rss_mb",
        "MB",
        "lower",
        "server VmHWM after the fixed-rate rounds",
    ),
    def(
        "fleet_sessions_per_s",
        "1/s",
        "higher",
        "simulator batch: 5000-session bursty fair-share fleets, one thread",
    ),
    def(
        "replay_cells_per_s",
        "1/s",
        "higher",
        "simulator batch: exact replay, 13 x 4 cells at 4096 frames, one thread",
    ),
    def(
        "frontier_evals_per_s",
        "1/s",
        "higher",
        "simulator batch: catalog 3-D frontier maps, one thread",
    ),
];

/// Printed by every traced run.
pub const PER_LAYER: &[Def] = &[
    def(
        "decide_p99_ms",
        "ms",
        "lower",
        "the base-rate tail (ungated: too noisy on a shared host)",
    ),
    def(
        "decide_p99_ms.light",
        "ms",
        "lower",
        "the light-rate tail (ungated: too noisy on a shared host)",
    ),
    def(
        "goodput_rps",
        "req/s",
        "higher",
        "best ladder rung meeting the p99 limit (ungated: too noisy on a shared host)",
    ),
    def(
        "server.http.parse_ns",
        "ns",
        "lower",
        "decide_p50_ms on decide-unique and decide-hot-heavy",
    ),
    def(
        "server.api.decode_ns",
        "ns",
        "lower",
        "decide_p50_ms on decide-unique and decide-hot-heavy",
    ),
    def(
        "core.decision.ns_per_point",
        "ns",
        "lower",
        "decide_p50_ms and goodput_rps on decide-unique",
    ),
    def(
        "server.api.finish_ns",
        "ns",
        "lower",
        "decide_p50_ms on decide-unique",
    ),
    def(
        "server.api.serialize_ns",
        "ns",
        "lower",
        "decide_p50_ms on decide-unique",
    ),
    def(
        "exec.pool_wave_us",
        "us",
        "lower",
        "decide_p50_ms and goodput_rps on decide-unique at base, not light",
    ),
    def(
        "exec.pool_wave.self_us",
        "us",
        "lower",
        "decide_p50_ms and goodput_rps on decide-unique at base, not light",
    ),
    def(
        "server.batch.submit_p50_us",
        "us",
        "lower",
        "decide_p50_ms on decide-unique",
    ),
    def(
        "server.batch.submit_p99_us",
        "us",
        "lower",
        "decide_p99_ms on decide-unique",
    ),
    def(
        "server.batch.handoff_us",
        "us",
        "lower",
        "decide_p50_ms on decide-unique",
    ),
    def(
        "server.batch.mean_size",
        "count",
        "higher",
        "goodput_rps on decide-unique",
    ),
    def(
        "server.cache.hit_ratio",
        "ratio",
        "higher",
        "validity: 0 on decide-unique, >= 0.95 on decide-hot-heavy",
    ),
    def(
        "server.cache.hits",
        "count",
        "higher",
        "decide_p50_ms on decide-hot-heavy",
    ),
    def(
        "server.cache.misses",
        "count",
        "lower",
        "decide_p50_ms on decide-unique",
    ),
    def(
        "server.cache.get_ns",
        "ns",
        "lower",
        "decide_p50_ms on decide-hot-heavy",
    ),
    def(
        "server.reactor_us",
        "us",
        "lower",
        "decide_p50_ms on decide-unique and decide-hot-heavy",
    ),
    def(
        "server.heavy.fleet_ms",
        "ms",
        "lower",
        "decide_p50_ms and decide_p99_ms on decide-hot-heavy",
    ),
    def(
        "server.heavy.simulate_ms",
        "ms",
        "lower",
        "decide_p50_ms and decide_p99_ms on decide-hot-heavy",
    ),
    def(
        "server.heavy.frontier_ms",
        "ms",
        "lower",
        "decide_p50_ms and decide_p99_ms on decide-hot-heavy",
    ),
    def(
        "loadgen.fleet.events",
        "count",
        "lower",
        "fleet_sessions_per_s",
    ),
    def(
        "loadgen.fleet.events_per_s",
        "1/s",
        "higher",
        "fleet_sessions_per_s",
    ),
    def(
        "loadgen.fleet.seq_over_par",
        "ratio",
        "higher",
        "fleet_sessions_per_s",
    ),
    def(
        "loadgen.replay.exact_cells_per_s",
        "1/s",
        "higher",
        "replay_cells_per_s",
    ),
    def(
        "core.frontier.evaluations",
        "count",
        "lower",
        "frontier_evals_per_s",
    ),
    def(
        "core.batch.kernel_ns_per_point",
        "ns",
        "lower",
        "frontier_evals_per_s",
    ),
    def(
        "gen.late_p99_ms",
        "ms",
        "lower",
        "validity of every service number",
    ),
    def(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "none: traced over untraced simulator batch wall time",
    ),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `defs` with its unit. A missing or non-finite value makes the result
/// incorrect (and is printed as 0 so the line stays valid JSON).
pub fn result_line(
    mut correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut parts = Vec::with_capacity(defs.len());
    for d in defs {
        let v = values.get(d.name).copied().filter(|v| v.is_finite());
        correct &= v.is_some() && valid_name(d.name);
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            v.unwrap_or(0.0),
            d.unit
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        parts.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(serde_json::Value::Seq(listed)) = json.get(key) else {
                panic!("{key} is not a list");
            };
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, d) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(|v| v.as_str()), Some(d.name));
                assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(d.unit));
                assert_eq!(entry.get("better").and_then(|v| v.as_str()), Some(d.better));
            }
        }
    }

    #[test]
    fn result_line_flags_missing_values() {
        let defs = &END_TO_END[..1];
        let mut v = BTreeMap::new();
        assert!(result_line(true, 1, 0, defs, &v).starts_with("{\"correct\": false"));
        v.insert("setup_s", 0.25);
        let line = result_line(true, 3, 0, defs, &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
