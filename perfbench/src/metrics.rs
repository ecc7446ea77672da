//! Metric names, sample statistics and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("area_jj", "JJ"),
    ("depth_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("netlist.aiger_read_s", "s"),
    ("opt.rewrite_s", "s"),
    ("opt.balance_s", "s"),
    ("opt.strash_s", "s"),
    ("opt.sweep_s", "s"),
    ("opt.rounds", "count"),
    ("opt.rewrite_applied", "count"),
    ("opt.nodes_removed", "count"),
    ("opt.sta_builds", "count"),
    ("opt.sta_refreshed", "count"),
    ("t1map.flow_s", "s"),
    ("t1map.detect_s", "s"),
    ("t1map.map_s", "s"),
    ("t1map.phase_s", "s"),
    ("t1map.dff_s", "s"),
    ("t1map.timing_s", "s"),
    ("t1map.preopt_s", "s"),
    ("t1map.map_calls", "count"),
    ("t1map.detect_calls", "count"),
    ("t1map.t1_use_ratio", "ratio"),
    ("t1map.alloc_bytes", "B"),
    ("sta.s", "s"),
    ("engine.overhead_s", "s"),
    ("engine.queue_wait_s", "s"),
    ("engine.hits_memory", "count"),
    ("engine.hits_disk", "count"),
    ("engine.computed", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.store.get_s", "s"),
    ("engine.store.put_s", "s"),
    ("engine.store.gets", "count"),
    ("engine.store.puts", "count"),
    ("engine.store.disk_bytes", "B"),
    ("netlist.self_s", "s"),
    ("opt.self_s", "s"),
    ("t1map.self_s", "s"),
    ("sta.self_s", "s"),
    ("engine.self_s", "s"),
    ("obs.overhead_frac", "ratio"),
];

/// Median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples a percentile needs: at least ten samples must lie beyond it.
pub fn samples_needed(percentile: f64) -> usize {
    (1000.0 / (100.0 - percentile)).ceil() as usize
}

/// Whether `n` samples support reporting `percentile`.
pub fn reportable(percentile: f64, n: usize) -> bool {
    n >= samples_needed(percentile)
}

/// Nearest-rank percentile of `values`.
pub fn percentile(values: &[f64], percentile: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((percentile / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

/// The human-readable table: one line per metric.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "{:<26} {:>18} {:<7} n={:<5} {}",
            m.name,
            format_value(m.value),
            m.unit,
            m.samples,
            m.note
        );
    }
    out
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_obs::json::{parse, Value};

    /// Whether `name` is a legal metric or workload name: it starts with a
    /// letter or digit and holds at most 64 letters, digits, `_`, `.`, `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a legal unit: at most 16 letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root")).unwrap()
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str).unwrap();
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_match_benchmark_json() {
        let json = benchmark_json();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&json, "per_layer"), own(&PER_LAYER));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        for m in json.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = match m.get("bound") {
                Some(Value::Num(b)) => *b,
                other => panic!("bound missing: {other:?}"),
            };
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        for w in names(&json, "workloads") {
            assert!(valid_name(&w.0), "bad workload name {}", w.0);
            assert!(
                crate::WORKLOADS.contains(&w.0.as_str()),
                "{} not runnable",
                w.0
            );
        }
    }

    #[test]
    fn names_outside_the_rules_are_rejected() {
        assert!(valid_name("engine.store.get_s"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s"));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        assert!(!reportable(90.0, 99));
        assert!(reportable(90.0, 100));
        assert!(reportable(50.0, 20) && !reportable(50.0, 19));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_carries_every_metric() {
        let m = Metric {
            name: "wall_s",
            unit: "s",
            value: 0.25,
            samples: 3,
            note: String::new(),
        };
        let line = result_json(true, 4, 0, &[m]);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(4));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }
}
