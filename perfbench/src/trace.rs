//! Per-layer figures from the recorded spans, and the Perfetto file.
//!
//! A span belongs to the crate its name prefix names. Its parent is the
//! innermost span on its thread that encloses it; a top-level span on a
//! worker thread takes the innermost enclosing span of the benchmark's own
//! thread (the batch that submitted it). Self time is a span's duration
//! minus the time its same-thread children cover.

use crate::workloads::Layers;
use sfq_obs::{escape_json, SpanEvent};
use std::fmt::Write as _;

/// Crates with their self-time metric and the span-name prefixes that
/// belong to them.
const CRATES: [(&str, &str, &[&str]); 5] = [
    ("netlist", "netlist.self_s", &["netlist:"]),
    ("opt", "opt.self_s", &["opt:"]),
    ("t1map", "t1map.self_s", &["flow:"]),
    ("sta", "sta.self_s", &["sta:"]),
    ("engine", "engine.self_s", &["engine:", "store:"]),
];

/// Spans that measure waiting, not work: they start when the batch is
/// submitted, so they do not nest and own no self time.
const QUEUE_WAIT: &str = "engine:queue-wait";

/// Benchmark span around each engine batch.
pub const BATCH: &str = "bench:batch";

/// The crate a span belongs to and that crate's self-time metric.
fn crate_of(name: &str) -> Option<(&'static str, &'static str)> {
    CRATES
        .iter()
        .find(|(_, _, prefixes)| prefixes.iter().any(|p| name.starts_with(p)))
        .map(|&(c, metric, _)| (c, metric))
}

fn end(e: &SpanEvent) -> u64 {
    e.start_us + e.dur_us
}

/// Parent links and self times of one pass's spans.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub parent: Vec<Option<usize>>,
    pub self_us: Vec<u64>,
}

/// Links every span to its parent and computes self times. `main_tid` is
/// the benchmark's own thread.
pub fn analyze(events: &[SpanEvent], main_tid: u64) -> Analysis {
    let mut order: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].name != QUEUE_WAIT)
        .collect();
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.start_us, std::cmp::Reverse(e.dur_us))
    });
    let mut parent = vec![None; events.len()];
    let mut child_us = vec![0u64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for &i in &order {
        let e = &events[i];
        if tid != Some(e.tid) {
            stack.clear();
            tid = Some(e.tid);
        }
        while stack
            .last()
            .is_some_and(|&top| end(&events[top]) <= e.start_us)
        {
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            parent[i] = Some(top);
            child_us[top] += e.dur_us;
        }
        stack.push(i);
    }
    // Worker threads' top-level spans hang off the submitting batch.
    let main: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| events[i].tid == main_tid)
        .collect();
    for i in 0..events.len() {
        if events[i].tid != main_tid && parent[i].is_none() {
            parent[i] = main
                .iter()
                .copied()
                .filter(|&m| {
                    events[m].start_us <= events[i].start_us && events[i].start_us < end(&events[m])
                })
                .max_by_key(|&m| events[m].depth);
        }
    }
    let self_us = events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            if e.name == QUEUE_WAIT {
                0
            } else {
                e.dur_us.saturating_sub(child_us[i])
            }
        })
        .collect();
    Analysis { parent, self_us }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Adds the span-derived per-layer figures of one pass to `layers`.
pub fn span_layers(events: &[SpanEvent], analysis: &Analysis, layers: &mut Layers) {
    const SECONDS: [(&str, &str); 8] = [
        ("flow:run", "t1map.flow_s"),
        ("flow:detect", "t1map.detect_s"),
        ("flow:map", "t1map.map_s"),
        ("flow:phase-assign", "t1map.phase_s"),
        ("flow:dff-insert", "t1map.dff_s"),
        ("flow:timing", "t1map.timing_s"),
        ("flow:pre-opt", "t1map.preopt_s"),
        ("netlist:aiger-read", "netlist.aiger_read_s"),
    ];
    let mut add = |k: &'static str, v: f64| *layers.entry(k).or_insert(0.0) += v;
    let mut compute: Vec<(u64, u64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let secs = e.dur_us as f64 / 1e6;
        if let Some(&(_, metric)) = SECONDS.iter().find(|(n, _)| *n == e.name) {
            add(metric, secs);
        }
        match e.name.as_ref() {
            // Map-stage runs only: the baseline map that the detect stage
            // runs inside `flow:detect` has no span of its own.
            "flow:map" => add("t1map.map_calls", 1.0),
            "flow:detect" => add("t1map.detect_calls", 1.0),
            QUEUE_WAIT => add("engine.queue_wait_s", secs),
            "engine:compute" => compute.push((e.start_us, end(e))),
            _ => {}
        }
        let Some((crate_name, self_metric)) = crate_of(&e.name) else {
            continue;
        };
        add(self_metric, analysis.self_us[i] as f64 / 1e6);
        let parent_crate = analysis.parent[i].and_then(|p| crate_of(&events[p].name));
        if crate_name == "sta" && parent_crate.map(|(c, _)| c) != Some("sta") {
            add("sta.s", secs);
        }
    }
    compute.sort_unstable();
    for e in events.iter().filter(|e| e.name == BATCH) {
        let busy = covered(&compute, e.start_us, end(e));
        add(
            "engine.overhead_s",
            (e.dur_us - busy.min(e.dur_us)) as f64 / 1e6,
        );
    }
}

/// Chrome trace-event JSON of the traced passes, one process lane per
/// pass; each span carries its label, parent and self time as arguments.
pub fn perfetto_json(passes: &[(usize, Vec<SpanEvent>, Analysis)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&s);
    };
    for (pass, events, analysis) in passes {
        push(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pass},\"args\":{{\"name\":\"pass {pass}\"}}}}"
            ),
            &mut out,
        );
        for (i, e) in events.iter().enumerate() {
            let mut args = format!("\"span\":{i},\"self_us\":{}", analysis.self_us[i]);
            if let Some(p) = analysis.parent[i] {
                let _ = write!(args, ",\"parent\":{p}");
            }
            if let Some(label) = &e.label {
                let _ = write!(args, ",\"request\":\"{}\"", escape_json(label));
            }
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pass},\"tid\":{},\"args\":{{{args}}}}}",
                    escape_json(&e.name),
                    crate_of(&e.name).map_or("bench", |(c, _)| c),
                    e.start_us,
                    e.dur_us,
                    e.tid
                ),
                &mut out,
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, start: u64, dur: u64, depth: u32) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            label: None,
            tid,
            start_us: start,
            dur_us: dur,
            depth,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let events = vec![
            ev(BATCH, 1, 0, 100, 0),
            ev("engine:job", 2, 10, 80, 0),
            ev("engine:compute", 2, 10, 70, 1),
            ev("flow:run", 2, 10, 70, 2),
            ev("flow:map", 2, 20, 30, 3),
            ev("flow:detect", 2, 50, 20, 3),
            ev(QUEUE_WAIT, 2, 0, 10, 0),
        ];
        let a = analyze(&events, 1);
        assert_eq!(a.parent[1], Some(0), "worker span hangs off the batch");
        assert_eq!(a.parent[4], Some(3));
        assert_eq!(a.parent[5], Some(3));
        assert_eq!(a.self_us[3], 20);
        assert_eq!(a.self_us[0], 100, "other threads do not cover the batch");
        let mut layers = Layers::new();
        span_layers(&events, &a, &mut layers);
        let us = |k: &str| (layers[k] * 1e6).round() as u64;
        assert_eq!(us("t1map.self_s"), 70);
        assert_eq!(us("engine.self_s"), 10);
        assert_eq!(layers["t1map.map_calls"], 1.0);
        assert_eq!(layers["t1map.detect_calls"], 1.0);
        assert_eq!(us("engine.overhead_s"), 30);
        assert_eq!(us("engine.queue_wait_s"), 10);
        let json = perfetto_json(&[(0, events, a)]);
        assert!(sfq_obs::json::parse(&json).is_ok());
    }

    #[test]
    fn overlapping_compute_counts_once() {
        assert_eq!(covered(&[(0, 50), (10, 60), (80, 90)], 0, 100), 70);
        assert_eq!(covered(&[(0, 50)], 20, 40), 20);
    }
}
