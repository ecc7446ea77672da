//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|preopt|scale|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One process runs one workload: it sets
//! the workload up several times (reporting the median as `setup_s`), then
//! runs timed passes for about `--seconds` seconds, checks every output
//! against the oracle and prints a metric table followed by one JSON result
//! line. `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced passes, reports the per-layer metrics of the traced
//! ones and writes their spans to `perfbench/out/` for Perfetto. The exit
//! code is 0 only when every output was correct.

mod gen;
mod metrics;
mod oracle;
mod store;
mod trace;
mod workloads;

use metrics::{median, percentile, reportable, Metric, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Pass, Workload};

#[global_allocator]
static ALLOC: sfq_obs::alloc::CountingAlloc = sfq_obs::alloc::CountingAlloc::new();

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["table1", "preopt", "scale", "serve"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;
/// Fewest timed passes of an untraced run, and of each kind (untraced,
/// traced) in a traced run.
const MIN_PASSES: usize = 3;
const MIN_TRACED_PASSES: usize = 1;
/// Where traces and the `serve` store directories go, under the checkout.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    for flag in argv.iter().step_by(2) {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'"));
        }
    }
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

fn setup(args: &Args, serve_root: &std::path::Path) -> Result<Box<dyn Workload>, String> {
    match args.workload.as_str() {
        "table1" => workloads::table1(),
        "preopt" => workloads::preopt(),
        "scale" => workloads::scale(),
        _ => workloads::serve(args.seed, serve_root.to_path_buf()),
    }
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

struct Measured {
    pass: Pass,
    traced: bool,
}

fn metric(name: &'static str, value: f64, samples: usize, note: impl Into<String>) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric is declared");
    Metric {
        name,
        unit,
        value,
        samples,
        note: note.into(),
    }
}

fn end_to_end(
    setup_s: &[f64],
    peak_rss_mb: f64,
    runs: &[&Pass],
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let walls: Vec<f64> = runs.iter().map(|p| p.wall.as_secs_f64()).collect();
    let latencies: Vec<f64> = runs
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let n = latencies.len();
    let rule = |p: f64| {
        if reportable(p, n) {
            String::new()
        } else {
            format!("fewer than {} samples", metrics::samples_needed(p))
        }
    };
    vec![
        metric("setup_s", median(setup_s), setup_s.len(), "median"),
        metric("wall_s", median(&walls), walls.len(), "median pass"),
        metric(
            "latency_p50_ms",
            percentile(&latencies, 50.0),
            n,
            rule(50.0),
        ),
        metric(
            "latency_p90_ms",
            percentile(&latencies, 90.0),
            n,
            rule(90.0),
        ),
        metric(
            "area_jj",
            runs[0].area as f64,
            runs.len(),
            "per pass, exact",
        ),
        metric(
            "depth_cycles",
            runs[0].depth as f64,
            runs.len(),
            "per pass, exact",
        ),
        metric(
            "peak_rss_mb",
            peak_rss_mb,
            1,
            "VmHWM after set-up and one pass",
        ),
        metric(
            "ok_frac",
            (attempted - failed) as f64 / attempted as f64,
            attempted as usize,
            "operations without failure",
        ),
    ]
}

fn per_layer(traced: &[&Pass], untraced: &[&Pass]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let get = |p: &Pass, k: &str| p.layers.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let wall = |ps: &[&Pass]| median(&ps.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>());
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match name {
                "t1map.t1_use_ratio" => {
                    med(&|p| ratio(get(p, "t1map.t1_used"), get(p, "t1map.t1_found")))
                }
                "engine.hit_ratio" => med(&|p| {
                    let hits = get(p, "engine.hits_memory") + get(p, "engine.hits_disk");
                    ratio(hits, hits + get(p, "engine.computed"))
                }),
                "obs.overhead_frac" => wall(traced) / wall(untraced) - 1.0,
                _ => med(&|p| get(p, name)),
            };
            metric(name, value, traced.len(), "median traced pass")
        })
        .collect()
}

/// Self time of each crate, summed over threads, as a share of the median
/// traced pass.
fn attribution(layers: &[Metric], traced: &[&Pass]) -> String {
    let wall = median(
        &traced
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let mut out =
        format!("self time per crate over all threads, share of the traced pass ({wall:.4} s):");
    for m in layers.iter().filter(|m| m.name.ends_with(".self_s")) {
        out.push_str(&format!(
            " {} {:.1}%",
            m.name.trim_end_matches(".self_s"),
            100.0 * m.value / wall
        ));
    }
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let serve_root = PathBuf::from(OUT_DIR).join(format!("serve-{}", std::process::id()));
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(setup(args, &serve_root)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");
    workload.prepare_oracle(args.seed)?;

    let mut measured: Vec<Measured> = Vec::new();
    let mut spans = Vec::new();
    let mut durations = Vec::new();
    // Read after a fixed amount of work, set-up and one pass: later passes
    // creep the high-water mark up through allocator fragmentation, and
    // their number depends on the machine's speed.
    let mut peak_rss = 0.0;
    let start = Instant::now();
    for index in 0.. {
        let traced = args.trace && index % 2 == 1;
        let t = Instant::now();
        if traced {
            sfq_obs::enable();
        }
        let mut pass = workload.pass(index);
        if traced {
            sfq_obs::disable();
            let events = sfq_obs::take().events;
            let main_tid = events
                .iter()
                .find(|e| e.name == "bench:pass")
                .map_or(0, |e| e.tid);
            let analysis = trace::analyze(&events, main_tid);
            trace::span_layers(&events, &analysis, &mut pass.layers);
            spans.push((index, events, analysis));
        }
        durations.push(t.elapsed().as_secs_f64());
        measured.push(Measured { pass, traced });
        if measured.len() == 1 {
            peak_rss = peak_rss_mb()?;
        }
        let traced_n = measured.iter().filter(|m| m.traced).count();
        let enough = if args.trace {
            traced_n >= MIN_TRACED_PASSES && measured.len() - traced_n >= MIN_TRACED_PASSES
        } else {
            measured.len() >= MIN_PASSES
        };
        if enough && start.elapsed().as_secs_f64() + median(&durations) > args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&serve_root);

    let attempted: u64 = measured.iter().map(|m| m.pass.ops).sum();
    let mut failed: u64 = measured.iter().map(|m| m.pass.failed).sum();
    let mut errors: Vec<&str> = measured
        .iter()
        .flat_map(|m| m.pass.errors.iter().map(String::as_str))
        .collect();
    let qor = (measured[0].pass.area, measured[0].pass.depth);
    if measured.iter().any(|m| (m.pass.area, m.pass.depth) != qor) {
        failed += 1;
        errors.push("area or depth differs between passes of one run");
    }
    let failed = failed.min(attempted);
    for e in errors.iter().take(10) {
        eprintln!("perfbench: {e}");
    }
    if attempted == 0 {
        return Err("no operation ran".into());
    }

    let untraced: Vec<&Pass> = measured
        .iter()
        .filter(|m| !m.traced)
        .map(|m| &m.pass)
        .collect();
    let traced: Vec<&Pass> = measured
        .iter()
        .filter(|m| m.traced)
        .map(|m| &m.pass)
        .collect();
    let metrics = if args.trace {
        let layers = per_layer(&traced, &untraced);
        println!("{}", attribution(&layers, &traced));
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        std::fs::write(&path, trace::perfetto_json(&spans)).map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
        layers
    } else {
        end_to_end(&setup_s, peak_rss, &untraced, attempted, failed)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a number", m.name));
    }
    print!("{}", metrics::table(&metrics));
    let correct = failed == 0;
    println!(
        "{}",
        metrics::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
