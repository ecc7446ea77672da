//! The four workloads. Each builds its inputs once (set-up) and then runs
//! timed passes; every pass checks its outputs after the clock stops.

use crate::gen::{self, Rng, Subject};
use crate::oracle::Reference;
use crate::store::{dir_bytes, StoreCounters, TimedStore};
use crate::trace::BATCH;
use sfq_engine::{CacheKey, HitSource, Job, ResultCache, SuiteReport, SuiteRunner};
use sfq_netlist::aig::Aig;
use sfq_netlist::aiger;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};
use t1map::cells::CellLibrary;
use t1map::flow::{FlowConfig, FlowResult};

/// Per-layer figures of one pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass measured and found.
#[derive(Debug, Default)]
pub struct Pass {
    /// Timed region only: submission of the inputs to the last result.
    pub wall: Duration,
    pub ops: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Summed area and depth over the pass's distinct flow results.
    pub area: u64,
    pub depth: i64,
    pub latencies_ms: Vec<f64>,
    pub layers: Layers,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    fn add(&mut self, metric: &'static str, v: f64) {
        *self.layers.entry(metric).or_insert(0.0) += v;
    }
}

pub trait Workload {
    /// Checks the generated inputs and evaluates the oracle's reference
    /// outputs on vectors drawn from `seed`. Runs once, after the last
    /// set-up and outside every timer.
    fn prepare_oracle(&mut self, seed: u64) -> Result<(), String>;

    /// Runs one timed pass; `index` numbers the passes of a run.
    fn pass(&mut self, index: usize) -> Pass;
}

/// What a job's latency sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Latency {
    /// Time the job occupied a worker: the flow time of one circuit.
    JobTime,
    /// Batch submission to the job's completion, as a client sees it.
    SinceSubmit,
}

/// One job's outcome as the engine reported it.
struct Outcome {
    key: CacheKey,
    source: HitSource,
    latency: Duration,
}

/// Submits `jobs` as one batch inside a `bench:batch` span; a panic fails
/// the whole batch.
fn run_batch(
    runner: &SuiteRunner,
    jobs: &[Job],
    label: &str,
    latency: Latency,
    pass: &mut Pass,
) -> Option<(SuiteReport, Vec<Outcome>)> {
    let _span = sfq_obs::span_labeled(BATCH, || label.to_string());
    let mut outcomes: Vec<Option<Outcome>> = (0..jobs.len()).map(|_| None).collect();
    let mut alloc = 0u64;
    let run = catch_unwind(AssertUnwindSafe(|| {
        runner.run_with_progress(jobs, |o| {
            alloc += o.alloc_bytes;
            outcomes[o.index] = Some(Outcome {
                key: o.key,
                source: o.source,
                latency: match latency {
                    Latency::JobTime => o.duration,
                    Latency::SinceSubmit => o.elapsed,
                },
            });
        })
    }));
    pass.ops += jobs.len() as u64;
    match run {
        Ok(report) => {
            pass.add("t1map.alloc_bytes", alloc as f64);
            let outcomes = outcomes
                .into_iter()
                .map(|o| o.expect("the engine reports every job"))
                .collect();
            Some((report, outcomes))
        }
        Err(_) => {
            for job in jobs {
                pass.fail(format!("{}: panicked", job.label()));
            }
            None
        }
    }
}

/// Adds the engine counters and the layer figures carried by computed
/// results (cache hits would count the same work twice).
fn absorb(report: &SuiteReport, outcomes: &[Outcome], pass: &mut Pass) {
    pass.add("engine.hits_memory", report.cache.memory_hits as f64);
    pass.add("engine.hits_disk", report.cache.disk_hits as f64);
    pass.add("engine.computed", report.cache.misses as f64);
    for (result, outcome) in report.results.iter().zip(outcomes) {
        pass.latencies_ms.push(outcome.latency.as_secs_f64() * 1e3);
        if outcome.source != HitSource::Computed {
            continue;
        }
        pass.add("t1map.t1_found", result.stats.t1_found as f64);
        pass.add("t1map.t1_used", result.stats.t1_used as f64);
        let Some(report) = &result.pre_opt else {
            continue;
        };
        pass.add("opt.rounds", report.rounds.len() as f64);
        pass.add(
            "opt.nodes_removed",
            report.nodes_before.saturating_sub(report.nodes_after) as f64,
        );
        pass.add("opt.sta_builds", report.analysis.sta_full_builds as f64);
        pass.add(
            "opt.sta_refreshed",
            report.analysis.sta_nodes_refreshed as f64,
        );
        for stats in report.rounds.iter().flatten() {
            let secs = stats.micros as f64 / 1e6;
            match stats.pass {
                "rewrite" => {
                    pass.add("opt.rewrite_s", secs);
                    pass.add("opt.rewrite_applied", stats.applied as f64);
                }
                "balance" => pass.add("opt.balance_s", secs),
                "strash" => pass.add("opt.strash_s", secs),
                "sweep" => pass.add("opt.sweep_s", secs),
                _ => {}
            }
        }
    }
}

/// The oracle's references for `subjects`, which are consumed.
fn references(subjects: &mut Vec<Subject>, seed: u64) -> Result<Vec<Reference>, String> {
    let mut rng = Rng::new(seed ^ 0x0AC1E);
    std::mem::take(subjects)
        .iter()
        .map(|s| Reference::new(s, &mut rng))
        .collect()
}

/// Runs one small flow so that thread start-up and first-touch costs land
/// in set-up, not in the first pass.
fn warm_up(workers: usize) {
    let aig = Arc::new(sfq_circuits::epfl::adder(8));
    let job = Job::new(
        "warm-up",
        "t1",
        aig,
        CellLibrary::default(),
        FlowConfig::t1(4),
    );
    SuiteRunner::new(workers).run(&[job]);
}

/// `table1` and `preopt`: a fixed job list on a fresh one-worker engine
/// per pass (its private memory store dies with the pass).
struct Batch {
    jobs: Vec<Job>,
    subject_of: Vec<usize>,
    /// Held until the oracle is prepared.
    subjects: Vec<Subject>,
    refs: Vec<Reference>,
}

/// The Table-I subjects under `flows`, subject by subject. The order is
/// fixed: the seed only draws the oracle's vectors, so the program's inputs
/// and its allocation pattern are the paper's on every seed.
fn batch(flows: &[(&str, FlowConfig)]) -> Result<Batch, String> {
    let subjects = gen::table1_subjects()?;
    let lib = CellLibrary::default();
    let mut jobs = Vec::new();
    let mut subject_of = Vec::new();
    for (s, subject) in subjects.iter().enumerate() {
        let aig = Arc::new(subject.aig.clone());
        for (flow, config) in flows {
            jobs.push(Job::new(
                &subject.name,
                *flow,
                aig.clone(),
                lib,
                config.clone(),
            ));
            subject_of.push(s);
        }
    }
    warm_up(1);
    Ok(Batch {
        jobs,
        subject_of,
        subjects,
        refs: Vec::new(),
    })
}

pub fn table1() -> Result<Box<dyn Workload>, String> {
    let flows = [
        ("1phi", FlowConfig::single_phase()),
        ("4phi", FlowConfig::multiphase(4)),
        ("t1@4", FlowConfig::t1(4)),
    ];
    Ok(Box::new(batch(&flows)?))
}

pub fn preopt() -> Result<Box<dyn Workload>, String> {
    let flows = [(
        "t1@4+opt",
        FlowConfig::t1(4).to_builder().standard_opt().build(),
    )];
    Ok(Box::new(batch(&flows)?))
}

impl Workload for Batch {
    fn prepare_oracle(&mut self, seed: u64) -> Result<(), String> {
        self.refs = references(&mut self.subjects, seed)?;
        Ok(())
    }

    fn pass(&mut self, index: usize) -> Pass {
        let mut pass = Pass::default();
        let runner = SuiteRunner::new(1);
        let t = Instant::now();
        let run = {
            let _span = sfq_obs::span_labeled("bench:pass", || format!("pass {index}"));
            run_batch(&runner, &self.jobs, "suite", Latency::JobTime, &mut pass)
        };
        pass.wall = t.elapsed();
        if let Some((report, outcomes)) = run {
            absorb(&report, &outcomes, &mut pass);
            for (i, result) in report.results.iter().enumerate() {
                check(
                    &self.refs[self.subject_of[i]],
                    &self.jobs[i],
                    result,
                    &mut pass,
                );
            }
        }
        pass
    }
}

fn check(reference: &Reference, job: &Job, result: &FlowResult, pass: &mut Pass) {
    pass.area += result.stats.area;
    pass.depth += result.stats.depth_cycles;
    if let Err(e) = reference.check(result) {
        pass.fail(format!("{}: {e}", job.label()));
    }
}

/// `scale`: two large networks handed over as binary AIGER bytes, parsed
/// and mapped under 4φ and T1@4 on one worker.
struct Scale {
    nets: Vec<(String, Vec<u8>)>,
    /// Held until the oracle is prepared.
    subjects: Vec<Subject>,
    refs: Vec<Reference>,
}

pub fn scale() -> Result<Box<dyn Workload>, String> {
    let wide = gen::wide_random(gen::WIDE_SEED);
    if wide.and_count() != gen::WIDE_ANDS {
        return Err(format!(
            "wide network has {} ANDs, the benchmark pins {}",
            wide.and_count(),
            gen::WIDE_ANDS
        ));
    }
    let deep = sfq_circuits::epfl::adder(gen::DEEP_ADDER_BITS);
    if deep.and_count() != gen::DEEP_ADDER_ANDS {
        return Err(format!(
            "deep adder has {} ANDs, the benchmark pins {}",
            deep.and_count(),
            gen::DEEP_ADDER_ANDS
        ));
    }
    let subjects = vec![
        Subject {
            name: format!("wide-random:{}", gen::WIDE_SEED),
            aig: wide,
            arith: gen::Arith::None,
        },
        Subject {
            name: format!("adder:{}", gen::DEEP_ADDER_BITS),
            aig: deep,
            arith: gen::Arith::Adder(gen::DEEP_ADDER_BITS),
        },
    ];
    let nets = subjects
        .iter()
        .map(|s| (s.name.clone(), aiger::write_binary(&s.aig)))
        .collect();
    warm_up(1);
    Ok(Box::new(Scale {
        nets,
        subjects,
        refs: Vec::new(),
    }))
}

impl Workload for Scale {
    fn prepare_oracle(&mut self, seed: u64) -> Result<(), String> {
        let unreached = gen::unreached(&self.subjects[0].aig).len();
        if unreached != 0 {
            return Err(format!(
                "{unreached} ANDs of the wide network reach no output"
            ));
        }
        self.refs = references(&mut self.subjects, seed)?;
        Ok(())
    }

    fn pass(&mut self, index: usize) -> Pass {
        let mut pass = Pass::default();
        let lib = CellLibrary::default();
        let runner = SuiteRunner::new(1);
        let flows = [
            ("4phi", FlowConfig::multiphase(4)),
            ("t1@4", FlowConfig::t1(4)),
        ];
        let t = Instant::now();
        let span = sfq_obs::span_labeled("bench:pass", || format!("pass {index}"));
        let mut jobs = Vec::new();
        let mut net_of = Vec::new();
        for (n, (name, bytes)) in self.nets.iter().enumerate() {
            let read = {
                let _span = sfq_obs::span_labeled("netlist:aiger-read", || name.clone());
                aiger::read_binary_from(bytes.as_slice())
            };
            match read {
                Ok(aig) => {
                    let aig = Arc::new(aig);
                    for (flow, config) in &flows {
                        jobs.push(Job::new(name, *flow, aig.clone(), lib, config.clone()));
                        net_of.push(n);
                    }
                }
                Err(e) => {
                    pass.ops += flows.len() as u64;
                    for _ in &flows {
                        pass.fail(format!("{name}: AIGER read failed: {e}"));
                    }
                }
            }
        }
        let run = run_batch(&runner, &jobs, "suite", Latency::JobTime, &mut pass);
        drop(span);
        pass.wall = t.elapsed();
        if let Some((report, outcomes)) = run {
            absorb(&report, &outcomes, &mut pass);
            for (i, result) in report.results.iter().enumerate() {
                check(&self.refs[net_of[i]], &jobs[i], result, &mut pass);
            }
        }
        pass
    }
}

/// Requests per batch of the closed-loop client: eight per worker, so that
/// requests queue behind computes and a batch at times holds one key twice
/// (in-flight dedup). Chosen for that, not measured from serve traffic.
pub const SERVE_BATCH: usize = 16;
/// Workers of the `serve` engine; more than one, so that the pool, queue
/// wait and in-flight dedup are exercised.
pub const SERVE_WORKERS: usize = 2;

/// `serve`: a single closed-loop client over a disk-backed engine that
/// restarts halfway through the stream.
struct Serve {
    subjects: Vec<Arc<Aig>>,
    names: Vec<String>,
    /// Held until the oracle is prepared.
    pending: Vec<Subject>,
    refs: Vec<Reference>,
    catalog: Vec<gen::Request>,
    seed: u64,
    root: PathBuf,
}

pub fn serve(seed: u64, root: PathBuf) -> Result<Box<dyn Workload>, String> {
    let subjects = gen::serve_subjects()?;
    let catalog = gen::serve_catalog();
    if !gen::serve_stream(seed, 0, catalog.len())
        .len()
        .is_multiple_of(2 * SERVE_BATCH)
    {
        return Err("the restart must fall between batches".into());
    }
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    warm_up(SERVE_WORKERS);
    Ok(Box::new(Serve {
        subjects: subjects.iter().map(|s| Arc::new(s.aig.clone())).collect(),
        names: subjects.iter().map(|s| s.name.clone()).collect(),
        pending: subjects,
        refs: Vec::new(),
        catalog,
        seed,
        root,
    }))
}

fn open_engine(
    dir: &std::path::Path,
    counters: &Arc<StoreCounters>,
) -> Result<(Arc<TimedStore>, SuiteRunner), String> {
    let store = Arc::new(
        TimedStore::open(dir, counters.clone()).map_err(|e| format!("{}: {e}", dir.display()))?,
    );
    let cache = Arc::new(ResultCache::with_backing(store.clone()));
    Ok((store, SuiteRunner::new(SERVE_WORKERS).with_store(cache)))
}

impl Workload for Serve {
    fn prepare_oracle(&mut self, seed: u64) -> Result<(), String> {
        self.refs = references(&mut self.pending, seed)?;
        Ok(())
    }

    fn pass(&mut self, index: usize) -> Pass {
        let mut pass = Pass::default();
        let dir = self.root.join(format!("pass-{index}"));
        let _ = std::fs::remove_dir_all(&dir);
        let counters = Arc::new(StoreCounters::default());
        let lib = CellLibrary::default();
        let stream = gen::serve_stream(self.seed, index, self.catalog.len());
        let restart = stream.len() / SERVE_BATCH / 2;
        let mut stores = Vec::new();
        let mut served: Vec<(usize, CacheKey, HitSource, Arc<FlowResult>)> = Vec::new();

        let t = Instant::now();
        let span = sfq_obs::span_labeled("bench:pass", || format!("pass {index}"));
        let mut engine = open_engine(&dir, &counters);
        for (b, chunk) in stream.chunks(SERVE_BATCH).enumerate() {
            if b == restart {
                // Like a process restart: the memory tier is gone, the
                // directory stays.
                let _span = sfq_obs::span("bench:restart");
                if let Ok((store, _)) = engine {
                    stores.push(store);
                }
                engine = open_engine(&dir, &counters);
            }
            let runner = match &engine {
                Ok((_, runner)) => runner,
                Err(e) => {
                    pass.ops += chunk.len() as u64;
                    for _ in chunk {
                        pass.fail(format!("store: {e}"));
                    }
                    continue;
                }
            };
            let jobs: Vec<Job> = chunk
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let req = &self.catalog[c];
                    Job::new(
                        format!("r{} {}", b * SERVE_BATCH + i, self.names[req.subject]),
                        req.flow,
                        self.subjects[req.subject].clone(),
                        lib,
                        req.config.clone(),
                    )
                })
                .collect();
            let label = format!("batch {b}");
            if let Some((report, outcomes)) =
                run_batch(runner, &jobs, &label, Latency::SinceSubmit, &mut pass)
            {
                absorb(&report, &outcomes, &mut pass);
                for ((&c, result), outcome) in chunk.iter().zip(report.results).zip(&outcomes) {
                    served.push((c, outcome.key, outcome.source, result));
                }
            }
        }
        drop(span);
        pass.wall = t.elapsed();
        if let Ok((store, _)) = engine {
            stores.push(store);
        }

        let mut first = HashMap::new();
        let mut distinct = HashMap::new();
        for (c, key, source, result) in served {
            let req = &self.catalog[c];
            let reference = &self.refs[req.subject];
            if let Err(e) = verify_served(&mut first, key, source, &result, reference) {
                pass.fail(format!("{} {}: {e}", self.names[req.subject], req.flow));
            }
            distinct.insert(key, (result.stats.area, result.stats.depth_cycles));
        }
        pass.area = distinct.values().map(|v| v.0).sum();
        pass.depth = distinct.values().map(|v| v.1).sum();
        for store in &stores {
            for _ in 0..store.errors() {
                pass.fail("store: an entry failed to read or decode".into());
            }
        }
        pass.add(
            "engine.store.get_s",
            counters.get_ns.load(Relaxed) as f64 / 1e9,
        );
        pass.add(
            "engine.store.put_s",
            counters.put_ns.load(Relaxed) as f64 / 1e9,
        );
        pass.add("engine.store.gets", counters.gets.load(Relaxed) as f64);
        pass.add("engine.store.puts", counters.puts.load(Relaxed) as f64);
        pass.add("engine.store.disk_bytes", dir_bytes(&dir) as f64);
        drop(stores);
        let _ = std::fs::remove_dir_all(&dir);
        pass
    }
}

/// Checks one result of a `serve` pass, in stream order. A computed result
/// must pass the oracle; a result served from memory or disk must equal the
/// one computed for its key earlier in the pass. (Results computed in
/// different passes are not compared: their pre-opt reports carry their own
/// pass timings.)
fn verify_served(
    first: &mut HashMap<CacheKey, Arc<FlowResult>>,
    key: CacheKey,
    source: HitSource,
    result: &Arc<FlowResult>,
    reference: &Reference,
) -> Result<(), String> {
    match first.get(&key) {
        Some(f) if source.is_hit() => {
            if **f == **result {
                Ok(())
            } else {
                Err("served result differs from the one computed first".into())
            }
        }
        _ => {
            reference.check(result)?;
            first.entry(key).or_insert_with(|| result.clone());
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_engine::ResultStore;

    /// Stores one real result, lets `tamper` edit its file, then serves
    /// it back the way a restarted engine would.
    fn serve_tampered(tamper: impl FnOnce(&str) -> String) -> Result<(), String> {
        let subject = gen::registry_subject("adder", 16, 169).unwrap();
        let reference = Reference::new(&subject, &mut Rng::new(5)).unwrap();
        let config = FlowConfig::t1(4);
        let lib = CellLibrary::default();
        let key = CacheKey::compute(&subject.aig, &lib, &config);
        let computed = Arc::new(t1map::flow::run_flow(&subject.aig, &lib, &config));
        let mut first = HashMap::new();
        verify_served(&mut first, key, HitSource::Computed, &computed, &reference).unwrap();

        let dir = std::env::temp_dir().join(format!(
            "perfbench-tamper-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let counters = Arc::new(StoreCounters::default());
        let store = TimedStore::open(&dir, counters.clone()).unwrap();
        store.put(key, &computed);
        let entry = std::fs::read_dir(store.root())
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "sfqr"))
            .expect("one stored entry");
        let text = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(&entry, tamper(&text)).unwrap();

        let restarted = TimedStore::open(&dir, counters).unwrap();
        let outcome = match restarted.get(key) {
            Some(served) => verify_served(&mut first, key, HitSource::Disk, &served, &reference),
            None if restarted.errors() > 0 => Err("entry failed to decode".into()),
            None => Err("entry vanished".into()),
        };
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    }

    #[test]
    fn an_untouched_entry_is_accepted() {
        serve_tampered(str::to_string).unwrap();
    }

    #[test]
    fn an_entry_with_a_changed_value_is_rejected() {
        // Flip the inversion bit of the first primary output.
        let err = serve_tampered(|text| {
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            let po = lines.iter().position(|l| l.starts_with("p ")).unwrap();
            let mut f: Vec<String> = lines[po].split(' ').map(String::from).collect();
            f[3] = if f[3] == "0" { "1".into() } else { "0".into() };
            lines[po] = f.join(" ");
            lines.join("\n") + "\n"
        })
        .unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }

    #[test]
    fn a_garbled_entry_is_rejected() {
        let err = serve_tampered(|text| text.replacen("stats", "stots", 1)).unwrap_err();
        assert!(err.contains("decode"), "{err}");
    }
}
