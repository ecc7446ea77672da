//! Fixed-size worker pool and suite orchestration.

use crate::cache::{CacheStats, HitSource, ResultCache};
use crate::job::{CacheKey, Job};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use t1map::flow::{finish, prefix_fingerprint, prepare, FlowResult, FlowStats, Prepared};

/// Worker count to use when the caller does not specify one: the machine's
/// [`available_parallelism`](std::thread::available_parallelism), or 1 if
/// that cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Progress event for one finished job, streamed to the caller as results
/// arrive (in *completion* order, which under parallelism differs from
/// submission order — `index` identifies the job, `completed` counts
/// progress).
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome<'a> {
    /// The finished job.
    pub job: &'a Job,
    /// Index of the job in the submitted slice.
    pub index: usize,
    /// How many jobs have finished so far (including this one).
    pub completed: usize,
    /// Total number of submitted jobs.
    pub total: usize,
    /// The job's content address, as computed by the worker — streaming
    /// consumers (e.g. the `sfq-explore` sweep runner) group deduplicated
    /// submissions by this key without re-hashing the AIG.
    pub key: CacheKey,
    /// Which tier served the result (or [`HitSource::Computed`] if the
    /// flow ran).
    pub source: HitSource,
    /// Wall-clock time this job occupied a worker. Near zero for hits on an
    /// already-finished entry; a hit that piggybacked on another worker's
    /// in-flight computation of the same key reports the time spent waiting
    /// for that computation instead. Of the computed jobs that share one
    /// flow prefix (see [`SuiteRunner`]), the one that builds it is charged
    /// for it, and a job that waits for another worker to finish it counts
    /// that wait.
    pub duration: Duration,
    /// Monotonic wall-clock time from the start of the whole run to this
    /// job's completion — the timestamp progress reporters print.
    pub elapsed: Duration,
    /// Bytes the worker thread allocated while this job occupied it.
    /// Zero unless the [`sfq_obs::alloc`] wrapper is installed and the
    /// recorder is enabled. A shared flow prefix is charged to the job
    /// that builds it.
    pub alloc_bytes: u64,
    /// Process-wide peak live bytes observed by this job's end — a
    /// high-water mark over all threads, not a per-job figure. Zero when
    /// allocation tracking is off.
    pub peak_bytes: u64,
    /// Aggregate metrics of the result.
    pub stats: FlowStats,
}

/// Everything a suite run produces.
#[derive(Debug)]
pub struct SuiteReport {
    /// One result per submitted job, in submission order — independent of
    /// completion order, so serial and parallel runs render identically.
    /// Jobs that shared a cache entry share the same `Arc`.
    pub results: Vec<Arc<FlowResult>>,
    /// Cache counter increments attributable to *this* run (a delta of two
    /// snapshots, so a shared long-lived store reports per-run figures).
    pub cache: CacheStats,
    /// Wall-clock time of the whole suite.
    pub elapsed: Duration,
    /// Number of worker threads actually used.
    pub workers: usize,
}

/// A fixed-size pool that executes a batch of [`Job`]s.
///
/// Workers are `std::thread`s claiming jobs from a shared atomic cursor;
/// results flow back over an `mpsc` channel to the calling thread, which
/// invokes the progress callback (no `Send`/`Sync` bound on the callback)
/// and slots each result into its submission-order position.
///
/// Jobs that run different flows on one subject share the flow prefix
/// ([`prepare`]: pre-opt, cut choice and baseline cover). Each run keeps a
/// memo of prefixes keyed by the job's AIG allocation (`Arc` pointer, so no
/// AIG is hashed for it), library and pre-opt stage; the first job that
/// needs a prefix computes it, concurrent ones wait for it, and the entry
/// is dropped once every job of the run that could use it has finished.
///
/// By default each run uses a private in-memory [`ResultCache`] that dies
/// with the run. [`with_store`](SuiteRunner::with_store) attaches a shared,
/// long-lived store instead — typically a [`ResultCache`] layered over a
/// [`DiskStore`](crate::store::DiskStore) — so results persist across runs
/// (and, through the disk tier, across processes).
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    workers: usize,
    store: Option<Arc<ResultCache>>,
}

/// A flow prefix's identity within one run: the job's AIG allocation and
/// the [`prefix_fingerprint`] of its library and pre-opt stage.
type PrefixKey = (usize, u64);

fn prefix_key(job: &Job) -> PrefixKey {
    (
        Arc::as_ptr(&job.aig) as usize,
        prefix_fingerprint(&job.lib, &job.config.pre_opt),
    )
}

/// One slot of the per-run prefix memo: the jobs of the run that have not
/// finished yet, and the prefix, computed by the first of them that needs
/// it.
type PrefixSlot<'a> = (usize, Arc<OnceLock<Prepared<'a>>>);

/// The per-run prefix memo.
struct PrefixMemo<'a> {
    slots: Mutex<HashMap<PrefixKey, PrefixSlot<'a>>>,
}

impl<'a> PrefixMemo<'a> {
    /// A memo expecting one finished job per entry of `keys`.
    fn new(keys: &[PrefixKey]) -> Self {
        let mut slots: HashMap<PrefixKey, PrefixSlot<'a>> = HashMap::new();
        for &key in keys {
            slots.entry(key).or_default().0 += 1;
        }
        PrefixMemo {
            slots: Mutex::new(slots),
        }
    }

    /// Runs `job`'s flow from its prefix, which is computed here unless
    /// another job of the run already computed it or is computing it (then
    /// this waits for it).
    fn compute(&self, key: PrefixKey, job: &'a Job) -> FlowResult {
        let cell = self.lock()[&key].1.clone();
        let mut built = false;
        let prepared = cell.get_or_init(|| {
            built = true;
            prepare(&job.aig, &job.lib, &job.config.pre_opt)
        });
        if !built {
            sfq_obs::counter("engine.prefix.shared", 1);
        }
        finish(prepared, &job.lib, &job.config)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PrefixKey, PrefixSlot<'a>>> {
        // No code panics while holding this lock.
        self.slots.lock().expect("prefix memo lock")
    }

    /// Records that a job with prefix `key` finished, dropping the prefix
    /// after the last one.
    fn release(&self, key: PrefixKey) {
        let mut slots = self.lock();
        let slot = slots.get_mut(&key).expect("every job has a slot");
        slot.0 -= 1;
        let done = (slot.0 == 0).then(|| slots.remove(&key));
        drop(slots);
        drop(done);
    }
}

struct WorkerEvent {
    index: usize,
    result: Arc<FlowResult>,
    key: CacheKey,
    source: HitSource,
    duration: Duration,
    elapsed: Duration,
    alloc_bytes: u64,
    peak_bytes: u64,
}

impl SuiteRunner {
    /// Creates a runner with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        SuiteRunner {
            workers: workers.max(1),
            store: None,
        }
    }

    /// Creates a runner sized by [`default_workers`].
    pub fn with_default_workers() -> Self {
        Self::new(default_workers())
    }

    /// Uses `store` for every run instead of a fresh per-run cache, so
    /// results are shared across runs (and across runners holding clones of
    /// the same `Arc`).
    pub fn with_store(mut self, store: Arc<ResultCache>) -> Self {
        self.store = Some(store);
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The shared store, if one is attached.
    pub fn store(&self) -> Option<&Arc<ResultCache>> {
        self.store.as_ref()
    }

    /// Executes `jobs` and collects the report, without progress reporting.
    pub fn run(&self, jobs: &[Job]) -> SuiteReport {
        self.run_with_progress(jobs, |_| {})
    }

    /// Executes `jobs`, invoking `on_event` on the calling thread as each
    /// job finishes, and collects the report.
    pub fn run_with_progress<F>(&self, jobs: &[Job], mut on_event: F) -> SuiteReport
    where
        F: FnMut(JobOutcome<'_>),
    {
        let start = Instant::now();
        let total = jobs.len();
        let workers = self.workers.min(total.max(1));
        let local;
        let cache: &ResultCache = match &self.store {
            Some(shared) => shared.as_ref(),
            None => {
                local = ResultCache::new();
                &local
            }
        };
        let before = cache.stats();
        let prefix_keys: Vec<PrefixKey> = jobs.iter().map(prefix_key).collect();
        let memo = PrefixMemo::new(&prefix_keys);
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<Arc<FlowResult>>> = vec![None; total];
        // Queue-wait spans are measured from this common origin; `None`
        // while the recorder is disabled, making the whole path free.
        let run_start_us = sfq_obs::now_us();

        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<WorkerEvent>();
            for _ in 0..workers {
                let tx = tx.clone();
                let (cursor, memo, prefix_keys) = (&cursor, &memo, &prefix_keys);
                scope.spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let job = &jobs[index];
                    if let (Some(submit), Some(picked)) = (run_start_us, sfq_obs::now_us()) {
                        sfq_obs::emit_span("engine:queue-wait", submit, picked, || job.label());
                    }
                    let t0 = Instant::now();
                    let alloc0 = sfq_obs::alloc::thread_allocated();
                    let key = job.key();
                    let (result, source) = {
                        let _span = sfq_obs::span_labeled("engine:job", || job.label());
                        cache.get_or_compute(key, || {
                            let _span = sfq_obs::span_labeled("engine:compute", || job.label());
                            memo.compute(prefix_keys[index], job)
                        })
                    };
                    memo.release(prefix_keys[index]);
                    // The receiver only disappears if the collector loop
                    // ended early (callback panic); nothing left to report.
                    let _ = tx.send(WorkerEvent {
                        index,
                        result,
                        key,
                        source,
                        duration: t0.elapsed(),
                        elapsed: start.elapsed(),
                        alloc_bytes: sfq_obs::alloc::thread_allocated().saturating_sub(alloc0),
                        peak_bytes: sfq_obs::alloc::stats().peak,
                    });
                });
            }
            drop(tx);

            for (done, event) in rx.into_iter().enumerate() {
                on_event(JobOutcome {
                    job: &jobs[event.index],
                    index: event.index,
                    completed: done + 1,
                    total,
                    key: event.key,
                    source: event.source,
                    duration: event.duration,
                    elapsed: event.elapsed,
                    alloc_bytes: event.alloc_bytes,
                    peak_bytes: event.peak_bytes,
                    stats: event.result.stats,
                });
                results[event.index] = Some(event.result);
            }
        });

        SuiteReport {
            results: results
                .into_iter()
                .map(|r| r.expect("every submitted job reports a result"))
                .collect(),
            cache: cache.stats().delta_since(&before),
            elapsed: start.elapsed(),
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HitSource;
    use sfq_circuits::epfl::adder;
    use t1map::cells::CellLibrary;
    use t1map::flow::FlowConfig;

    fn three_flow_jobs() -> Vec<Job> {
        let lib = CellLibrary::default();
        let aig = Arc::new(adder(4));
        vec![
            Job::new("adder4", "1φ", aig.clone(), lib, FlowConfig::single_phase()),
            Job::new("adder4", "4φ", aig.clone(), lib, FlowConfig::multiphase(4)),
            Job::new("adder4", "T1", aig, lib, FlowConfig::t1(4)),
        ]
    }

    #[test]
    fn empty_suite() {
        let report = SuiteRunner::new(4).run(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.cache, CacheStats::default());
    }

    #[test]
    fn progress_streams_every_job_once() {
        let jobs = three_flow_jobs();
        let mut seen = Vec::new();
        let report = SuiteRunner::new(2).run_with_progress(&jobs, |o| {
            assert_eq!(o.total, 3);
            assert_eq!(o.completed, seen.len() + 1);
            assert_eq!(o.key, jobs[o.index].key(), "outcomes carry their address");
            seen.push(o.index);
        });
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.workers, 2);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(SuiteRunner::new(0).workers(), 1);
        let jobs = three_flow_jobs();
        // More workers than jobs: the pool shrinks to the job count.
        let report = SuiteRunner::new(64).run(&jobs);
        assert_eq!(report.workers, 3);
    }

    #[test]
    fn shared_store_carries_results_across_runs() {
        let store = Arc::new(ResultCache::new());
        let runner = SuiteRunner::new(2).with_store(store.clone());
        let jobs = three_flow_jobs();

        let cold = runner.run(&jobs);
        assert_eq!(cold.cache.misses, 3);
        assert_eq!(cold.cache.hits(), 0);

        // Second run over the same store: everything is a memory hit, and
        // the per-run delta does not double-count the first run.
        let mut sources = Vec::new();
        let warm = runner.run_with_progress(&jobs, |o| sources.push(o.source));
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.cache.memory_hits, 3);
        assert!(sources.iter().all(|s| *s == HitSource::Memory));
        assert_eq!(store.stats().misses, 3, "lifetime counters accumulate");
    }
}
