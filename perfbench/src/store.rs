//! A [`ResultStore`] that times the disk tier it wraps.

use sfq_engine::{CacheKey, DiskStore, ResultStore, StoreStats};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use t1map::flow::FlowResult;

/// Store traffic of one pass, shared by the stores opened during it.
#[derive(Debug, Default)]
pub struct StoreCounters {
    pub get_ns: AtomicU64,
    pub put_ns: AtomicU64,
    pub gets: AtomicU64,
    pub puts: AtomicU64,
}

/// [`DiskStore`] with every `get` and `put` timed into [`StoreCounters`].
#[derive(Debug)]
pub struct TimedStore {
    inner: DiskStore,
    counters: Arc<StoreCounters>,
}

impl TimedStore {
    pub fn open(dir: &Path, counters: Arc<StoreCounters>) -> std::io::Result<Self> {
        Ok(TimedStore {
            inner: DiskStore::open(dir)?,
            counters,
        })
    }

    #[cfg(test)]
    /// The format-versioned directory that holds the entries.
    pub fn root(&self) -> &Path {
        self.inner.root()
    }

    /// I/O and decode failures the disk tier has counted so far.
    pub fn errors(&self) -> u64 {
        self.inner.stats().errors
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl ResultStore for TimedStore {
    fn get(&self, key: CacheKey) -> Option<Arc<FlowResult>> {
        let t = Instant::now();
        let found = self.inner.get(key);
        self.counters.get_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.counters.gets.fetch_add(1, Relaxed);
        found
    }

    fn put(&self, key: CacheKey, result: &Arc<FlowResult>) {
        let t = Instant::now();
        self.inner.put(key, result);
        self.counters.put_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.counters.puts.fetch_add(1, Relaxed);
    }

    fn contains(&self, key: CacheKey) -> bool {
        self.inner.contains(key)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn gc(&self, keep_newest: usize) -> usize {
        self.inner.gc(keep_newest)
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
