//! Counting `#[global_allocator]` wrapper.
//!
//! [`CountingAlloc`] delegates every request to the system allocator and,
//! *only while the recorder is enabled*, maintains process-wide byte
//! counters with relaxed atomics plus a per-thread allocated-bytes tally.
//! When the recorder is disabled the entire overhead is one relaxed
//! atomic load per allocator call — the same contract the span macros
//! honor — so installing the wrapper cannot perturb untraced runs.
//!
//! Installation is per *binary* (that is what `#[global_allocator]`
//! means), so library users opt in explicitly:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: sfq_obs::alloc::CountingAlloc = sfq_obs::alloc::CountingAlloc::new();
//! ```
//!
//! [`crate::enable`] resets the counters, so [`stats`] reports the window
//! since tracing started. Blocks allocated before enabling may be freed
//! inside the window; every free therefore clamps the live count at zero
//! instead of driving it negative, so a later allocation of `n` bytes
//! always lifts `peak` to at least `n`. The counters cannot tell blocks
//! apart, though: a pre-window free that lands while in-window blocks are
//! live is charged against those blocks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOC: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the allocation counters since the last [`crate::enable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes handed out by the allocator while tracking was on.
    pub allocated: u64,
    /// Bytes returned to the allocator while tracking was on.
    pub freed: u64,
    /// Allocated minus freed, clamped at zero on every free.
    pub live: u64,
    /// High-water mark of `live`.
    pub peak: u64,
    /// Number of counted allocator calls (alloc + realloc-grow).
    pub calls: u64,
}

/// Reads the current counters. All zeros when the wrapper is not
/// installed or tracking never ran.
pub fn stats() -> AllocStats {
    AllocStats {
        allocated: ALLOC_BYTES.load(Relaxed),
        freed: FREED_BYTES.load(Relaxed),
        live: LIVE_BYTES.load(Relaxed),
        peak: PEAK_BYTES.load(Relaxed),
        calls: ALLOC_CALLS.load(Relaxed),
    }
}

/// `true` once the installed wrapper has counted at least one
/// allocation — i.e. memory numbers in reports are meaningful.
pub fn is_tracking() -> bool {
    ALLOC_CALLS.load(Relaxed) > 0
}

/// Total bytes this thread allocated while tracking was on. Differences
/// of this value bracket a region's exact allocation volume on one
/// thread, which is how spans and pool workers attribute bytes.
pub fn thread_allocated() -> u64 {
    THREAD_ALLOC.try_with(Cell::get).unwrap_or(0)
}

/// Zeroes the process-wide counters (called from [`crate::enable`]).
/// Per-thread tallies are left alone: consumers only use differences.
pub(crate) fn reset() {
    ALLOC_BYTES.store(0, Relaxed);
    FREED_BYTES.store(0, Relaxed);
    ALLOC_CALLS.store(0, Relaxed);
    LIVE_BYTES.store(0, Relaxed);
    PEAK_BYTES.store(0, Relaxed);
}

#[inline]
fn count_alloc(bytes: usize) {
    let bytes = bytes as u64;
    ALLOC_BYTES.fetch_add(bytes, Relaxed);
    ALLOC_CALLS.fetch_add(1, Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Relaxed);
    // try_with: allocator calls can arrive during TLS teardown.
    let _ = THREAD_ALLOC.try_with(|c| c.set(c.get() + bytes));
}

#[inline]
fn count_free(bytes: usize) {
    let bytes = bytes as u64;
    FREED_BYTES.fetch_add(bytes, Relaxed);
    // Saturating: the freed block may predate the window.
    let _ = LIVE_BYTES.fetch_update(Relaxed, Relaxed, |live| Some(live.saturating_sub(bytes)));
}

/// The counting allocator. Install with `#[global_allocator]`; behaves
/// exactly like [`System`] until the recorder is enabled.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for the `static` the attribute requires.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: all four methods delegate verbatim to `System` and only add
// side-effect-free atomic/Cell bookkeeping, so `System`'s contract holds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && crate::is_enabled() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && crate::is_enabled() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if crate::is_enabled() {
            count_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && crate::is_enabled() {
            // Count the delta so allocated/freed stay net-consistent.
            if new_size >= layout.size() {
                count_alloc(new_size - layout.size());
            } else {
                count_free(layout.size() - new_size);
            }
        }
        p
    }
}
