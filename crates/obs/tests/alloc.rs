//! Integration tests of the counting allocator. This test binary — and
//! only this one — installs [`sfq_obs::alloc::CountingAlloc`] as its
//! global allocator, exactly like the CLI binaries do, so these tests
//! see real counted allocations while the sibling `obs.rs` binary
//! exercises the uninstalled path.

use sfq_obs::alloc::{self, CountingAlloc};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The recorder (and thus the allocator gate) is process-global state.
static GLOBAL: Mutex<()> = Mutex::new(());

#[test]
fn disabled_recorder_counts_nothing() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_obs::enable(); // resets counters…
    sfq_obs::disable(); // …and gates them off again
    let before = alloc::stats();
    let v: Vec<u8> = Vec::with_capacity(1 << 16);
    drop(v);
    let after = alloc::stats();
    assert_eq!(before, after, "disabled path must not count");
    assert!(!alloc::is_tracking());
}

#[test]
fn enabled_recorder_counts_bytes_live_and_peak() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_obs::enable();
    let t0 = alloc::thread_allocated();
    let v: Vec<u8> = Vec::with_capacity(1 << 16);
    let mid = alloc::stats();
    assert!(mid.allocated >= 1 << 16, "allocation counted: {mid:?}");
    assert!(mid.peak >= 1 << 16, "peak tracks the high-water mark");
    assert!(alloc::is_tracking());
    drop(v);
    let end = alloc::stats();
    assert!(end.freed >= 1 << 16, "free counted: {end:?}");
    assert!(end.peak >= end.live, "peak never below live");
    assert!(
        alloc::thread_allocated() - t0 >= 1 << 16,
        "per-thread tally advanced"
    );
    sfq_obs::disable();
    let _ = sfq_obs::take();
}

#[test]
fn pre_window_free_cannot_mask_in_window_peak() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    // A block allocated before the window and freed inside it: were the
    // free charged below zero, the 64 KiB allocation after it would only
    // lift `peak` to 64 KiB minus 1 MiB.
    let old: Vec<u8> = Vec::with_capacity(1 << 20);
    std::hint::black_box(&old);
    sfq_obs::enable();
    drop(old);
    let v: Vec<u8> = Vec::with_capacity(1 << 16);
    std::hint::black_box(&v);
    let s = alloc::stats();
    assert!(s.freed >= 1 << 20, "pre-window free counted: {s:?}");
    assert!(s.live >= 1 << 16, "live covers the in-window block: {s:?}");
    assert!(s.peak >= 1 << 16, "peak covers the in-window block: {s:?}");
    drop(v);
    sfq_obs::disable();
    let _ = sfq_obs::take();
}

#[test]
fn span_close_attaches_allocation_delta_and_bytes_histogram() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_obs::enable();
    {
        let _s = sfq_obs::span("alloc-heavy");
        let v: Vec<u64> = vec![0; 8192];
        std::hint::black_box(&v);
    }
    {
        let _s = sfq_obs::span("alloc-light");
    }
    let trace = sfq_obs::take();
    sfq_obs::disable();

    let heavy = trace
        .events
        .iter()
        .find(|e| e.name == "alloc-heavy")
        .unwrap();
    assert!(
        heavy.alloc_bytes >= 8192 * 8,
        "span records its thread's allocation delta, got {}",
        heavy.alloc_bytes
    );
    let light = trace
        .events
        .iter()
        .find(|e| e.name == "alloc-light")
        .unwrap();
    assert!(
        light.alloc_bytes < 8192 * 8,
        "empty span must not inherit the heavy span's bytes"
    );

    let bytes_hist = trace
        .histogram("alloc-heavy.bytes")
        .expect("span close feeds a .bytes histogram when tracking");
    assert_eq!(bytes_hist.count(), 1);
    assert!(bytes_hist.max() >= 8192 * 8);

    // The summary surfaces the per-span peak bytes column.
    let summary = trace.summary();
    assert!(summary.contains("peak B"), "{summary}");
    assert!(summary.contains("alloc-heavy"), "{summary}");
}

#[test]
fn per_thread_tallies_are_independent() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_obs::enable();
    let t0 = alloc::thread_allocated();
    std::thread::spawn(|| {
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
    })
    .join()
    .unwrap();
    let delta = alloc::thread_allocated() - t0;
    assert!(
        delta < 1 << 20,
        "another thread's megabyte must not land on this thread's tally (delta {delta})"
    );
    let s = alloc::stats();
    assert!(
        s.allocated >= 1 << 20,
        "process-wide counter sees it: {s:?}"
    );
    sfq_obs::disable();
    let _ = sfq_obs::take();
}
