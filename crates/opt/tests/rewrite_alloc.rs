//! Allocation scaling of the rewrite pass. This test binary installs
//! [`sfq_obs::alloc::CountingAlloc`] as its global allocator, so the bytes
//! one rewrite round allocates are measured exactly; doubling the network
//! must at most (about) double them. A per-cut cost proportional to the
//! network size — a cloned reference-count array, an n-long visited
//! vector — would quadruple them instead.

use sfq_circuits::epfl;
use sfq_netlist::aig::Aig;
use sfq_obs::alloc::{self, CountingAlloc};
use sfq_opt::rewrite::rewrite_network_in_place_ctx;
use sfq_opt::{OptContext, RewriteConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Bytes this thread allocates during one in-place rewrite round on `aig`.
fn round_bytes(aig: &Aig) -> u64 {
    let mut g = aig.clone();
    let t0 = alloc::thread_allocated();
    rewrite_network_in_place_ctx(&mut g, &RewriteConfig::default(), &mut OptContext::new());
    alloc::thread_allocated() - t0
}

#[test]
fn rewrite_round_allocation_is_linear() {
    let small = epfl::adder(1024);
    let large = epfl::adder(2048);
    sfq_obs::enable();
    // Warm-up: the process-wide rewrite table synthesizes its classes on
    // first use; that one-time cost must not land on either measurement.
    round_bytes(&small);
    let n = round_bytes(&small);
    let n2 = round_bytes(&large);
    sfq_obs::disable();
    let _ = sfq_obs::take();
    let ratio = n2 as f64 / n as f64;
    assert!(
        ratio <= 2.5,
        "one rewrite round allocated {n} B on {} ANDs and {n2} B on {} ANDs: ratio {ratio:.2} > 2.5",
        small.and_count(),
        large.and_count()
    );
}
