//! Allocation bounds for the multi-node 0-round testers.
//!
//! A network run builds one `TesterScratch` and passes it through every
//! node, so the number of heap allocations per run is a small constant,
//! whatever the number of nodes `k`. A counting global allocator makes
//! that a deterministic work counter: the same count at k = 1 000 and
//! k = 20 000, and no more than a handful. A per-node allocation would
//! show up as thousands.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dut_core::asymmetric::{AsymmetricThresholdTester, CostVector};
use dut_core::decision::NetworkOutcome;
use dut_core::zero_round::ThresholdNetworkTester;
use dut_distributions::families::paninski_far;
use dut_distributions::DiscreteDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts allocations (and reallocations) made on the current thread,
/// so tests running in parallel do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged, so `System`'s guarantees carry over; `bump`
// touches only a const-initialised, drop-free thread-local `Cell` and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Most allocations one network run may make: the scratch's sample
/// buffer and its collision table, with room for one more.
const MAX_ALLOCS_PER_RUN: u64 = 3;

/// Heap allocations made by `run` on this thread.
fn allocations(run: impl FnOnce() -> NetworkOutcome) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(run());
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations per run at k = 1 000 and k = 20 000 for both inputs,
/// checked equal across `k` and within the bound.
fn assert_constant(label: &str, n: usize, count_at: impl Fn(usize, &DiscreteDistribution) -> u64) {
    let inputs = [
        ("uniform", DiscreteDistribution::uniform(n)),
        ("far", paninski_far(n, 1.0).unwrap()),
    ];
    for (input, dist) in &inputs {
        let small = count_at(1_000, dist);
        let large = count_at(20_000, dist);
        assert_eq!(
            small, large,
            "{label}, n={n}, {input}: allocations grow with k"
        );
        assert!(
            small <= MAX_ALLOCS_PER_RUN,
            "{label}, n={n}, {input}: {small} allocations per run"
        );
    }
}

#[test]
fn asymmetric_threshold_run_allocations_do_not_grow_with_k() {
    for n in [1 << 16, 1 << 20] {
        assert_constant("asymmetric threshold", n, |k, dist| {
            let tester =
                AsymmetricThresholdTester::plan(n, &CostVector::uniform(k), 1.0, 1.0 / 3.0)
                    .unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            allocations(|| tester.run(dist, &mut rng))
        });
    }
}

#[test]
fn threshold_network_run_allocations_do_not_grow_with_k() {
    for n in [1 << 16, 1 << 20] {
        assert_constant("threshold network", n, |k, dist| {
            let tester = ThresholdNetworkTester::plan(n, k, 1.0, 1.0 / 3.0).unwrap();
            let mut rng = StdRng::seed_from_u64(4);
            allocations(|| tester.run(dist, &mut rng))
        });
    }
}
