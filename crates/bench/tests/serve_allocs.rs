//! Heap allocations of a warm serving pass.
//!
//! A warm pass of the serving sweep's quick cell, re-served on the plan
//! and report caches its cold pass filled, hits the report cache on
//! every QKV and MoE request, so the engine runs attention only. What a
//! hit costs on top of that is the driver's own work per iteration: a
//! QKV hit folds the token count into its key, and a MoE hit folds the
//! inputs of the iteration's routing sample, or for an iteration of a
//! few tokens the sample (never the binding either would produce). The
//! attention runs themselves reuse their pooled state and allocate
//! only their reports and bindings. A counting global allocator gates
//! the whole pass by its allocation count, which is exact and
//! host-independent, unlike wall time.
//!
//! Counts are kept per thread, and the pass runs on one simulation
//! thread, the calling one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use step_bench::PlanCache;
use step_bench::experiments::{serve_cfg, serve_trace};
use step_models::ModelConfig;
use step_models::e2e::E2eVariant;
use step_models::serving::ServeJob;
use step_sim::ReportCache;

/// The most allocator calls a warm pass may make: alloc, alloc_zeroed
/// and realloc each count one. A pass makes 624 now that its 56 pooled
/// attention runs allocate only their reports and bindings; it
/// made 6,171 while the drive loop rebuilt its wake vector per window,
/// `Partition` cloned its targets per value run and the attention
/// binding built a vector per request, and 13,730 when every MoE hit
/// also sampled its routing, built its binding and folded it into a
/// key.
const WARM_PASS_ALLOC_BUDGET: u64 = 680;

thread_local! {
    /// Allocator calls this thread has made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting each thread's allocator calls in [`ALLOCS`].
struct Counting;

fn count() {
    // `try_with` fails only during thread teardown; those calls belong
    // to no measurement.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; the counting touches only a
// destructor-free const thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_warm_quick_cell_pass_stays_within_its_allocation_budget() {
    let job = ServeJob {
        label: "serve chunk 16".into(),
        model: ModelConfig::mixtral_8x7b(),
        variant: E2eVariant::static_schedule("Static (Perf-matched)", 32),
        trace: serve_trace(300_000_000.0, true),
        cfg: serve_cfg(Some(16)),
    };
    let (plans, reports) = (PlanCache::new(), ReportCache::new());
    let cold = job.run_memo(&plans, &reports).unwrap();
    let before = allocs();
    let warm = job.run_memo(&plans, &reports).unwrap();
    let calls = allocs() - before;
    println!("warm quick-cell pass: {calls} allocator calls");
    assert_eq!(warm, cold, "the warm pass diverged from the cold pass");
    assert_eq!(
        (warm.report_cache.hits, warm.report_cache.misses),
        (112, 0),
        "the warm pass did not hit on every request"
    );
    assert!(
        calls <= WARM_PASS_ALLOC_BUDGET,
        "a warm pass made {calls} allocator calls, over its budget of {WARM_PASS_ALLOC_BUDGET}"
    );
}
