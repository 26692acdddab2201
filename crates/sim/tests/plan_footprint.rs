//! Plan memory: a frozen [`SimPlan`] must cost about what its graph
//! costs.
//!
//! A sweep service keeps every plan it freezes, so the tables a plan
//! builds beside its graph must stay linear in the graph's size — never
//! per shard × per edge, and never a stored copy of every node's
//! executor. A counting global allocator measures the heap bytes the
//! graph build retains and then the bytes [`SimPlan::new`] retains
//! beyond that graph, and the test bounds their ratio. The graphs
//! themselves have byte budgets too: a finished graph shares equal edge
//! shapes and element kinds and keeps no spare vector capacity. Heap
//! bytes are exact and host-independent, unlike RSS, so CI can gate on
//! them.
//!
//! Counts are kept per thread: the test harness runs tests on parallel
//! threads, and each test counts only what its own thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use step_core::Graph;
use step_models::ModelConfig;
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_sim::{SimConfig, SimPlan};
use step_traces::{RoutingConfig, expert_routing};

/// The most a plan may retain beyond its graph, as a share of the
/// graph's own bytes.
const MAX_PLAN_SHARE: f64 = 0.25;

/// The most the batch-64 static(32) layer graphs below may hold, in heap
/// bytes: about 1.2× what they hold with interned edge types and no
/// spare capacity (1,051,116 B and 75,268 B), and about half of what
/// they held with an inline shape and kind per edge.
const QWEN3_GRAPH_BUDGET: isize = 1_300_000;
const MIXTRAL_GRAPH_BUDGET: isize = 100_000;

thread_local! {
    /// Heap bytes this thread holds: allocated minus freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// [`System`], counting each thread's live heap bytes in [`LIVE`].
struct Counting;

fn count(delta: isize) {
    // `try_with` fails only during thread teardown; those bytes belong
    // to no measurement.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; the counting touches only a
// destructor-free const thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Builds a graph, freezes it, and returns `(graph bytes, bytes the
/// plan retains beyond its graph, shards)`.
fn footprint(build: impl Fn() -> Graph, cfg: SimConfig) -> (isize, isize, usize) {
    // A first build and freeze warms any lazily initialized state, so
    // the measured pass counts only what the graph and plan retain.
    drop(SimPlan::new(build(), cfg.clone()).unwrap());
    let before = live();
    let graph = build();
    let with_graph = live();
    let plan = SimPlan::new(graph, cfg).unwrap();
    let with_plan = live();
    (with_graph - before, with_plan - with_graph, plan.shards())
}

/// A batch-64 static(32) MoE layer of `model`, routed with seed 7, as
/// the figure sweeps freeze it.
fn moe_b64_static32(model: ModelConfig, cfg: SimConfig) -> (isize, isize, usize) {
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 64,
        skew: 0.8,
        seed: 7,
    });
    let moe = MoeCfg::new(model, Tiling::Static { tile: 32 });
    footprint(|| moe_graph(&moe, &trace).unwrap(), cfg)
}

fn assert_linear(name: &str, (graph, plan, _): (isize, isize, usize)) {
    let share = plan as f64 / graph as f64;
    assert!(
        graph > 0 && share <= MAX_PLAN_SHARE,
        "{name}: the plan retains {plan} B beyond its {graph} B graph \
         ({share:.2}x, budget {MAX_PLAN_SHARE}x)"
    );
}

fn assert_graph_within(name: &str, (graph, _, _): (isize, isize, usize), budget: isize) {
    assert!(
        graph <= budget,
        "{name}: the graph holds {graph} B, over its {budget} B budget"
    );
}

#[test]
fn a_sharded_plan_costs_about_its_graph() {
    // Qwen3's 128 experts shard into over a hundred shards: a table per
    // shard over every graph edge would dwarf the graph here.
    let cfg = SimConfig {
        horizon_step: 512,
        shards: 0,
        ..SimConfig::default()
    };
    let fp = moe_b64_static32(ModelConfig::qwen3_30b_a3b(), cfg);
    assert!(fp.2 > 100, "expected a widely sharded plan, got {}", fp.2);
    assert_linear("qwen3 b64 static(32)", fp);
    assert_graph_within("qwen3 b64 static(32)", fp, QWEN3_GRAPH_BUDGET);
}

#[test]
fn a_monolithic_plan_costs_about_its_graph() {
    let cfg = SimConfig {
        horizon_step: 512,
        shards: 0,
        ..SimConfig::default()
    };
    let fp = moe_b64_static32(ModelConfig::mixtral_8x7b(), cfg);
    assert_eq!(fp.2, 1, "expected a monolithic plan");
    assert_linear("mixtral b64 static(32)", fp);
    assert_graph_within("mixtral b64 static(32)", fp, MIXTRAL_GRAPH_BUDGET);
}
