//! Plan and run-state memory: a frozen [`SimPlan`] must cost about what
//! its graph costs, and a pooled run must hold and park bounded state.
//!
//! A sweep service keeps every plan it freezes, so the tables a plan
//! builds beside its graph must stay linear in the graph's size — never
//! per shard × per edge, and never a stored copy of every node's
//! executor. A counting global allocator measures the heap bytes the
//! graph build retains and then the bytes [`SimPlan::new`] retains
//! beyond that graph, and the test bounds their ratio. The graphs
//! themselves have byte budgets too: a finished graph shares equal edge
//! shapes and element kinds and keeps no spare vector capacity.
//!
//! Each sweep worker also keeps one [`RunPool`], whose parked run state
//! (channel queues, off-chip request and response queues, the HBM
//! ledger) stays alive between points, and a run's peak sets the
//! worker's high-water mark. Both have byte budgets. Heap bytes are
//! exact and host-independent, unlike RSS, so CI can gate on them.
//!
//! A pooled rerun of a monolithic attention plan allocates its report,
//! its copy of the bound request stream and, under dynamic dispatch,
//! the one-hot selectors its merges build, but nothing per window,
//! chunk or KV tile. So the serving driver's attention runs, rebound
//! every iteration to the batch's KV contexts, make the same number of
//! allocator calls at every context length. The allocator counts its
//! calls too, and a test holds that count constant across short, long
//! and mixed batches for each dispatch strategy.
//!
//! Counts are kept per thread: the test harness runs tests on parallel
//! threads, and each test counts only what its own thread allocates
//! (runs use one simulation thread, the calling one).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use step_core::Graph;
use step_models::ModelConfig;
use step_models::attention::{AttentionCfg, AttentionPorts, ParallelStrategy, attention_graph};
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_models::phases::bind_attention;
use step_sim::{RunBinding, RunPool, SimConfig, SimPlan};
use step_traces::{KvTrace, RoutingConfig, expert_routing};

/// The most a plan may retain beyond its graph, as a share of the
/// graph's own bytes.
const MAX_PLAN_SHARE: f64 = 0.25;

/// The most the batch-64 static(32) layer graphs below may hold, in heap
/// bytes: about 1.2× what they hold with interned edge types and no
/// spare capacity (1,051,116 B and 75,268 B), and about half of what
/// they held with an inline shape and kind per edge.
const QWEN3_GRAPH_BUDGET: isize = 1_300_000;
const MIXTRAL_GRAPH_BUDGET: isize = 100_000;

/// The most a pooled run of the Qwen3 plan below may hold beyond the
/// plan at its peak, and park in its pool afterwards, in heap bytes: it
/// peaks at 9,035,704 B and parks 8,738,080 B with off-chip requests
/// queued per node as runs, against 24,009,424 B and 17,866,088 B with
/// one 48-byte slot per request and a sorted copy of each barrier's
/// batch.
const QWEN3_RUN_PEAK_BUDGET: isize = 12_000_000;
const QWEN3_RUN_PARKED_BUDGET: isize = 10_000_000;
/// The most a pooled run of the monolithic Mixtral plan below may hold
/// at its peak, and park: it peaks at 1,616,743 B and parks 1,598,671 B
/// with the ledger's skip pointers held in its window slots, against
/// 2,657,263 B and 2,639,191 B with a parallel skip vector.
const MIXTRAL_RUN_BUDGET: isize = 2_000_000;

thread_local! {
    /// Heap bytes this thread holds: allocated minus freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most [`LIVE`] has been since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Allocator calls: alloc, alloc_zeroed and realloc each count one.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting each thread's live heap bytes in [`LIVE`] and
/// its allocator calls in [`CALLS`].
struct Counting;

fn call() {
    // As in `count`: a teardown call belongs to no measurement.
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
}

fn count(delta: isize) {
    // `try_with` fails only during thread teardown; those bytes belong
    // to no measurement.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; the counting touches only
// destructor-free const thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        call();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        call();
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
        call();
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

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
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

/// The configuration the figure sweeps freeze MoE layers with.
fn sweep_cfg() -> SimConfig {
    SimConfig {
        horizon_step: 512,
        shards: 0,
        ..SimConfig::default()
    }
}

/// Builds a batch-64 static(32) MoE layer of `model`, routed with seed
/// 7, as the figure sweeps build it.
fn moe_b64_static32(model: ModelConfig) -> impl Fn() -> Graph {
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 64,
        skew: 0.8,
        seed: 7,
    });
    let moe = MoeCfg::new(model, Tiling::Static { tile: 32 });
    move || moe_graph(&moe, &trace).unwrap()
}

/// Runs `plan` once on a fresh pool and checks the bytes held at the
/// run's peak, and parked in the pool after it, against their budgets;
/// both count only what the run added.
fn assert_run_within(name: &str, plan: &SimPlan, peak_budget: isize, parked_budget: isize) {
    let mut pool = RunPool::new();
    let before = live();
    reset_peak();
    let report = plan
        .run_with(&RunBinding::default(), Some(&mut pool))
        .unwrap();
    let peak = PEAK.with(Cell::get) - before;
    drop(report);
    let parked = live() - before;
    println!("{name}: run peak {peak} B, parked {parked} B");
    assert!(
        peak <= peak_budget && parked <= parked_budget,
        "{name}: the run peaks at {peak} B and parks {parked} B, over its \
         {peak_budget} B and {parked_budget} B budgets"
    );
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
    let fp = footprint(moe_b64_static32(ModelConfig::qwen3_30b_a3b()), sweep_cfg());
    assert!(fp.2 > 100, "expected a widely sharded plan, got {}", fp.2);
    assert_linear("qwen3 b64 static(32)", fp);
    assert_graph_within("qwen3 b64 static(32)", fp, QWEN3_GRAPH_BUDGET);
}

#[test]
fn a_monolithic_plan_costs_about_its_graph() {
    let fp = footprint(moe_b64_static32(ModelConfig::mixtral_8x7b()), sweep_cfg());
    assert_eq!(fp.2, 1, "expected a monolithic plan");
    assert_linear("mixtral b64 static(32)", fp);
    assert_graph_within("mixtral b64 static(32)", fp, MIXTRAL_GRAPH_BUDGET);
}

#[test]
fn a_pooled_sharded_run_holds_bounded_state() {
    let build = moe_b64_static32(ModelConfig::qwen3_30b_a3b());
    let plan = SimPlan::new(build(), sweep_cfg()).unwrap();
    assert!(plan.shards() > 100, "expected a widely sharded plan");
    assert_run_within(
        "qwen3 b64 static(32)",
        &plan,
        QWEN3_RUN_PEAK_BUDGET,
        QWEN3_RUN_PARKED_BUDGET,
    );
}

#[test]
fn a_pooled_monolithic_run_holds_bounded_state() {
    let build = moe_b64_static32(ModelConfig::mixtral_8x7b());
    let plan = SimPlan::new(build(), sweep_cfg()).unwrap();
    assert_eq!(plan.shards(), 1, "expected a monolithic plan");
    assert_run_within(
        "mixtral b64 static(32)",
        &plan,
        MIXTRAL_RUN_BUDGET,
        MIXTRAL_RUN_BUDGET,
    );
}

#[test]
fn a_pooled_attention_rerun_allocates_the_same_at_every_kv_length() {
    // The serving driver's shape: one Mixtral plan provisioned for 8
    // slots of 600 tokens, rebound per iteration to the batch's contexts.
    let envelope = KvTrace {
        lengths: vec![600; 8],
    };
    let batches = [
        vec![1; 8],
        vec![64; 8],
        vec![1, 600, 37, 300, 64, 5, 450, 128],
    ];
    for strategy in [
        ParallelStrategy::StaticCoarse { quota: 2 },
        ParallelStrategy::StaticInterleaved,
        ParallelStrategy::Dynamic,
    ] {
        let cfg = AttentionCfg::new(ModelConfig::mixtral_8x7b(), strategy);
        let plan = SimPlan::new(
            attention_graph(&cfg, &envelope).unwrap(),
            SimConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.shards(), 1, "expected a monolithic plan");
        let ports = AttentionPorts::of(plan.graph()).unwrap();
        let bind = |lengths: &[u32]| {
            let kv = KvTrace {
                lengths: lengths.to_vec(),
            };
            bind_attention(&cfg, &ports, &kv)
        };
        // A first pass over every batch grows the parked queues to the
        // widest any of them needs; the second pass counts.
        let mut pool = RunPool::new();
        for lengths in &batches {
            plan.run_with(&bind(lengths), Some(&mut pool)).unwrap();
        }
        let counts: Vec<u64> = batches
            .iter()
            .map(|lengths| {
                let binding = bind(lengths);
                let before = calls();
                let report = plan.run_with(&binding, Some(&mut pool)).unwrap();
                let n = calls() - before;
                assert_eq!(
                    report.pool_resets, 1,
                    "{strategy}: the rerun was not pooled"
                );
                n
            })
            .collect();
        println!(
            "{strategy}: pooled reruns at all-1, all-64 and mixed contexts: {counts:?} allocator calls"
        );
        assert!(
            counts.iter().all(|&n| n == counts[0]),
            "{strategy}: a pooled rerun's allocator calls vary with KV length: {counts:?}"
        );
    }
}
