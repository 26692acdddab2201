//! Differential conformance suite for the sharded parallel engine.
//!
//! The determinism contract under test: every [`SimReport`] metric is a
//! pure function of `(graph, SimConfig minus threads)`. For each workload
//! we run
//!
//! 1. the **sequential reference** — the sharded plan executed on one
//!    thread — and the same plan on 2, 4, and 8 worker threads, asserting
//!    **bit-identical** cycles, traffic, flops, arena peak, rounds, and
//!    recorded sink streams; and
//! 2. the **monolithic engine** (`shards = 1`, the legacy immediate-commit
//!    path) against the sharded plan, asserting the order-independent
//!    functional metrics (off-chip read/write/total traffic, FLOPs,
//!    on-chip memory equations, value counts) agree exactly — the two
//!    plans commit the same token flow, differing only in conservative
//!    synchronization timing.
//!
//! Workloads cover every `step-models` graph builder (SwiGLU validation
//! sizes, MoE spatial static/dynamic, MoE time-multiplexed regions with
//! `EagerMerge` + `RandomOffChipLoad`, and attention across
//! parallelization strategies) — the graphs behind the paper's figure
//! experiments.

use step_core::Graph;
use step_models::ModelConfig;
use step_models::attention::{AttentionCfg, ParallelStrategy, attention_graph};
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_models::swiglu::{SwigluCfg, swiglu_graph};
use step_sim::{SimConfig, SimReport, Simulation};
use step_traces::{KvTraceConfig, RoutingConfig, Variability, expert_routing, kv_lengths};

fn small_model() -> ModelConfig {
    ModelConfig {
        name: "conf-small",
        hidden: 128,
        moe_intermediate: 256,
        experts: 8,
        top_k: 2,
        q_heads: 4,
        kv_heads: 2,
        head_dim: 32,
        layers: 2,
    }
}

fn workloads() -> Vec<(String, Graph)> {
    let model = small_model();
    let mut out: Vec<(String, Graph)> = Vec::new();
    for (tb, ti) in [(16u64, 64u64), (32, 256)] {
        out.push((
            format!("swiglu({tb},{ti})"),
            swiglu_graph(&SwigluCfg::validation(tb, ti)).unwrap(),
        ));
    }
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 24,
        skew: 0.8,
        seed: 7,
    });
    for (name, tiling) in [
        ("moe-static4", Tiling::Static { tile: 4 }),
        ("moe-dynamic", Tiling::Dynamic),
    ] {
        out.push((
            name.to_string(),
            moe_graph(&MoeCfg::new(model.clone(), tiling), &trace).unwrap(),
        ));
    }
    out.push((
        "moe-regions2".to_string(),
        moe_graph(
            &MoeCfg::new(model.clone(), Tiling::Static { tile: 4 }).with_regions(2),
            &trace,
        )
        .unwrap(),
    ));
    let kv = kv_lengths(&KvTraceConfig {
        batch: 12,
        variability: Variability::Medium,
        median_len: 256.0,
        max_len: 1024,
        seed: 11,
        ..KvTraceConfig::default()
    });
    for (name, strategy) in [
        ("attn-interleaved", ParallelStrategy::StaticInterleaved),
        ("attn-dynamic", ParallelStrategy::Dynamic),
    ] {
        out.push((
            name.to_string(),
            attention_graph(&AttentionCfg::new(model.clone(), strategy), &kv).unwrap(),
        ));
    }
    out
}

fn run(graph: &Graph, threads: usize, shards: usize) -> SimReport {
    Simulation::new(
        graph.clone(),
        SimConfig {
            threads,
            shards,
            ..SimConfig::default()
        },
    )
    .unwrap()
    .run()
    .unwrap()
}

/// The bit-identity fields of a report, including functional sink output
/// and the coordination counters (sub-rounds, elisions, wake dedup) —
/// the whole schedule, not just its outcomes, must be worker-independent.
#[allow(clippy::type_complexity)]
fn fingerprint(
    r: &SimReport,
) -> (
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    usize,
    String,
    String,
) {
    let sinks = format!("{:?}", r.sinks);
    let sched = format!("{:?}", r.sched);
    (
        r.cycles,
        r.offchip_traffic,
        r.offchip_read,
        r.offchip_write,
        r.onchip_memory,
        r.arena_peak,
        r.total_flops,
        r.rounds,
        r.shards,
        sinks,
        sched,
    )
}

#[test]
fn parallel_runs_are_bit_identical_to_sequential() {
    for (name, graph) in workloads() {
        // Force a multi-shard plan even on these small graphs.
        let reference = run(&graph, 1, 6);
        assert!(
            reference.shards > 1,
            "{name}: expected a sharded plan, got {}",
            reference.shards
        );
        let want = fingerprint(&reference);
        for threads in [2, 4, 8] {
            let got = fingerprint(&run(&graph, threads, 6));
            assert_eq!(got, want, "{name}: threads={threads} diverged");
        }
    }
}

#[test]
fn auto_plan_is_thread_independent() {
    for (name, graph) in workloads() {
        let want = fingerprint(&run(&graph, 1, 0));
        for threads in [2, 8] {
            let got = fingerprint(&run(&graph, threads, 0));
            assert_eq!(got, want, "{name}: auto plan, threads={threads} diverged");
        }
    }
}

#[test]
fn sharded_plan_agrees_with_monolithic_on_functional_metrics() {
    for (name, graph) in workloads() {
        let mono = run(&graph, 1, 1);
        let sharded = run(&graph, 2, 6);
        assert_eq!(mono.shards, 1, "{name}");
        assert_eq!(
            (mono.offchip_traffic, mono.offchip_read, mono.offchip_write),
            (
                sharded.offchip_traffic,
                sharded.offchip_read,
                sharded.offchip_write
            ),
            "{name}: traffic diverged between monolithic and sharded plans"
        );
        assert_eq!(mono.total_flops, sharded.total_flops, "{name}: flops");
        assert_eq!(
            mono.onchip_memory, sharded.onchip_memory,
            "{name}: onchip memory"
        );
        let values = |r: &SimReport| {
            (
                r.node_stats.iter().map(|s| s.values_in).sum::<u64>(),
                r.node_stats.iter().map(|s| s.values_out).sum::<u64>(),
            )
        };
        assert_eq!(values(&mono), values(&sharded), "{name}: token counts");
        // Conservative cross-shard synchronization may defer commits and
        // timestamp-ordered off-chip commitment may re-rank same-window
        // completions, but neither changes what executes; cycle counts
        // stay within a band of the monolithic schedule.
        let (lo, hi) = (
            mono.cycles.min(sharded.cycles),
            mono.cycles.max(sharded.cycles),
        );
        eprintln!(
            "{name}: mono {} vs sharded {} ({:+.1}%)",
            mono.cycles,
            sharded.cycles,
            (sharded.cycles as f64 / mono.cycles as f64 - 1.0) * 100.0
        );
        assert!(
            hi as f64 <= lo as f64 * 1.5,
            "{name}: cycles diverged beyond the conservative band: mono {} vs sharded {}",
            mono.cycles,
            sharded.cycles
        );
    }
}

/// Pins the swiglu(16,64) mono-vs-sharded cycle divergence so engine
/// changes cannot silently move it.
///
/// The monolithic engine commits off-chip accesses in host (wake-list)
/// order: the two weight loaders' request streams interleave by
/// scheduler accident, so consecutive ledger commits ping-pong between
/// the W1 and W3 address ranges and most accesses open a fresh DRAM row
/// (row-miss latency `t_cas + t_row_miss`). The sharded engine commits
/// each barrier batch in `(time, node, seq)` order, which groups one
/// loader's same-row tile bursts back-to-back; the extra row-buffer hits
/// shorten the memory-bound critical path, so the *sharded* plan is
/// faster. On the paper's memory-bound swiglu(16,64) validation point
/// the gap was widest: ~30% under PR-2's per-window barrier stepping,
/// whose small per-barrier commit batches reordered most aggressively
/// relative to issue order; barrier elision merges those into a few
/// large, nearly issue-ordered batches, closing the gap to ~6.5%.
#[test]
fn swiglu_16_64_row_buffer_divergence_is_pinned() {
    let graph = swiglu_graph(&SwigluCfg::validation(16, 64)).unwrap();
    let mono = run(&graph, 1, 1);
    let sharded = run(&graph, 1, 6);
    assert_eq!(mono.cycles, 5789, "monolithic schedule moved");
    assert_eq!(sharded.cycles, 5411, "sharded schedule moved");
    // Same token flow, same traffic — the divergence is purely DRAM row
    // locality of the commit order.
    assert_eq!(mono.offchip_traffic, sharded.offchip_traffic);
    assert_eq!(mono.total_flops, sharded.total_flops);
}

#[test]
fn shard_count_is_a_plan_knob_not_a_result_knob_for_thread_axis() {
    // Different forced shard counts are different plans (allowed to have
    // different timing), but each must be internally thread-independent.
    let (_, graph) = workloads().remove(2); // moe-static4
    for shards in [2, 4, 8] {
        let want = fingerprint(&run(&graph, 1, shards));
        let got = fingerprint(&run(&graph, 4, shards));
        assert_eq!(got, want, "shards={shards}");
    }
}
