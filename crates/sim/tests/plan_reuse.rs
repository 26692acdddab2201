//! Conformance suite for the plan/run lifecycle split.
//!
//! The contract under test: a [`SimPlan`] is immutable — running it is a
//! pure function of `(plan, RunBinding)`. Concretely:
//!
//! 1. one plan run N times produces bit-identical [`SimReport`]s
//!    (including the `sched` counters — the *schedule* must not leak
//!    state between runs);
//! 2. a reused plan is bit-identical to a fresh
//!    `SimPlan::new(graph, cfg)?.run()?` of the same graph, at
//!    worker counts 1, 2, and 4;
//! 3. an `Arc<SimPlan>` run concurrently from several threads yields
//!    the same bits as running it sequentially;
//! 4. source rebinding changes exactly the bound stream: binding the
//!    plan's own baked-in tokens reproduces the unbound run bit for
//!    bit, binding different tokens is bit-identical to building a
//!    fresh graph around those tokens, and invalid bindings
//!    (non-source targets, rank-violating streams) fail fast.

use std::sync::Arc;
use step_core::Graph;
use step_core::elem::{Elem, ElemKind};
use step_core::graph::{GraphBuilder, NodeId};
use step_core::shape::StreamShape;
use step_core::tile::Tile;
use step_core::token::{self, Token};
use step_models::ModelConfig;
use step_models::attention::{AttentionCfg, ParallelStrategy, attention_graph};
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_models::swiglu::{SwigluCfg, swiglu_graph};
use step_sim::{RunBinding, SimConfig, SimPlan, SimReport};
use step_traces::{KvTraceConfig, RoutingConfig, Variability, expert_routing, kv_lengths};

fn small_model() -> ModelConfig {
    ModelConfig {
        name: "reuse-small",
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

/// The conformance workloads: every model-builder family, small enough
/// to run the whole matrix quickly.
fn workloads() -> Vec<(String, Graph)> {
    let model = small_model();
    let mut out: Vec<(String, Graph)> = Vec::new();
    out.push((
        "swiglu(16,64)".into(),
        swiglu_graph(&SwigluCfg::validation(16, 64)).unwrap(),
    ));
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
    out.push((
        "attn-dynamic".to_string(),
        attention_graph(&AttentionCfg::new(model, ParallelStrategy::Dynamic), &kv).unwrap(),
    ));
    out
}

fn cfg(threads: usize) -> SimConfig {
    SimConfig {
        threads,
        shards: 6,
        ..SimConfig::default()
    }
}

/// The bit-identity fields of a report (the conformance fingerprint:
/// results, sinks, and the full coordination schedule).
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
        format!("{:?}", r.sinks),
        format!("{:?}", r.sched),
    )
}

#[test]
fn reused_plan_matches_fresh_build_at_every_thread_count() {
    for (name, graph) in workloads() {
        for threads in [1usize, 2, 4] {
            let fresh = SimPlan::new(graph.clone(), cfg(threads))
                .unwrap()
                .run()
                .unwrap();
            let want = fingerprint(&fresh);
            let plan = SimPlan::new(graph.clone(), cfg(threads)).unwrap();
            for rerun in 0..3 {
                let got = fingerprint(&plan.run().unwrap());
                assert_eq!(
                    got, want,
                    "{name}: threads={threads} reused run {rerun} diverged from fresh build"
                );
            }
        }
    }
}

#[test]
fn arc_shared_plan_runs_concurrently_bit_identical() {
    let (name, graph) = workloads().remove(1); // moe-static4
    let plan = Arc::new(SimPlan::new(graph, cfg(1)).unwrap());
    let want = fingerprint(&plan.run().unwrap());
    std::thread::scope(|sc| {
        for _ in 0..3 {
            let plan = Arc::clone(&plan);
            let want = want.clone();
            let name = name.clone();
            sc.spawn(move || {
                let got = fingerprint(&plan.run().unwrap());
                assert_eq!(got, want, "{name}: concurrent Arc<SimPlan> run diverged");
            });
        }
    });
}

/// A tiny graph with a known rebindable source: `source -> map(relu) ->
/// sink` over 1x1 tiles.
fn bindable_graph(values: &[f32]) -> (Graph, NodeId, NodeId) {
    use step_core::func::{EwOp, MapFn};
    let mut g = GraphBuilder::new();
    let tokens = token::rank0_from_values(values.iter().map(|&v| Elem::Tile(Tile::splat(1, 1, v))));
    let n = values.len() as u64;
    let src = g
        .source(tokens, StreamShape::fixed(&[n]), ElemKind::tile(1, 1))
        .unwrap();
    let src_id = g.node_of(&src);
    let relu = g.map(&src, MapFn::Elementwise(EwOp::Relu), 64).unwrap();
    let sink = g.sink(&relu).unwrap();
    (g.finish(), src_id, sink)
}

fn source_tokens(values: &[f32]) -> Vec<Token> {
    token::rank0_from_values(values.iter().map(|&v| Elem::Tile(Tile::splat(1, 1, v))))
}

fn sink_values(r: &SimReport, sink: NodeId) -> Vec<f32> {
    r.sink_tokens(sink)
        .unwrap()
        .iter()
        .filter_map(|t| match t {
            Token::Val(Elem::Tile(t)) => t.get(0, 0),
            _ => None,
        })
        .collect()
}

#[test]
fn rebinding_baked_tokens_reproduces_unbound_run() {
    let vals = [-1.0f32, 2.0, -3.0, 4.0];
    let (graph, src, sink) = bindable_graph(&vals);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    let unbound = plan.run().unwrap();
    let mut binding = RunBinding::new();
    binding.bind_source(src, source_tokens(&vals));
    let bound = plan.run_with(&binding, None).unwrap();
    assert_eq!(fingerprint(&unbound), fingerprint(&bound));
    assert_eq!(sink_values(&bound, sink), vec![0.0, 2.0, 0.0, 4.0]);
}

#[test]
fn rebinding_matches_fresh_build_of_the_bound_stream() {
    let build_vals = [-1.0f32, 2.0, -3.0, 4.0];
    let run_vals = [5.0f32, -6.0, 7.0, -8.0];
    let (graph, src, sink) = bindable_graph(&build_vals);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    let mut binding = RunBinding::new();
    binding.bind_source(src, source_tokens(&run_vals));
    let bound = plan.run_with(&binding, None).unwrap();
    assert_eq!(sink_values(&bound, sink), vec![5.0, 0.0, 7.0, 0.0]);
    // Bit-identical to building the graph fresh around the bound stream.
    let (fresh_graph, _, fresh_sink) = bindable_graph(&run_vals);
    let fresh = SimPlan::new(fresh_graph, SimConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(fingerprint(&fresh), fingerprint(&bound));
    assert_eq!(sink_values(&fresh, fresh_sink), sink_values(&bound, sink));
    // And the plan is not poisoned: an unbound run still plays the
    // baked-in stream.
    let unbound = plan.run().unwrap();
    assert_eq!(sink_values(&unbound, sink), vec![0.0, 2.0, 0.0, 4.0]);
}

#[test]
fn invalid_bindings_fail_fast() {
    let (graph, src, sink) = bindable_graph(&[1.0, 2.0]);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    // Not a source.
    let mut b = RunBinding::new();
    b.bind_source(sink, source_tokens(&[1.0]));
    assert!(
        plan.run_with(&b, None).is_err(),
        "sink accepted as bind target"
    );
    // Unknown node.
    let mut b = RunBinding::new();
    b.bind_source(NodeId(10_000), source_tokens(&[1.0]));
    assert!(
        plan.run_with(&b, None).is_err(),
        "out-of-range node accepted"
    );
    // Rank-violating stream (rank-1 stops into a rank-0 source).
    let mut b = RunBinding::new();
    b.bind_source(
        src,
        vec![
            Token::Val(Elem::Tile(Tile::splat(1, 1, 1.0))),
            Token::Stop(1),
            Token::Done,
        ],
    );
    assert!(
        plan.run_with(&b, None).is_err(),
        "rank-violating stream accepted"
    );
}
