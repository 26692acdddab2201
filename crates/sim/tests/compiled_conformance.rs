//! Conformance suite for the compiled executor and the run-state pool.
//!
//! The contract under test: the pool handed to [`SimPlan::run_with`] is
//! a *host-side* choice — pooled reset-in-place state versus freshly
//! built state — and must never reach a reported bit. Concretely:
//!
//! 1. fresh runs of every model-builder family reproduce pinned golden
//!    fingerprints at worker counts 1, 2, 4, and 8 — results, sinks, and
//!    the full coordination schedule (`sched` counters). The goldens
//!    are the outputs of the boxed `dyn` reference executor, which ran
//!    the same node structs through a vtable until it was retired;
//! 2. a pooled rerun (state reset in place) reproduces the same
//!    goldens, for three consecutive reruns;
//! 3. the pool actually pools: after the warmup run, every rerun
//!    reports `run_allocs == 0` and `pool_resets == 1`;
//! 4. pooled source rebinding resets cleanly — a rerun with a different
//!    bound stream matches a fresh build around that stream, and a
//!    subsequent unbound rerun plays the baked-in tokens again — and a
//!    malformed binding fails with a typed error, fresh or pooled,
//!    without costing the pool its state;
//! 5. pooled preload reruns reset cleanly — each run's backing store
//!    holds exactly its own binding's preloads, monolithic and sharded.

use step_core::Graph;
use step_core::elem::{Elem, ElemKind};
use step_core::error::StepError;
use step_core::graph::{GraphBuilder, NodeId};
use step_core::shape::StreamShape;
use step_core::tile::Tile;
use step_core::token::{self, Token};
use step_models::ModelConfig;
use step_models::attention::{AttentionCfg, ParallelStrategy, attention_graph};
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_models::swiglu::{SwigluCfg, swiglu_graph};
use step_sim::stats::SchedCounters;
use step_sim::{RunBinding, RunPool, SimConfig, SimPlan, SimReport};
use step_traces::{KvTraceConfig, RoutingConfig, Variability, expert_routing, kv_lengths};

fn small_model() -> ModelConfig {
    ModelConfig {
        name: "compiled-small",
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

/// The bit-identity fields of a report (the conformance fingerprint):
/// `[cycles, offchip_traffic, offchip_read, offchip_write,
/// onchip_memory, arena_peak, total_flops, rounds, shards,
/// total_fires]`, the recorded sinks, and the full coordination
/// schedule. The pool-bookkeeping fields `run_allocs` / `pool_resets`
/// are *excluded* by design — they report which host path ran, not
/// what was simulated.
fn fingerprint(r: &SimReport) -> ([u64; 10], String, SchedCounters) {
    (
        [
            r.cycles,
            r.offchip_traffic,
            r.offchip_read,
            r.offchip_write,
            r.onchip_memory,
            r.arena_peak,
            r.total_flops,
            r.rounds,
            r.shards as u64,
            r.total_fires(),
        ],
        format!("{:?}", r.sinks),
        r.sched.clone(),
    )
}

/// The boxed `dyn` executor's fingerprint of each workload under
/// [`cfg`], identical at every thread count. No workload records a sink.
fn golden(name: &str) -> ([u64; 10], String, SchedCounters) {
    let (scalars, [sub_rounds, shard_runs, solo_runs, elided_runs, wake_dedup]) = match name {
        "swiglu(16,64)" => (
            [
                5411, 3211264, 3178496, 32768, 362496, 0, 50626560, 387, 7, 725,
            ],
            [104, 141, 45, 73, 258],
        ),
        "moe-static4" => (
            [
                2868, 2766848, 2752512, 14336, 720896, 10240, 11167744, 270, 9, 1174,
            ],
            [6, 44, 0, 25, 805],
        ),
        "moe-dynamic" => (
            [
                1917, 1585152, 1572864, 12288, 761856, 14336, 9572352, 171, 9, 619,
            ],
            [4, 33, 0, 24, 568],
        ),
        "moe-regions2" => (
            [
                2728, 2766848, 2752512, 14336, 186368, 6144, 11167744, 126, 7, 722,
            ],
            [10, 31, 1, 19, 1005],
        ),
        "attn-dynamic" => (
            [3835, 872448, 823296, 49152, 81920, 0, 2058240, 525, 6, 918],
            [84, 218, 17, 13, 333],
        ),
        other => panic!("no golden for workload {other}"),
    };
    let sched = SchedCounters {
        sub_rounds,
        shard_runs,
        solo_runs,
        elided_runs,
        wake_dedup,
    };
    (scalars, "{}".to_string(), sched)
}

#[test]
fn fresh_runs_match_goldens_at_every_thread_count() {
    for (name, graph) in workloads() {
        let want = golden(&name);
        for threads in [1usize, 2, 4, 8] {
            let plan = SimPlan::new(graph.clone(), cfg(threads)).unwrap();
            assert_eq!(
                fingerprint(&plan.run().unwrap()),
                want,
                "{name}: threads={threads} run diverged from the golden"
            );
        }
    }
}

#[test]
fn pooled_reruns_match_goldens_and_stay_alloc_free() {
    for (name, graph) in workloads() {
        let want = golden(&name);
        for threads in [1usize, 2, 4, 8] {
            let plan = SimPlan::new(graph.clone(), cfg(threads)).unwrap();
            let mut pool = RunPool::new();
            let warmup = plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
            assert_eq!(
                (warmup.run_allocs, warmup.pool_resets),
                (1, 0),
                "{name}: threads={threads} warmup should build state"
            );
            assert_eq!(
                fingerprint(&warmup),
                want,
                "{name}: threads={threads} pooled warmup diverged from the golden"
            );
            for rerun in 0..3 {
                let r = plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
                assert_eq!(
                    (r.run_allocs, r.pool_resets),
                    (0, 1),
                    "{name}: threads={threads} rerun {rerun} rebuilt state instead of pooling"
                );
                assert_eq!(
                    fingerprint(&r),
                    want,
                    "{name}: threads={threads} pooled rerun {rerun} diverged"
                );
            }
        }
    }
}

#[test]
fn pool_reset_is_identical_to_fresh_state() {
    // A reset-in-place pooled rerun must equal a fresh `RunState` built
    // by a plain (non-pooled) run — same plan, same binding.
    let (name, graph) = workloads().remove(2); // moe-dynamic
    let plan = SimPlan::new(graph, cfg(2)).unwrap();
    let fresh = fingerprint(&plan.run().unwrap());
    let mut pool = RunPool::new();
    plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
    let pooled = plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
    assert_eq!((pooled.run_allocs, pooled.pool_resets), (0, 1));
    assert_eq!(
        fingerprint(&pooled),
        fresh,
        "{name}: reset-in-place state diverged from fresh state"
    );
}

#[test]
fn pool_migrates_across_plans_by_rebuilding() {
    // Handing a pool parked by one plan to another must rebuild (never
    // reinterpret foreign state), then pool normally.
    let mut w = workloads();
    let (_, g2) = w.remove(1);
    let (_, g1) = w.remove(0);
    let p1 = SimPlan::new(g1, cfg(1)).unwrap();
    let p2 = SimPlan::new(g2, cfg(1)).unwrap();
    let mut pool = RunPool::new();
    let mut pooled = |p: &SimPlan| p.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
    assert_eq!(pooled(&p1).run_allocs, 1);
    assert_eq!(pooled(&p1).run_allocs, 0);
    let migrated = pooled(&p2);
    assert_eq!((migrated.run_allocs, migrated.pool_resets), (1, 0));
    assert_eq!(pooled(&p2).run_allocs, 0);
    assert_eq!(fingerprint(&migrated), fingerprint(&p2.run().unwrap()));
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
fn pooled_rebinding_resets_cleanly() {
    let build_vals = [-1.0f32, 2.0, -3.0, 4.0];
    let run_vals = [5.0f32, -6.0, 7.0, -8.0];
    let (graph, src, sink) = bindable_graph(&build_vals);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    let mut pool = RunPool::new();
    // Warmup with the baked-in stream.
    let warm = plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
    assert_eq!(sink_values(&warm, sink), vec![0.0, 2.0, 0.0, 4.0]);
    // Pooled rerun with a rebound stream matches a fresh build around
    // that stream.
    let mut binding = RunBinding::new();
    binding.bind_source(src, source_tokens(&run_vals));
    let bound = plan.run_with(&binding, Some(&mut pool)).unwrap();
    assert_eq!((bound.run_allocs, bound.pool_resets), (0, 1));
    assert_eq!(sink_values(&bound, sink), vec![5.0, 0.0, 7.0, 0.0]);
    let (fresh_graph, _, fresh_sink) = bindable_graph(&run_vals);
    let fresh = SimPlan::new(fresh_graph, SimConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(sink_values(&fresh, fresh_sink), sink_values(&bound, sink));
    // The reset clears the binding: an unbound pooled rerun plays the
    // baked-in stream again.
    let unbound = plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
    assert_eq!((unbound.run_allocs, unbound.pool_resets), (0, 1));
    assert_eq!(sink_values(&unbound, sink), vec![0.0, 2.0, 0.0, 4.0]);
    // And an invalid binding — a non-`Source` target, a preload whose
    // data does not fill its shape, or a shape whose size overflows —
    // fails with a typed error, fresh or pooled, without poisoning the
    // pool.
    let mut bad_source = RunBinding::new();
    bad_source.bind_source(sink, source_tokens(&[1.0]));
    let mut short_preload = RunBinding::new();
    short_preload.preload(0x1000, 2, 2, vec![1.0; 3]);
    let mut overflowing_preload = RunBinding::new();
    overflowing_preload.preload(0x1000, usize::MAX, 2, Vec::new());
    for (what, bad) in [
        ("non-source binding", &bad_source),
        ("short preload", &short_preload),
        ("overflowing preload", &overflowing_preload),
    ] {
        assert!(
            matches!(plan.run_with(bad, None), Err(StepError::Config(_))),
            "{what}: fresh run not rejected"
        );
        assert!(
            matches!(
                plan.run_with(bad, Some(&mut pool)),
                Err(StepError::Config(_))
            ),
            "{what}: pooled run not rejected"
        );
        let after = plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
        assert_eq!(
            (after.run_allocs, after.pool_resets),
            (0, 1),
            "{what}: rejected binding should not cost the pool its state"
        );
        assert_eq!(sink_values(&after, sink), vec![0.0, 2.0, 0.0, 4.0]);
    }
}

/// Pooled reruns reset the backing store with the binding: preload A,
/// then B, then none, then A again through one pool — monolithic and
/// sharded — must each equal a fresh run of the same binding (dense A,
/// dense B, phantom, dense A), with the first run building the state
/// and every later one resetting it in place.
#[test]
fn pooled_preload_reruns_reset_cleanly() {
    use step_core::func::{EwOp, MapFn};
    use step_core::ops::LinearLoadCfg;
    let preload = |values: &[f32]| {
        let mut b = RunBinding::new();
        b.preload(0x1000, 2, 4, values.to_vec());
        b
    };
    let a: Vec<f32> = (0..8).map(|x| x as f32).collect();
    let b: Vec<f32> = (0..8).map(|x| 10.0 + x as f32).collect();
    let runs = [
        (preload(&a), Some(&a)),
        (preload(&b), Some(&b)),
        (RunBinding::new(), None),
        (preload(&a), Some(&a)),
    ];
    for shards in [1usize, 2] {
        let mut g = GraphBuilder::new();
        let trigger = g.unit_source(1);
        let tiles = g
            .linear_offchip_load(&trigger, LinearLoadCfg::new(0x1000, (2, 4), (2, 2)))
            .unwrap();
        let relu = g.map(&tiles, MapFn::Elementwise(EwOp::Relu), 64).unwrap();
        let sink = g.sink(&relu).unwrap();
        let sim_cfg = SimConfig {
            shards,
            ..SimConfig::default()
        };
        let plan = SimPlan::new(g.finish(), sim_cfg).unwrap();
        assert_eq!(plan.shards(), shards);
        let mut pool = RunPool::new();
        let mut resets = Vec::new();
        for (i, (binding, data)) in runs.iter().enumerate() {
            let pooled = plan.run_with(binding, Some(&mut pool)).unwrap();
            let fresh = plan.run_with(binding, None).unwrap();
            assert_eq!(
                fingerprint(&pooled),
                fingerprint(&fresh),
                "shards={shards} run {i}: pooled rerun diverged from a fresh run"
            );
            resets.push(pooled.pool_resets);
            // The two 2x2 tiles of the 2x4 tensor, row-major per tile;
            // relu keeps the non-negative preloads as they are.
            let got: Vec<Option<Vec<f32>>> = pooled
                .sink_tokens(sink)
                .unwrap()
                .iter()
                .filter_map(|t| match t {
                    Token::Val(Elem::Tile(t)) => Some(t.values().map(<[f32]>::to_vec)),
                    _ => None,
                })
                .collect();
            let want: Vec<Option<Vec<f32>>> = match data {
                Some(d) => vec![
                    Some(vec![d[0], d[1], d[4], d[5]]),
                    Some(vec![d[2], d[3], d[6], d[7]]),
                ],
                None => vec![None, None],
            };
            assert_eq!(got, want, "shards={shards} run {i}: wrong sink tiles");
        }
        assert_eq!(resets, [0, 1, 1, 1], "shards={shards}: pool resets");
    }
}
