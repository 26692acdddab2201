//! Cross-crate integration tests: the paper's qualitative claims on
//! scaled-down workloads, and consistency between the symbolic frontend,
//! the cycle-approximate simulator, and the fine-grained reference.

use step::core::metrics;
use step::hdl::{RefConfig, pearson, simulate_swiglu};
use step::models::ModelConfig;
use step::models::attention::{AttentionCfg, ParallelStrategy, attention_graph};
use step::models::moe::{MoeCfg, Tiling, expected_weight_traffic, moe_graph};
use step::models::swiglu::{SwigluCfg, swiglu_graph};
use step::sim::{SimConfig, SimPlan};
use step::traces::{KvTraceConfig, RoutingConfig, Variability, expert_routing, kv_lengths};
use step_symbolic::Env;

fn small_model() -> ModelConfig {
    ModelConfig {
        name: "small",
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

#[test]
fn symbolic_traffic_matches_simulator_for_static_graphs() {
    // §4.2: for a fully static graph the symbolic frontend's off-chip
    // traffic equation must equal the simulator's measurement exactly.
    let cfg = SwigluCfg::validation(32, 64);
    let graph = swiglu_graph(&cfg).unwrap();
    let (predicted, _) = metrics::analyze(&graph).eval(&Env::new()).unwrap();
    let report = SimPlan::new(graph, SimConfig::validation())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(predicted, report.offchip_traffic);
}

#[test]
fn simulator_tracks_fine_grained_reference() {
    // Fig 8 in miniature: sweep a few tile sizes and require a strong
    // cycle-count correlation between the two simulators plus exact
    // traffic agreement.
    let mut step_cycles = Vec::new();
    let mut ref_cycles = Vec::new();
    for tb in [16u64, 32, 64] {
        for ti in [64u64, 256] {
            let cfg = SwigluCfg::validation(tb, ti);
            let report = SimPlan::new(swiglu_graph(&cfg).unwrap(), SimConfig::validation())
                .unwrap()
                .run()
                .unwrap();
            let reference = simulate_swiglu(&cfg, &RefConfig::default());
            assert_eq!(report.offchip_traffic, reference.offchip_bytes);
            step_cycles.push(report.cycles as f64);
            ref_cycles.push(reference.cycles as f64);
        }
    }
    let r = pearson(&step_cycles, &ref_cycles);
    assert!(r > 0.9, "correlation too weak: {r}");
}

#[test]
fn dynamic_tiling_dominates_static_frontier_on_small_moe() {
    // §5.2's qualitative claim: dynamic tiling never loses on traffic and
    // wins on memory against large static tiles.
    let model = small_model();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 48,
        skew: 0.9,
        seed: 3,
    });
    let run_one = |tiling| {
        let cfg = MoeCfg::new(model.clone(), tiling);
        let r = SimPlan::new(moe_graph(&cfg, &trace).unwrap(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        (r.cycles, r.offchip_traffic, r.onchip_memory)
    };
    let (dyn_cycles, dyn_traffic, dyn_mem) = run_one(Tiling::Dynamic);
    let (small_cycles, small_traffic, _) = run_one(Tiling::Static { tile: 2 });
    let (_, _, large_mem) = run_one(Tiling::Static { tile: 32 });
    // Small static tiles reload weights more often.
    assert!(small_traffic > dyn_traffic);
    assert!(small_cycles > dyn_cycles);
    // Large static tiles pad rows and hold bigger accumulators.
    assert!(large_mem > dyn_mem);
}

#[test]
fn measured_weight_traffic_matches_reload_model() {
    let model = small_model();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 32,
        skew: 0.9,
        seed: 5,
    });
    for tiling in [Tiling::Static { tile: 4 }, Tiling::Dynamic] {
        let cfg = MoeCfg::new(model.clone(), tiling);
        let report = SimPlan::new(moe_graph(&cfg, &trace).unwrap(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.offchip_read, expected_weight_traffic(&cfg, &trace));
    }
}

#[test]
fn time_multiplexing_trades_utilization_for_little_latency() {
    // §5.3: sharing a configuration across experts raises compute
    // utilization with bounded slowdown while traffic is unchanged.
    let model = small_model();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 32,
        skew: 0.8,
        seed: 9,
    });
    let spatial = {
        let cfg = MoeCfg::new(model.clone(), Tiling::Static { tile: 8 });
        SimPlan::new(moe_graph(&cfg, &trace).unwrap(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap()
    };
    let muxed = {
        let cfg = MoeCfg::new(model.clone(), Tiling::Static { tile: 8 }).with_regions(2);
        SimPlan::new(moe_graph(&cfg, &trace).unwrap(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap()
    };
    assert_eq!(spatial.offchip_read, muxed.offchip_read);
    assert!(muxed.allocated_compute < spatial.allocated_compute / 2);
    assert!(muxed.compute_utilization() > spatial.compute_utilization());
    assert!(muxed.onchip_memory < spatial.onchip_memory);
}

#[test]
fn dynamic_parallelization_orders_as_in_fig14_and_15() {
    let model = small_model();
    let run_one = |strategy, batch, v: Variability, seed| {
        let kv = kv_lengths(&KvTraceConfig {
            batch,
            variability: v,
            median_len: 384.0,
            max_len: 2048,
            seed,
            ..KvTraceConfig::default()
        });
        let cfg = AttentionCfg::new(model.clone(), strategy);
        SimPlan::new(attention_graph(&cfg, &kv).unwrap(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap()
            .cycles
    };
    // Fig 15: at batch == quota, coarse leaves three regions idle.
    let coarse = run_one(
        ParallelStrategy::StaticCoarse { quota: 16 },
        16,
        Variability::Medium,
        11,
    );
    let dynamic = run_one(ParallelStrategy::Dynamic, 16, Variability::Medium, 11);
    assert!(dynamic * 2 < coarse, "dynamic {dynamic} vs coarse {coarse}");
    // Fig 14: under high variance, dynamic beats interleaved.
    let inter = run_one(
        ParallelStrategy::StaticInterleaved,
        32,
        Variability::High,
        13,
    );
    let dyn_hi = run_one(ParallelStrategy::Dynamic, 32, Variability::High, 13);
    assert!(dyn_hi < inter, "dynamic {dyn_hi} vs interleaved {inter}");
}

#[test]
fn reports_are_reproducible_across_runs() {
    let model = small_model();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 16,
        skew: 0.8,
        seed: 21,
    });
    let go = || {
        let cfg = MoeCfg::new(model.clone(), Tiling::Dynamic);
        let r = SimPlan::new(moe_graph(&cfg, &trace).unwrap(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        (r.cycles, r.offchip_traffic, r.onchip_memory, r.rounds)
    };
    assert_eq!(go(), go());
}

#[test]
fn scheduler_fires_far_fewer_than_polling_would() {
    // The event-driven engine only fires nodes with a wake reason. A
    // round-robin poller would have fired every live node every round
    // (`nodes × rounds`); require at least a 10x reduction on the MoE
    // graph, whose many mostly-idle expert pipelines are the worst case
    // for polling.
    let model = small_model();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 32,
        skew: 0.8,
        seed: 7,
    });
    let cfg = MoeCfg::new(model.clone(), Tiling::Static { tile: 8 });
    let graph = moe_graph(&cfg, &trace).unwrap();
    let nodes = graph.nodes().len() as u64;
    let report = SimPlan::new(graph, SimConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let poll_equivalent = nodes * report.rounds;
    assert!(
        report.total_fires() * 10 < poll_equivalent,
        "fires {} vs poll-equivalent {poll_equivalent}",
        report.total_fires()
    );
    // Wasted polls stay a minority of the work done.
    assert!(report.idle_fires() * 2 < report.total_fires());
}
