//! Differential conformance for the continuous-batching serving driver.
//!
//! The driver's whole performance story rests on per-iteration
//! `RunBinding` rebinding over frozen plans being *observationally
//! equivalent* to rebuilding the iteration from scratch. This suite
//! locks that in:
//!
//! - **Offline replay**: every serving iteration's admitted set is
//!   rebuilt as a fresh one-shot simulation — the same build-time
//!   graphs (envelope KV trace, token-budget MoE trace), a fresh
//!   `SimPlan`, the iteration's binding, no pool — and must reproduce
//!   the driver's pooled per-iteration cycles, fires, channel runs, and
//!   off-chip traffic bit-exactly, so pooling is transparent;
//! - **Thread independence**: same-seed serving runs are bit-identical
//!   across 1, 2, and 4 worker threads;
//! - **Scheduling invariants**: admission never exceeds the slot
//!   budget, per-iteration tokens never exceed the token budget, and
//!   every admitted request completes (no starvation);
//! - **Cached plans**: the driver reads its rebindable ports by label
//!   from the graph of whatever plan its `PlanSource` hands back; for
//!   every attention strategy, MoE tiling and time-share variant those
//!   ports equal the builder's, and serving over cached plans equals
//!   serving over fresh ones.

use std::sync::Arc;
use step_core::sync::SingleFlight;
use step_core::{Graph, Result};
use step_models::ModelConfig;
use step_models::attention::{
    AttentionCfg, AttentionPorts, ParallelStrategy, attention_graph, attention_graph_with_ports,
};
use step_models::e2e::E2eVariant;
use step_models::moe::{MoeCfg, MoePorts, Tiling, moe_graph, moe_graph_with_ports};
use step_models::phases::{bind_attention, bind_moe, moe_sim_config, qkv_graph};
use step_models::serving::{
    PlanSource, ServeCfg, ServeJob, ServeReport, attn_plan_fingerprint, envelope_kv,
    iteration_routing, moe_build_routing, moe_plan_fingerprint,
};
use step_sim::{ReportCache, SimConfig, SimPlan};
use step_traces::{
    ArrivalConfig, ArrivalPattern, KvTrace, LenDist, RequestTrace, arrival_trace, expert_routing,
};

fn tiny_model() -> ModelConfig {
    ModelConfig {
        name: "tiny",
        hidden: 128,
        moe_intermediate: 256,
        experts: 4,
        top_k: 2,
        q_heads: 4,
        kv_heads: 2,
        head_dim: 32,
        layers: 2,
    }
}

fn trace(requests: usize, mean: f64, seed: u64) -> RequestTrace {
    arrival_trace(&ArrivalConfig {
        requests,
        mean_interarrival: mean,
        pattern: ArrivalPattern::Poisson,
        prompt: LenDist::new(40.0, 0.5, 8, 96),
        output: LenDist::new(3.0, 0.5, 1, 6),
        seed,
    })
}

fn serve_cfg() -> ServeCfg {
    ServeCfg {
        slots: 4,
        token_budget: 16,
        prefill_chunk: Some(8),
        seed: 23,
        ..ServeCfg::default()
    }
}

fn variant() -> E2eVariant {
    E2eVariant::static_schedule("static", 4)
}

fn job(model: &ModelConfig, v: &E2eVariant, tr: &RequestTrace, cfg: &ServeCfg) -> ServeJob {
    ServeJob {
        label: String::new(),
        model: model.clone(),
        variant: v.clone(),
        trace: tr.clone(),
        cfg: cfg.clone(),
    }
}

fn serve(cfg: &ServeCfg) -> ServeReport {
    job(&tiny_model(), &variant(), &trace(8, 20_000.0, 9), cfg)
        .run()
        .unwrap()
}

/// Replays every driver iteration offline as fresh one-shot simulations
/// of the same graphs and bindings, asserting the driver's per-iteration
/// cycles/fires/chan-runs reproduce bit-exactly; returns the driver
/// report for further assertions.
fn replay_offline(
    model: &ModelConfig,
    v: &E2eVariant,
    tr: &RequestTrace,
    cfg: &ServeCfg,
) -> ServeReport {
    let report = job(model, v, tr, cfg).run().unwrap();
    assert!(!report.iterations.is_empty());

    // The driver's build-time graphs, rebuilt from the public helpers.
    let attn_cfg = AttentionCfg::new(model.clone(), v.attention);
    let (attn_graph, attn_ports) =
        attention_graph_with_ports(&attn_cfg, &envelope_kv(tr, cfg)).unwrap();
    let mut moe_cfg = MoeCfg::new(model.clone(), v.tiling);
    if let Some(r) = v.moe_regions {
        moe_cfg = moe_cfg.with_regions(r);
    }
    let (moe_graph, moe_ports) =
        moe_graph_with_ports(&moe_cfg, &expert_routing(&moe_build_routing(model, cfg))).unwrap();

    for it in &report.iterations {
        // Fresh plans every iteration: no pools, no reuse, no shared
        // state with the driver — the strongest possible replay.
        let attn_plan = SimPlan::new(attn_graph.clone(), SimConfig::default()).unwrap();
        let kv = KvTrace {
            lengths: it.slot_ctx.clone(),
        };
        let attn = attn_plan
            .run_with(&bind_attention(&attn_cfg, &attn_ports, &kv), None)
            .unwrap();
        assert_eq!(
            attn.cycles, it.attn_cycles,
            "iter {}: attention cycles",
            it.iter
        );

        let moe_plan = SimPlan::new(moe_graph.clone(), moe_sim_config()).unwrap();
        let routing = expert_routing(&iteration_routing(model, cfg, it.iter, it.tokens as usize));
        let moe = moe_plan
            .run_with(&bind_moe(&moe_ports, model.hidden, &routing), None)
            .unwrap();
        assert_eq!(moe.cycles, it.moe_cycles, "iter {}: MoE cycles", it.iter);

        let qkv = SimPlan::new(
            qkv_graph(model, it.tokens as usize).unwrap(),
            SimConfig::default(),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(qkv.cycles, it.qkv_cycles, "iter {}: QKV cycles", it.iter);

        assert_eq!(
            qkv.cycles + attn.cycles + moe.cycles,
            it.layer_cycles,
            "iter {}: layer cycles",
            it.iter
        );
        assert_eq!(
            qkv.total_fires() + attn.total_fires() + moe.total_fires(),
            it.fires,
            "iter {}: fires",
            it.iter
        );
        assert_eq!(
            qkv.chan_runs + attn.chan_runs + moe.chan_runs,
            it.chan_runs,
            "iter {}: chan runs",
            it.iter
        );
        assert_eq!(
            qkv.offchip_traffic + attn.offchip_traffic + moe.offchip_traffic,
            it.offchip_traffic,
            "iter {}: off-chip traffic",
            it.iter
        );
    }
    report
}

/// Every pooled driver iteration, replayed offline as fresh one-shot
/// simulations of the same graphs and bindings, reproduces the driver's
/// per-iteration cycles, fires, channel runs and traffic bit-exactly.
#[test]
fn offline_replay_matches_driver_iterations_bit_exactly() {
    replay_offline(
        &tiny_model(),
        &variant(),
        &trace(8, 20_000.0, 9),
        &serve_cfg(),
    );
}

/// Budget starvation replays offline too: a trace engineered so a live
/// prefill slot receives zero tokens must bind the vacant stub — and the
/// offline replay of that iteration (binding the reported `slot_ctx`)
/// must still reproduce the driver bit-exactly.
#[test]
fn starved_prefill_iterations_replay_bit_exactly() {
    use step_traces::Request;
    let req = |id, arrival, prompt, output| Request {
        id,
        arrival,
        prompt,
        output,
    };
    let tr = RequestTrace {
        requests: vec![
            req(0, 0, 1, 10),
            req(1, 0, 1, 2),
            req(2, 0, 8, 1),
            req(3, 1, 4, 1),
        ],
    };
    let cfg = ServeCfg {
        slots: 3,
        token_budget: 3,
        prefill_chunk: Some(2),
        seed: 23,
        ..ServeCfg::default()
    };
    let report = replay_offline(&tiny_model(), &variant(), &tr, &cfg);
    // The starvation witness: iteration 2's slot 2 is live mid-prefill
    // (2 of 8 prompt tokens in) but the decode token plus request 3's
    // admission chunk exhaust the budget, so it binds the 1-tile stub —
    // a value an active prefill prefix can never produce at that point.
    assert_eq!(report.iterations[2].slot_ctx[2], 1);
    assert_eq!(report.outcomes.len(), 4);
}

/// Same-seed serving reports are bit-identical across worker thread
/// counts — the engine's determinism contract extends through the
/// serving loop.
#[test]
fn serving_is_thread_count_independent() {
    let base = serve(&serve_cfg());
    for threads in [2, 4] {
        let r = serve(&ServeCfg {
            threads,
            ..serve_cfg()
        });
        assert_eq!(base, r, "threads={threads} diverged from threads=1");
    }
}

/// Admission and token-budget invariants hold under overload, and every
/// admitted request eventually completes.
#[test]
fn overload_honors_slots_budget_and_drains() {
    let model = tiny_model();
    let v = variant();
    let tr = trace(20, 2_000.0, 31); // arrivals far faster than service
    let cfg = serve_cfg();
    let r = job(&model, &v, &tr, &cfg).run().unwrap();
    assert!(!r.truncated);
    let mut live_seen_full = false;
    for it in &r.iterations {
        assert!(it.live as usize <= cfg.slots);
        assert!(it.tokens as usize <= cfg.token_budget);
        assert!(it.decode_tokens <= it.live);
        live_seen_full |= it.live as usize == cfg.slots;
    }
    assert!(live_seen_full, "overload never filled the batch");
    assert_eq!(r.admitted_total, 20);
    assert_eq!(r.evicted_total, 20);
    assert_eq!(r.outcomes.len(), 20);
    // Under overload the offered load exceeds the achieved goodput.
    assert!(r.offered_per_mcycle > r.goodput_per_mcycle);
}

/// A [`PlanSource`] that freezes each `(fingerprint, config)` once and
/// hands the same plan back on every later request.
#[derive(Default)]
struct CachedPlans(SingleFlight<(u64, u64), Arc<SimPlan>>);

impl PlanSource for CachedPlans {
    fn plan(
        &self,
        fingerprint: u64,
        cfg: &SimConfig,
        build: &mut dyn FnMut() -> Result<Graph>,
    ) -> Result<Arc<SimPlan>> {
        self.0
            .get_or_run((fingerprint, cfg.fingerprint()), || {
                SimPlan::new(build()?, cfg.clone()).map(Arc::new)
            })
            .map(|(plan, _)| plan)
    }
}

/// Every variant axis the serving driver accepts: the three attention
/// strategies, static and dynamic MoE tiling, and fully spatial or
/// time-shared experts.
fn all_variants() -> Vec<E2eVariant> {
    let mut out = Vec::new();
    for attention in [
        ParallelStrategy::StaticCoarse { quota: 1 },
        ParallelStrategy::StaticInterleaved,
        ParallelStrategy::Dynamic,
    ] {
        for tiling in [Tiling::Static { tile: 4 }, Tiling::Dynamic] {
            for moe_regions in [None, Some(2)] {
                out.push(E2eVariant {
                    name: format!("{attention} {tiling} {moe_regions:?}"),
                    tiling,
                    moe_regions,
                    attention,
                });
            }
        }
    }
    out
}

/// The ports the driver reads by label from a cached plan's graph are
/// the ports the builder returned, for every variant — on the miss that
/// builds the plan and on the hit that does not.
#[test]
fn ports_read_by_label_from_cached_plans_match_the_builders() {
    let model = tiny_model();
    let (tr, cfg) = (trace(8, 20_000.0, 9), serve_cfg());
    let envelope = envelope_kv(&tr, &cfg);
    let moe_build = moe_build_routing(&model, &cfg);
    let moe_trace = expert_routing(&moe_build);
    let plans = CachedPlans::default();
    let variants = all_variants();
    for v in &variants {
        let attn_cfg = AttentionCfg::new(model.clone(), v.attention);
        let (_, built) = attention_graph_with_ports(&attn_cfg, &envelope).unwrap();
        let mut moe_cfg = MoeCfg::new(model.clone(), v.tiling);
        if let Some(r) = v.moe_regions {
            moe_cfg = moe_cfg.with_regions(r);
        }
        let (_, moe_built) = moe_graph_with_ports(&moe_cfg, &moe_trace).unwrap();
        for _ in 0..2 {
            let plan = plans
                .plan(
                    attn_plan_fingerprint(&model, v, &envelope),
                    &SimConfig::default(),
                    &mut || attention_graph(&attn_cfg, &envelope),
                )
                .unwrap();
            assert_eq!(
                AttentionPorts::of(plan.graph()).unwrap(),
                built,
                "{}",
                v.name
            );
            let plan = plans
                .plan(
                    moe_plan_fingerprint(&model, v, &moe_build),
                    &moe_sim_config(),
                    &mut || moe_graph(&moe_cfg, &moe_trace),
                )
                .unwrap();
            assert_eq!(MoePorts::of(plan.graph()).unwrap(), moe_built, "{}", v.name);
        }
    }
    // One build per distinct attention strategy and MoE schedule: the
    // second request of each was served from the cache.
    assert_eq!(plans.0.stats().builds, 3 + 4);
    // A graph without the labels is a typed error, not a panic.
    let unlabelled = qkv_graph(&model, 4).unwrap();
    assert!(AttentionPorts::of(&unlabelled).is_err());
    assert!(MoePorts::of(&unlabelled).is_err());
}

/// Serving over cached plans — where every port comes from a plan the
/// driver did not build in this run — equals serving over fresh plans,
/// for every variant.
#[test]
fn serving_over_cached_plans_matches_fresh_plans() {
    let model = tiny_model();
    let (tr, cfg) = (trace(6, 20_000.0, 9), serve_cfg());
    let plans = CachedPlans::default();
    for v in &all_variants() {
        let serve_job = job(&model, v, &tr, &cfg);
        let fresh = serve_job.run().unwrap();
        let cold = serve_job.run_memo(&plans, &ReportCache::new()).unwrap();
        let builds = plans.0.stats().builds;
        let warm = serve_job.run_memo(&plans, &ReportCache::new()).unwrap();
        assert_eq!(
            plans.0.stats().builds,
            builds,
            "{}: warm run rebuilt",
            v.name
        );
        assert_eq!(cold, fresh, "{}", v.name);
        assert_eq!(warm, fresh, "{}", v.name);
    }
}
