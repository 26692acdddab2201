//! Conformance suite for serving-level report memoization.
//!
//! **Cache-mode identity**: a serving run's `ServeReport` is unchanged
//! by how its phase reports were obtained — fresh engine runs
//! ([`ReportCache::disabled`]), memoized replays ([`ReportCache::new`]),
//! differential re-simulation ([`ReportCache::checked`]), and warm
//! reruns over a shared cache all compare equal (the report's
//! `PartialEq` covers everything the simulation computed; only the
//! host-side cache telemetry is excluded), across thread counts.
//!
//! **MoE keys**: the driver keys each MoE iteration by what determines
//! its binding ([`moe_report_key`]) without building the binding: an
//! iteration with few possible routings (a few tokens) by its routing
//! sample, any other by the sample's inputs. On the Mixtral serving
//! cell the keys group iterations exactly as the binding fingerprints
//! do; decode iterations whose samples coincide share one report within
//! a cold pass; and serve jobs that differ in any routing or plan input
//! never share a report, even back to back on one checked cache.

use std::collections::{HashMap, HashSet};
use step_models::ModelConfig;
use step_models::e2e::E2eVariant;
use step_models::moe::{MoeCfg, moe_graph_with_ports};
use step_models::phases::{bind_moe, moe_sim_config};
use step_models::serving::{
    FreshPlans, ServeCfg, ServeJob, ServeReport, iteration_routing, moe_build_routing,
    moe_plan_fingerprint, moe_report_key,
};
use step_sim::{ReportCache, plan_content_key};
use step_traces::{
    ArrivalConfig, ArrivalPattern, LenDist, RequestTrace, RoutingConfig, arrival_trace,
    expert_routing,
};

fn tiny() -> ModelConfig {
    ModelConfig {
        name: "memo-tiny",
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

fn trace(requests: usize, seed: u64) -> RequestTrace {
    arrival_trace(&ArrivalConfig {
        requests,
        mean_interarrival: 20_000.0,
        pattern: ArrivalPattern::Poisson,
        prompt: LenDist::new(48.0, 0.5, 8, 128),
        output: LenDist::new(3.0, 0.5, 1, 6),
        seed,
    })
}

fn job(model: &ModelConfig, v: &E2eVariant, t: &RequestTrace, c: &ServeCfg) -> ServeJob {
    ServeJob {
        label: String::new(),
        model: model.clone(),
        variant: v.clone(),
        trace: t.clone(),
        cfg: c.clone(),
    }
}

fn cfg(threads: usize) -> ServeCfg {
    ServeCfg {
        slots: 4,
        token_budget: 16,
        prefill_chunk: Some(16),
        seed: 11,
        threads,
        ..ServeCfg::default()
    }
}

#[test]
fn cache_modes_and_thread_counts_are_report_identical() {
    let model = tiny();
    let v = E2eVariant::static_schedule("s", 4);
    let t = trace(8, 3);
    let baseline = job(&model, &v, &t, &cfg(1)).run().unwrap();
    let phase_requests = 2 * baseline.iterations.len() as u64; // QKV + MoE
    for threads in [1usize, 2, 4] {
        let serve_job = job(&model, &v, &t, &cfg(threads));
        for (mode, cache) in [
            ("disabled", ReportCache::disabled()),
            ("enabled", ReportCache::new()),
            ("checked", ReportCache::checked()),
        ] {
            let got = serve_job.run_memo(&FreshPlans, &cache).unwrap();
            assert_eq!(
                got, baseline,
                "threads={threads} mode={mode}: caching changed the report"
            );
            if mode == "disabled" {
                // The driver still counts its requests; a passthrough
                // cache resolves every one as a simulation.
                assert_eq!(got.report_cache.hits, 0);
                assert_eq!(got.report_cache.misses, phase_requests);
                assert_eq!(got.engine_fires, got.total_fires);
            } else {
                // Every QKV and MoE iteration went through the cache.
                assert_eq!(
                    got.report_cache.hits + got.report_cache.misses,
                    phase_requests,
                    "threads={threads} mode={mode}: request accounting broken"
                );
                assert!(got.engine_fires < got.total_fires, "no work was elided");
            }
        }
        // Warm rerun over a shared cache: every phase request replays,
        // only attention still reaches the engine.
        let shared = ReportCache::new();
        let cold = serve_job.run_memo(&FreshPlans, &shared).unwrap();
        let warm = serve_job.run_memo(&FreshPlans, &shared).unwrap();
        assert_eq!(cold, baseline);
        assert_eq!(warm, baseline);
        assert_eq!(warm.report_cache.misses, 0, "warm rerun missed the cache");
        assert_eq!(warm.report_cache.hits, phase_requests);
        assert!(
            warm.engine_fires < cold.engine_fires,
            "warm rerun executed no fewer fires ({} vs {})",
            warm.engine_fires,
            cold.engine_fires
        );
    }
}

/// The serving sweep's quick cell, as the `replay` benchmark serves it:
/// Mixtral-8x7B under static(32) tiling, 4 slots, a 64-token budget,
/// prefill chunked at 16, eight Poisson arrivals at a 300 Mcycle mean.
fn replay_cell(seed: u64) -> ServeJob {
    let t = arrival_trace(&ArrivalConfig {
        requests: 8,
        mean_interarrival: 300_000_000.0,
        pattern: ArrivalPattern::Poisson,
        prompt: LenDist::new(192.0, 0.5, 32, 512),
        output: LenDist::new(4.0, 0.5, 2, 24),
        seed: 7,
    });
    let c = ServeCfg {
        slots: 4,
        token_budget: 64,
        prefill_chunk: Some(16),
        skew: 0.8,
        seed,
        ..ServeCfg::default()
    };
    let v = E2eVariant::static_schedule("Static (Perf-matched)", 32);
    job(&ModelConfig::mixtral_8x7b(), &v, &t, &c)
}

/// Each iteration's MoE report key, computed as the driver computes it,
/// beside the fingerprint of the `bind_moe` binding the key stands for.
fn moe_keys_and_bindings(job: &ServeJob, report: &ServeReport) -> Vec<(u64, u64)> {
    let (model, cfg) = (&job.model, &job.cfg);
    let build = moe_build_routing(model, cfg);
    let (_, ports) = moe_graph_with_ports(
        &MoeCfg::new(model.clone(), job.variant.tiling),
        &expert_routing(&build),
    )
    .unwrap();
    let plan = plan_content_key(
        moe_plan_fingerprint(model, &job.variant, &build),
        &moe_sim_config(),
    );
    report
        .iterations
        .iter()
        .map(|it| {
            let routing = iteration_routing(model, cfg, it.iter, it.tokens as usize);
            let key = moe_report_key(plan, &routing);
            let binding = bind_moe(&ports, model.hidden, &expert_routing(&routing)).fingerprint();
            (key, binding)
        })
        .collect()
}

/// Within each cold pass of the replay cell, two MoE iterations share a
/// key exactly when their `bind_moe` bindings share a fingerprint, so
/// keying without the binding moves no hit or miss.
#[test]
fn moe_keys_group_iterations_as_binding_fingerprints_do() {
    let mut iterations = 0;
    for seed in 1..=10 {
        let cell = replay_cell(seed);
        let report = cell.run().unwrap();
        let (mut by_key, mut by_binding) = (HashMap::new(), HashMap::new());
        for (it, (key, binding)) in report
            .iterations
            .iter()
            .zip(moe_keys_and_bindings(&cell, &report))
        {
            assert_eq!(
                *by_key.entry(key).or_insert(binding),
                binding,
                "seed {seed} iter {}: one key, two bindings",
                it.iter
            );
            assert_eq!(
                *by_binding.entry(binding).or_insert(key),
                key,
                "seed {seed} iter {}: one binding, two keys",
                it.iter
            );
        }
        iterations += report.iterations.len();
    }
    assert!(
        iterations >= 10 * 50,
        "only {iterations} iterations checked"
    );
}

/// Requests far apart decode alone, one token per iteration, and a
/// one-token routing is one of six expert pairs on the tiny model, so
/// samples drawn from different seeds coincide. A cold pass on a
/// checked cache (every hit re-simulated and compared) must replay each
/// repeated binding: its hits are exactly those that keying QKV by
/// token count and MoE by binding fingerprint would give.
#[test]
fn decode_iterations_whose_routings_coincide_share_one_moe_report() {
    let t = arrival_trace(&ArrivalConfig {
        requests: 3,
        mean_interarrival: 1e12,
        pattern: ArrivalPattern::Poisson,
        prompt: LenDist::new(12.0, 0.5, 4, 16),
        output: LenDist::new(12.0, 0.3, 8, 16),
        seed: 5,
    });
    let j = job(&tiny(), &E2eVariant::static_schedule("s", 4), &t, &cfg(1));
    let cold = j.run_memo(&FreshPlans, &ReportCache::checked()).unwrap();
    assert_eq!(cold, j.run().unwrap());
    let distinct = |xs: Vec<u64>| xs.into_iter().collect::<HashSet<_>>().len() as u64;
    let iters = cold.iterations.len() as u64;
    let qkv_hits = iters
        - distinct(
            cold.iterations
                .iter()
                .map(|i| u64::from(i.tokens))
                .collect(),
        );
    let bindings = moe_keys_and_bindings(&j, &cold);
    let moe_hits = iters - distinct(bindings.iter().map(|&(_, b)| b).collect());
    assert!(
        moe_hits >= 10,
        "only {moe_hits} repeated routings in {iters} iterations"
    );
    assert_eq!(
        (cold.report_cache.hits, cold.report_cache.misses),
        (qkv_hits + moe_hits, 2 * iters - qkv_hits - moe_hits),
        "a repeated MoE routing missed the cache"
    );
}

/// Serve jobs that differ only in routing skew, routing seed, token
/// budget or MoE tiling, served back to back on one checked cache (which
/// re-simulates every hit and asserts it equals the stored report),
/// each equal their own fresh run: no MoE key is shared across them.
#[test]
fn jobs_differing_in_one_routing_or_plan_input_share_no_moe_report() {
    let model = tiny();
    let t = trace(8, 3);
    let base = cfg(1);
    let static4 = E2eVariant::static_schedule("s", 4);
    let jobs = [
        job(&model, &static4, &t, &base),
        job(
            &model,
            &static4,
            &t,
            &ServeCfg {
                skew: 0.3,
                ..base.clone()
            },
        ),
        job(
            &model,
            &static4,
            &t,
            &ServeCfg {
                seed: 12,
                ..base.clone()
            },
        ),
        job(
            &model,
            &static4,
            &t,
            &ServeCfg {
                token_budget: 24,
                ..base.clone()
            },
        ),
        job(&model, &E2eVariant::static_schedule("s", 8), &t, &base),
    ];
    let shared = ReportCache::checked();
    for (i, j) in jobs.iter().enumerate() {
        let got = j.run_memo(&FreshPlans, &shared).unwrap();
        assert_eq!(
            got,
            j.run().unwrap(),
            "job {i} replayed another job's report"
        );
    }
    // Under one plan key (the driver's folds the job's skew and seed
    // too; `fire_profile --serve` uses a constant one), an 8-token
    // iteration's key separates each sampler input on its own, and a 1-
    // or 2-token iteration's key is its sample (6 or 36 possible
    // routings on this model): equal exactly when the samples are,
    // whatever seeds drew them.
    let key = |r: &RoutingConfig| moe_report_key(0, r);
    let prefill = iteration_routing(&model, &base, 3, 8);
    let perturbations: [fn(&mut RoutingConfig); 5] = [
        |c| c.skew = 0.3,
        |c| c.seed ^= 1,
        |c| c.batch += 1,
        |c| c.top_k -= 1,
        |c| c.experts += 1,
    ];
    for perturb in perturbations {
        let mut other = prefill.clone();
        perturb(&mut other);
        assert_ne!(key(&other), key(&prefill), "{other:?}");
    }
    let decodes: Vec<RoutingConfig> = (0..24)
        .map(|i| iteration_routing(&model, &base, i, 1 + i as usize % 2))
        .collect();
    let mut shared = 0;
    for (i, a) in decodes.iter().enumerate() {
        for b in &decodes[i + 1..] {
            let same = expert_routing(a) == expert_routing(b);
            assert_eq!(key(a) == key(b), same, "{a:?} vs {b:?}");
            shared += usize::from(same);
        }
    }
    assert!(shared > 0, "no two short samples coincided");
}
