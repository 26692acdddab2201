//! Conformance suite for serving-level report memoization.
//!
//! **Cache-mode identity**: a serving run's `ServeReport` is unchanged
//! by how its phase reports were obtained — fresh engine runs
//! ([`ReportCache::disabled`]), memoized replays ([`ReportCache::new`]),
//! differential re-simulation ([`ReportCache::checked`]), and warm
//! reruns over a shared cache all compare equal (the report's
//! `PartialEq` covers everything the simulation computed; only the
//! host-side cache telemetry is excluded), across thread counts.

use step_models::ModelConfig;
use step_models::e2e::E2eVariant;
use step_models::serving::{FreshPlans, ServeCfg, ServeJob};
use step_sim::ReportCache;
use step_traces::{ArrivalConfig, ArrivalPattern, LenDist, RequestTrace, arrival_trace};

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
