//! Conformance suite for serving-level report memoization.
//!
//! Three contracts:
//!
//! 1. **Cache-mode identity**: a serving run's [`ServeReport`] is
//!    unchanged by how its phase reports were obtained — fresh engine
//!    runs ([`ReportCache::disabled`]), memoized replays
//!    ([`ReportCache::new`]), differential re-simulation
//!    ([`ReportCache::checked`]), and warm reruns over a shared cache
//!    all compare equal (the report's `PartialEq` covers everything the
//!    simulation computed; only the host-side cache telemetry is
//!    excluded), across thread counts.
//! 2. **Canonical rebinding, proven not assumed**: across ≥16 routing
//!    seeds (× thread counts), order-permuted MoE routings collapse
//!    under [`canonical_routing`] to one binding and one
//!    [`moe_canonical_key`], and replay as **exact** hits through
//!    [`ReportCache::checked`] — which re-simulates every hit and
//!    asserts bit-identity. The same matrix carries the *refutation*
//!    that shaped the design: replaying an order-permuted binding
//!    without rebinding is measurably unsound (even the whole-run
//!    [`aggregates`] — cycles, rounds — drift with token adjacency), so
//!    the suite demands at least one diverging permutation to prove
//!    checked mode has teeth.
//! 3. **Canonical serving mode**: with [`ServeCfg::moe_canonical`] on
//!    under a low-entropy routing regime, multiset collisions across
//!    iterations actually land cache hits the default mode
//!    cannot, order-invariant metrics (traffic, FLOPs) are unchanged,
//!    and same-seed reruns stay bit-identical — differentially checked
//!    end to end.

use step_models::ModelConfig;
use step_models::e2e::E2eVariant;
use step_models::moe::{MoeCfg, moe_graph_with_ports};
use step_models::phases::{bind_moe, canonical_routing, moe_canonical_key, moe_sim_config};
use step_models::serving::{
    FreshPlans, ServeCfg, ServeReport, moe_build_trace, run_serve, run_serve_memo,
};
use step_sim::{ReportCache, Resolution, SimConfig, SimPlan, SimReport, plan_content_key};
use step_traces::{
    ArrivalConfig, ArrivalPattern, LenDist, RequestTrace, RoutingConfig, RoutingTrace,
    arrival_trace, expert_routing,
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
    let baseline = run_serve(&model, &v, &t, &cfg(1)).unwrap();
    let phase_requests = 2 * baseline.iterations.len() as u64; // QKV + MoE
    for threads in [1usize, 2, 4] {
        let c = cfg(threads);
        for (mode, cache) in [
            ("disabled", ReportCache::disabled()),
            ("enabled", ReportCache::new()),
            ("checked", ReportCache::checked()),
        ] {
            let got = run_serve_memo(&model, &v, &t, &c, &FreshPlans, &cache).unwrap();
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
        let cold = run_serve_memo(&model, &v, &t, &c, &FreshPlans, &shared).unwrap();
        let warm = run_serve_memo(&model, &v, &t, &c, &FreshPlans, &shared).unwrap();
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

/// A deterministic xorshift64* stream for the permutation draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The whole-run performance scalars of a report: cycles, off-chip
/// traffic (total, read, write), on-chip memory, arena peak, FLOPs,
/// rounds, and channel tokens. Per-node attribution, sinks, and the
/// engine-execution counters (fires, channel runs) are left out — they
/// follow token order by construction — so a permutation that moves
/// *this* projection moves the phase's performance itself.
fn aggregates(r: &SimReport) -> [u64; 9] {
    [
        r.cycles,
        r.offchip_traffic,
        r.offchip_read,
        r.offchip_write,
        r.onchip_memory,
        r.arena_peak,
        r.total_flops,
        r.rounds,
        r.chan_tokens,
    ]
}

/// Seeded Fisher–Yates permutation of the routing's token order — the
/// exact equivalence [`moe_canonical_key`] claims to erase.
fn permuted(routing: &RoutingTrace, rng: &mut Rng) -> RoutingTrace {
    let mut assignments = routing.assignments.clone();
    for i in (1..assignments.len()).rev() {
        let j = (rng.next() as usize) % (i + 1);
        assignments.swap(i, j);
    }
    RoutingTrace {
        assignments,
        experts: routing.experts,
    }
}

#[test]
fn canonical_rebinding_is_proven_across_seeds_and_threads() {
    let model = tiny();
    let v = E2eVariant::static_schedule("s", 4);
    let mut exact_replays = 0u64;
    let mut refuted_permutations = 0u64;
    for threads in [1usize, 2] {
        let serve_cfg = ServeCfg {
            threads,
            ..cfg(threads)
        };
        let build = moe_build_trace(&model, &serve_cfg);
        let mut moe_cfg = MoeCfg::new(model.clone(), v.tiling);
        if let Some(r) = v.moe_regions {
            moe_cfg = moe_cfg.with_regions(r);
        }
        let (graph, ports) = moe_graph_with_ports(&moe_cfg, &build).unwrap();
        let sim_cfg = SimConfig {
            threads,
            ..moe_sim_config()
        };
        let plan = SimPlan::new(graph, sim_cfg.clone()).unwrap();
        let plan_key = plan_content_key(0x5EED, &sim_cfg);
        // The differential cache *is* the proof: exact hits in checked
        // mode re-simulate and assert full bit-identity.
        let cache = ReportCache::checked();
        for seed in 0..16u64 {
            let base = expert_routing(&RoutingConfig {
                experts: model.experts,
                top_k: model.top_k,
                batch: serve_cfg.token_budget,
                skew: 0.8,
                seed: seed * 31 + 5,
            });
            let key = moe_canonical_key(&base);
            let canon = canonical_routing(&base);
            let cbind = bind_moe(&ports, model.hidden, &canon);
            let first = cache
                .replay_or_run(plan_key, &cbind, &mut || plan.run_bound(&cbind))
                .unwrap();
            assert_eq!(first.resolution, Resolution::Simulated);
            let base_aggregates = aggregates(
                &plan
                    .run_bound(&bind_moe(&ports, model.hidden, &base))
                    .unwrap(),
            );
            let mut rng = Rng(seed + 1);
            for round in 0..3 {
                let p = permuted(&base, &mut rng);
                // The canonical form erases exactly the token order:
                // same key, same canonicalized trace, same binding.
                assert_eq!(
                    moe_canonical_key(&p),
                    key,
                    "seed {seed} round {round}: canonical key not order-invariant"
                );
                let pcanon = canonical_routing(&p);
                assert_eq!(
                    pcanon.assignments, canon.assignments,
                    "seed {seed} round {round}: canonical traces diverged"
                );
                let pbind = bind_moe(&ports, model.hidden, &pcanon);
                let got = cache
                    .replay_or_run(plan_key, &pbind, &mut || plan.run_bound(&pbind))
                    .unwrap();
                // An exact hit, bit-identical — re-simulated and
                // asserted by the checked cache before we ever see it.
                assert_eq!(
                    got.resolution,
                    Resolution::Exact,
                    "seed {seed} round {round}: canonicalized permutation missed"
                );
                exact_replays += 1;
                // The refutation that motivated rebinding: the *raw*
                // permuted binding is not even aggregate-equivalent to
                // the base order — token adjacency moves run
                // coalescing, and through scheduling, cycles/rounds.
                let raw = aggregates(&plan.run_bound(&bind_moe(&ports, model.hidden, &p)).unwrap());
                if raw != base_aggregates {
                    refuted_permutations += 1;
                }
            }
        }
    }
    assert_eq!(
        exact_replays,
        2 * 16 * 3,
        "every canonicalized permutation must replay exactly"
    );
    assert!(
        refuted_permutations > 0,
        "no order permutation moved the aggregate projection — the canonical \
         *replay* class may be sound after all; revisit the rebinding design"
    );
}

/// The order-invariant slice of a [`ServeReport`]: per-iteration token
/// counts, the untouched QKV/attention phase timings, per-iteration
/// data movement, and per-request admission composition. Canonicalizing
/// the MoE routing erases token order and nothing else, so these must
/// match the default mode exactly; MoE *cycle* timings — and the
/// wall-clock completion timestamps they feed — are allowed to drift by
/// a few cycles (run coalescing follows token adjacency) and are
/// deliberately excluded.
#[allow(clippy::type_complexity)]
fn order_invariant_view(
    r: &ServeReport,
) -> (
    Vec<(u32, u64, u64, u64)>,
    Vec<(u32, u64, u64, u32, u32)>,
    u64,
) {
    (
        r.iterations
            .iter()
            .map(|it| (it.tokens, it.qkv_cycles, it.attn_cycles, it.offchip_traffic))
            .collect(),
        r.outcomes
            .iter()
            .map(|o| (o.id, o.arrival, o.admitted, o.prompt, o.output))
            .collect(),
        r.offchip_traffic,
    )
}

#[test]
fn canonical_serving_mode_lands_exact_hits_and_keeps_order_invariant_metrics() {
    let model = tiny();
    let v = E2eVariant::static_schedule("s", 4);
    let t = trace(10, 9);
    // A low-entropy routing regime (few distinct expert sets per
    // iteration) so multiset collisions across iterations actually
    // happen — with 4 experts, top-2, and strong skew the per-token set
    // distribution concentrates on a handful of classes.
    let off = ServeCfg {
        skew: 3.0,
        ..cfg(1)
    };
    let on = ServeCfg {
        moe_canonical: true,
        ..off.clone()
    };
    let plain = run_serve_memo(&model, &v, &t, &off, &FreshPlans, &ReportCache::new()).unwrap();
    // Checked mode re-simulates every exact hit and asserts bit-identity
    // — running the whole serve loop through it is the end-to-end
    // version of the seed-matrix proof above.
    let canon = run_serve_memo(&model, &v, &t, &on, &FreshPlans, &ReportCache::checked()).unwrap();
    // Rebinding lands the sharing in the cache's exact keys:
    // order-permuted iterations collapse to one binding before the cache
    // ever sees them, so canonical mode wins extra hits.
    assert!(
        canon.report_cache.hits > plain.report_cache.hits,
        "canonical mode won no extra exact hits ({:?} vs {:?}) — the \
         low-entropy regime is not producing multiset collisions",
        canon.report_cache,
        plain.report_cache
    );
    assert!(
        canon.engine_fires < plain.engine_fires,
        "the extra hits elided no engine work ({} vs {})",
        canon.engine_fires,
        plain.engine_fires
    );
    assert_eq!(
        order_invariant_view(&canon),
        order_invariant_view(&plain),
        "canonicalizing the routing changed an order-invariant metric"
    );
    // Same-seed canonical-on reruns are bit-identical — fires and all —
    // whether the cache replays (enabled) or differentially re-simulates
    // (checked).
    let rerun = run_serve_memo(&model, &v, &t, &on, &FreshPlans, &ReportCache::new()).unwrap();
    assert_eq!(canon, rerun);
    assert_eq!(canon.total_fires, rerun.total_fires);
    assert_eq!(canon.chan_runs, rerun.chan_runs);
    assert_eq!(canon.engine_fires, rerun.engine_fires);
    assert!(
        canon.goodput_per_mcycle > 0.0,
        "the canonical run served nothing"
    );
}
