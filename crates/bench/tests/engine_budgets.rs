//! Engine counter gates on the Qwen3-30B-A3B MoE layer (routing skew 0.8,
//! seed 7, `SimConfig::default()`), whose many-expert graphs stress the
//! scheduler most. Cycles, fires and channel runs are pure functions of
//! `(plan, binding)`, so each gate is an exact pin or a counter budget
//! that cannot flake; `perfbench` times the engine.

use step_bench::{CacheStats, SimPoint, SweepService, SweepUnit};
use step_core::{Graph, StepError};
use step_models::ModelConfig;
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_sim::{ReportCacheStats, RunBinding, RunPool, SimConfig, SimPlan, SimReport};
use step_traces::{RoutingConfig, expert_routing};

/// `(batch, tiling, monolithic cycles, sharded cycles)`. The cycles are
/// the regression canary: only a timing-model change may move them.
const CONFIGS: [(usize, Tiling, u64, u64); 4] = [
    (16, Tiling::Static { tile: 8 }, 669_901, 672_130),
    (16, Tiling::Dynamic, 654_912, 661_449),
    (64, Tiling::Static { tile: 8 }, 1_245_421, 1_241_346),
    (64, Tiling::Dynamic, 1_071_232, 1_087_023),
];

/// Sharded single-thread fires over monolithic fires.
const FIRE_RATIO_BUDGET: f64 = 1.5;

/// `(fires, channel runs)` budgets on batch 64 / static(8), about 5%
/// above the measured 452,819 / 307,378 (monolithic, `shards: 1`) and
/// 76,202 / 162,654 (sharded).
const MONO_BUDGET: (u64, u64) = (476_000, 323_000);
const SHARDED_BUDGET: (u64, u64) = (80_000, 171_000);

fn moe(batch: usize, tiling: Tiling) -> Graph {
    let model = ModelConfig::qwen3_30b_a3b();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch,
        skew: 0.8,
        seed: 7,
    });
    moe_graph(&MoeCfg::new(model, tiling), &trace).expect("moe graph")
}

fn within(budget: (u64, u64), what: &str, r: &SimReport) {
    let used = (r.total_fires(), r.chan_runs);
    assert!(
        used.0 <= budget.0 && used.1 <= budget.1,
        "{what} batch64/static(8) (fires, channel runs) {used:?} over budget {budget:?}"
    );
}

/// Whole-report equality, apart from the pool counters, which record how
/// the run state was obtained rather than what the run computed.
fn assert_same_run(what: &str, got: &SimReport, want: &SimReport) {
    let got = SimReport {
        run_allocs: want.run_allocs,
        pool_resets: want.pool_resets,
        ..got.clone()
    };
    assert!(got == *want, "{what}: report diverged");
}

#[test]
fn moe_configs_are_thread_identical_pinned_and_within_fire_budgets() {
    for (batch, tiling, mono_cycles, sharded_cycles) in CONFIGS {
        let what = format!("batch{batch}/{tiling}");
        let graph = moe(batch, tiling);
        let run = |shards, threads| {
            let cfg = SimConfig {
                shards,
                threads,
                ..SimConfig::default()
            };
            SimPlan::new(graph.clone(), cfg)
                .expect("plan")
                .run()
                .expect("run")
        };
        let (mono, sharded) = (run(1, 1), run(0, 1));
        assert_eq!(
            (mono.cycles, sharded.cycles),
            (mono_cycles, sharded_cycles),
            "{what}: (monolithic, sharded) cycles moved"
        );
        for threads in [2, 8] {
            assert_same_run(
                &format!("{what} threads={threads}"),
                &run(0, threads),
                &sharded,
            );
        }
        let ratio = sharded.total_fires() as f64 / mono.total_fires() as f64;
        assert!(
            ratio <= FIRE_RATIO_BUDGET,
            "{what}: sharded {} vs monolithic {} fires ({ratio:.2}x > {FIRE_RATIO_BUDGET}x)",
            sharded.total_fires(),
            mono.total_fires()
        );
        if batch == 64 && matches!(tiling, Tiling::Static { .. }) {
            within(MONO_BUDGET, "monolithic", &mono);
            within(SHARDED_BUDGET, "sharded", &sharded);
        }
    }
}

/// Batch 64 / static(8)'s plan is frozen once into a one-worker
/// service's plan cache and run three times on one [`RunPool`]. Then
/// three identical points go through the service. Their build
/// closures fail, so a point that misses the cached plan fails the test;
/// point 0 runs on the worker and the rest replay its report.
#[test]
fn pooled_reruns_and_repeated_points_reproduce_run_0() {
    // Any builder key will do: the checkout and the points share it.
    let builder = 64;
    let svc = SweepService::new(1);
    let sim_cfg = SimConfig::default();
    let mut graph = Some(moe(64, Tiling::Static { tile: 8 }));
    let plan = svc
        .cache()
        .checkout(builder, &sim_cfg, &mut || {
            Ok(graph.take().expect("one build"))
        })
        .expect("plan");
    let mut pool = RunPool::new();
    let runs: Vec<SimReport> = (0..3)
        .map(|_| plan.run_with(&RunBinding::default(), Some(&mut pool)))
        .collect::<Result<_, _>>()
        .expect("pooled runs");
    let first = &runs[0];
    within(SHARDED_BUDGET, "reused", first);
    for (k, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            (r.run_allocs, r.pool_resets),
            (0, 1),
            "pooled rerun {k} rebuilt state instead of resetting in place"
        );
        assert_same_run(&format!("pooled rerun {k}"), r, first);
    }
    let units = (0..3)
        .map(|k| {
            SweepUnit::Sim(SimPoint {
                label: format!("point {k}"),
                builder,
                cfg: sim_cfg.clone(),
                build: Box::new(|| Err(StepError::Exec("point missed the cached plan".into()))),
                binding: None,
            })
        })
        .collect();
    let served = svc
        .run_all(units)
        .expect("every point hits the cached plan");
    for res in &served {
        assert_same_run(&res.label, res.report.sim().expect("sim unit"), first);
    }
    assert_eq!(
        svc.cache().stats(),
        CacheStats {
            hits: 3,
            misses: 1,
            builds: 1,
            failures: 0
        },
        "plan-cache counters moved"
    );
    assert_eq!(
        svc.reports().stats(),
        ReportCacheStats { hits: 2, misses: 1 },
        "report-cache counters moved"
    );
}
