//! Scheduler microbenchmark: engine overhead and parallel scaling on the
//! MoE graph.
//!
//! Reports cycles, scheduler rounds, node fires, coordination counters,
//! and wall-clock for the MoE layer at a few batch sizes — the workload
//! whose many-expert graphs stress the engine most — first on the
//! monolithic (single-shard) engine, then on the sharded engine across a
//! thread-count axis. The sharded rows must agree bit-for-bit on cycles
//! and off-chip traffic at every thread count (the determinism contract);
//! the bench asserts it.
//!
//! The bench is also the perf-regression guard for the engine: on every
//! config it asserts that sharded single-thread total fires stay within
//! [`FIRE_BUDGET`] of the monolithic engine's, and on the heaviest
//! config (batch 64 / static 8) that fires and channel run operations
//! stay under pinned absolute budgets ([`B64_STATIC_FIRES`],
//! [`B64_STATIC_CHAN_RUNS`]) — the run-length transport's compression
//! cannot silently regress. All of these are pure functions of the plan;
//! unlike wall-clock they can never flake, so CI runs them as hard
//! checks.
//!
//! Run with: `cargo run --release -p step-bench --bin sched_bench`
//! Optionally `THREADS="1 2 4 8"` to pick the thread axis, and `--json`
//! to print one JSON object per run (machine-readable counters) to
//! stdout instead of the table.
//!
//! `--reuse N` appends the plan-reuse section on the heaviest config.
//! Its `SimPlan` is frozen once into a single-worker
//! [`step_bench::SweepService`]'s plan cache, then run `N` times directly
//! on that plan with one [`step_sim::RunPool`]: the first run compiles
//! the executors and builds the pooled state, later runs reset that state
//! in place. The section reports the graph-build / partition+topology /
//! per-run wall split and the amortization ratio (build+run divided by
//! the amortized per-run wall). Counters of every rerun are held to the
//! same pinned budgets as the fresh-build rows and must be bit-identical
//! across runs, and every pooled rerun must report `run_allocs == 0` /
//! `pool_resets == 1` (the alloc-free guard — a counter, so it cannot
//! flake). Then `N` identical points go through the service: point 0
//! runs on the worker and points 1..N−1 replay its report from the
//! service's report cache. The plan cache must end at exactly
//! `{hits: N, misses: 1, builds: 1}` and the report cache at
//! `{hits: N−1, misses: 1}` — wall-clock is reported but never
//! asserted.

use std::time::Instant;
use step_bench::{CacheStats, SimPoint, SweepService, SweepUnit};
use step_core::StepError;
use step_models::ModelConfig;
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_sim::{Fingerprint, ReportCacheStats, RunBinding, RunPool, SimConfig, SimPlan, SimReport};
use step_traces::{RoutingConfig, RoutingTrace, expert_routing};

/// Maximum allowed ratio of sharded single-thread total fires to
/// monolithic total fires, per config. The two-phase off-chip protocol
/// once inflated this to 2.4x; barrier elision and wake dedup hold it
/// well below 1 (the deduped ready set out-schedules the legacy waves).
const FIRE_BUDGET: f64 = 1.5;

/// Counters-only perf budgets for the heaviest config (batch 64, static
/// tile 8), pinned ~5% above the run-length transport's measured values
/// (sharded: 76,202 fires / 162,654 channel run ops for 728,988 tokens;
/// mono: 452,819 / 307,378). Fires and channel ops are pure functions of
/// the plan — unlike wall-clock they cannot flake — so CI fails hard if
/// a regression undoes the bulk-transport or scheduling work.
const B64_STATIC_FIRES: (u64, u64) = (476_000, 80_000); // (mono, sharded)
const B64_STATIC_CHAN_RUNS: (u64, u64) = (323_000, 171_000);

fn run_once(cfg: &MoeCfg, trace: &RoutingTrace, sim_cfg: SimConfig) -> (SimReport, f64) {
    let graph = moe_graph(cfg, trace).expect("moe graph");
    let t0 = Instant::now();
    let report = SimPlan::new(graph, sim_cfg)
        .expect("plan")
        .run()
        .expect("run");
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

/// The plan-reuse section (`--reuse N`): freeze the heaviest config's
/// plan once into a single-worker [`SweepService`]'s cache, rerun it `N`
/// times on one pool, then submit `N` identical points to the service.
///
/// The cache is pre-warmed with an explicit checkout of the pre-built
/// graph (isolating partition/topology time as `plan_ms`; compiling the
/// executors falls in the first run's `run_ms_first`). The direct
/// reruns carry the pooled-rerun guard: every rerun after the first must
/// report `run_allocs == 0` / `pool_resets == 1`. The `N` submitted
/// points are all plan-cache hits — their build closures *fail*, which
/// turns "warm points never rebuild" into a hard assertion rather than a
/// counter we merely read — and all but the first replay from the
/// report cache. Both caches' counters are pinned exactly.
fn reuse_section(json: bool, runs: usize) {
    let model = ModelConfig::qwen3_30b_a3b();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 64,
        skew: 0.8,
        seed: 7,
    });
    let cfg = MoeCfg::new(model.clone(), Tiling::Static { tile: 8 });
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let graph = moe_graph(&cfg, &trace).expect("moe graph");
    let graph_ms = ms(t0);
    // Same fingerprint scheme as the experiments' sweep points: the
    // builder hash covers everything `moe_graph` consumed.
    let builder = {
        let mut fp = Fingerprint::new("bench.moe");
        fp.push_debug(&cfg).push_debug(&trace);
        fp.finish()
    };
    let svc = SweepService::new(1);
    let sim_cfg = SimConfig::default();
    let t0 = Instant::now();
    let mut prebuilt = Some(graph);
    let plan = svc
        .cache()
        .checkout(builder, &sim_cfg, &mut || {
            Ok(prebuilt.take().expect("pre-warm builds once"))
        })
        .expect("plan");
    let plan_ms = ms(t0);
    // Compiled + pooled, straight on the frozen plan: the steady-state
    // run path. Reruns reset the parked state in place; the counters
    // prove it.
    let mut pool = RunPool::new();
    let mut walls: Vec<f64> = Vec::with_capacity(runs);
    let mut first: Option<SimReport> = None;
    let (mut run_allocs, mut pool_resets) = (0u64, 0u64);
    for k in 0..runs {
        let t0 = Instant::now();
        let r = plan
            .run_with(&RunBinding::default(), Some(&mut pool))
            .expect("pooled rerun");
        walls.push(ms(t0));
        run_allocs += r.run_allocs;
        pool_resets += r.pool_resets;
        if k > 0 {
            // The alloc-free guard: after warmup, every rerun reuses the
            // parked state. A counter, not a wall-clock — cannot flake.
            assert_eq!(
                (r.run_allocs, r.pool_resets),
                (0, 1),
                "pooled rerun {k} rebuilt state instead of resetting in place"
            );
        }
        match &first {
            None => {
                // Counters-only budget: a reused run answers to the same
                // pinned budgets as a fresh build of the same config.
                guard_counters("reused", &r, B64_STATIC_FIRES.1, B64_STATIC_CHAN_RUNS.1);
                first = Some(r);
            }
            Some(w) => assert_same_run(&format!("reused-plan run {k}"), &r, w),
        }
    }
    let r = first.expect("at least one run");
    // Through the service: point 0 runs on the worker, the rest replay
    // its report.
    let units: Vec<SweepUnit> = (0..runs)
        .map(|k| {
            SweepUnit::Sim(SimPoint {
                label: format!("reuse point {k}"),
                builder,
                cfg: sim_cfg.clone(),
                build: Box::new(|| {
                    Err(StepError::Exec(
                        "reuse point missed the pre-warmed plan cache".into(),
                    ))
                }),
                binding: None,
            })
        })
        .collect();
    // A failed reuse point exits nonzero naming the failing sweep point.
    let results = svc.run_all(units).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    for res in &results {
        let served = res.report.sim().expect("reuse points are sim units");
        assert_same_run(&res.label, served, &r);
    }
    let stats = svc.cache().stats();
    assert_eq!(
        stats,
        CacheStats {
            hits: runs as u64,
            misses: 1,
            builds: 1,
            failures: 0
        },
        "reuse section plan-cache counters moved"
    );
    let replays = svc.reports().stats();
    assert_eq!(
        replays,
        ReportCacheStats {
            hits: runs as u64 - 1,
            misses: 1
        },
        "reuse section report-cache counters moved"
    );
    let run_mean = walls.iter().sum::<f64>() / walls.len() as f64;
    let run_min = walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let build_ms = graph_ms + plan_ms;
    let build_plus_run = build_ms + walls[0];
    let amort = build_plus_run / run_mean.max(1e-9);
    let line = format!(
        "{{\"mode\":\"reuse\",\"batch\":64,\"tiling\":\"static(8)\",\"runs\":{runs},\
         \"graph_ms\":{graph_ms:.1},\"plan_ms\":{plan_ms:.1},\"run_ms_first\":{:.1},\
         \"run_ms_mean\":{run_mean:.1},\"run_ms_min\":{run_min:.1},\
         \"run_allocs\":{run_allocs},\"pool_resets\":{pool_resets},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_builds\":{},\
         \"report_hits\":{},\"report_misses\":{},\
         \"build_plus_run_ms\":{build_plus_run:.1},\"amortization\":{amort:.2},\
         \"cycles\":{},\"fires\":{},\"chan_runs\":{}}}",
        walls[0],
        stats.hits,
        stats.misses,
        stats.builds,
        replays.hits,
        replays.misses,
        r.cycles,
        r.total_fires(),
        r.chan_runs,
    );
    if json {
        println!("{line}");
    } else {
        println!(
            "\nplan reuse (batch 64 / static 8, {runs} pooled runs of one cached plan): graph {graph_ms:.1}ms + partition/topology {plan_ms:.1}ms, pooled runs mean {run_mean:.1}ms (min {run_min:.1}ms)"
        );
        println!(
            "pool: {run_allocs} state build(s), {pool_resets} in-place reset(s); \
             {runs} service points: plan cache {} hit(s), {} miss(es), {} build(s); \
             report cache {} hit(s), {} miss(es)",
            stats.hits, stats.misses, stats.builds, replays.hits, replays.misses
        );
        println!(
            "build+run {build_plus_run:.1}ms vs amortized per-run {run_mean:.1}ms: {amort:.2}x"
        );
        println!(
            "reused runs bit-identical, alloc-free, and within counter budgets; repeated points replayed: ok"
        );
    }
}

/// Bit-identity of a reused or replayed run against the first run, on
/// the counters the budgets gate.
fn assert_same_run(what: &str, r: &SimReport, first: &SimReport) {
    assert_eq!(
        (r.cycles, r.offchip_traffic, r.total_fires(), r.chan_runs),
        (
            first.cycles,
            first.offchip_traffic,
            first.total_fires(),
            first.chan_runs
        ),
        "{what} diverged from run 0"
    );
}

fn json_line(
    batch: usize,
    tiling: &str,
    mode: &str,
    threads: usize,
    r: &SimReport,
    wall: f64,
) -> String {
    format!(
        "{{\"batch\":{batch},\"tiling\":\"{tiling}\",\"mode\":\"{mode}\",\"threads\":{threads},\
         \"shards\":{},\"cycles\":{},\"rounds\":{},\"fires\":{},\"idle_fires\":{},\
         \"sub_rounds\":{},\"shard_runs\":{},\"solo_runs\":{},\"elided_runs\":{},\
         \"wake_dedup\":{},\"chan_tokens\":{},\"chan_runs\":{},\"tokens_per_sec\":{:.0},\
         \"wall_ms\":{wall:.1}}}",
        r.shards,
        r.cycles,
        r.rounds,
        r.total_fires(),
        r.idle_fires(),
        r.sched.sub_rounds,
        r.sched.shard_runs,
        r.sched.solo_runs,
        r.sched.elided_runs,
        r.sched.wake_dedup,
        r.chan_tokens,
        r.chan_runs,
        r.chan_tokens as f64 / (wall / 1e3).max(1e-9),
    )
}

/// Counters-only regression guard on the heaviest config: wall-time-free,
/// so stable in CI.
fn guard_counters(mode: &str, r: &SimReport, fires_budget: u64, chan_budget: u64) {
    assert!(
        r.total_fires() <= fires_budget,
        "{mode} batch64/static8 fires regressed: {} > budget {fires_budget}",
        r.total_fires(),
    );
    assert!(
        r.chan_runs <= chan_budget,
        "{mode} batch64/static8 channel run ops regressed: {} > budget {chan_budget}",
        r.chan_runs,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let reuse: Option<usize> = args
        .iter()
        .position(|a| a == "--reuse")
        .map(|i| args.get(i + 1).and_then(|n| n.parse().ok()).unwrap_or(3));
    let model = ModelConfig::qwen3_30b_a3b();
    let threads_axis: Vec<usize> = std::env::var("THREADS")
        .map(|s| {
            s.split_whitespace()
                .map(|t| t.parse().expect("THREADS entries are integers"))
                .collect()
        })
        .unwrap_or_else(|_| vec![1, 2, 4, 8]);
    if !json {
        println!(
            "{:>6} {:>10} {:>6} {:>8} {:>12} {:>12} {:>12} {:>11} {:>11} {:>10} {:>8}",
            "batch",
            "tiling",
            "mode",
            "threads",
            "cycles",
            "rounds",
            "fires",
            "sub_rounds",
            "wake_dedup",
            "wall (ms)",
            "speedup"
        );
    }
    for batch in [16usize, 64] {
        let trace = expert_routing(&RoutingConfig {
            experts: model.experts,
            top_k: model.top_k,
            batch,
            skew: 0.8,
            seed: 7,
        });
        for tiling in [Tiling::Static { tile: 8 }, Tiling::Dynamic] {
            let cfg = MoeCfg::new(model.clone(), tiling);
            let tiling_name = format!("{tiling}");
            // Monolithic reference (the legacy engine, bit for bit).
            let (mono, mono_wall) = run_once(
                &cfg,
                &trace,
                SimConfig {
                    shards: 1,
                    ..SimConfig::default()
                },
            );
            if batch == 64 && matches!(tiling, Tiling::Static { .. }) {
                guard_counters("mono", &mono, B64_STATIC_FIRES.0, B64_STATIC_CHAN_RUNS.0);
            }
            if json {
                println!(
                    "{}",
                    json_line(batch, &tiling_name, "mono", 1, &mono, mono_wall)
                );
            } else {
                println!(
                    "{batch:>6} {tiling:>10} {:>6} {:>8} {:>12} {:>12} {:>12} {:>11} {:>11} {mono_wall:>10.1} {:>8}",
                    "mono",
                    1,
                    mono.cycles,
                    mono.rounds,
                    mono.total_fires(),
                    mono.sched.sub_rounds,
                    mono.sched.wake_dedup,
                    "-"
                );
            }
            // Sharded engine across the thread axis: identical results
            // required at every thread count.
            let mut base: Option<(u64, u64, f64)> = None;
            for &threads in &threads_axis {
                let (r, wall) = run_once(
                    &cfg,
                    &trace,
                    SimConfig {
                        threads,
                        ..SimConfig::default()
                    },
                );
                match base {
                    None => {
                        base = Some((r.cycles, r.offchip_traffic, wall));
                        // Perf-regression guard: sharded fire inflation
                        // over the monolithic engine must stay bounded.
                        let ratio = r.total_fires() as f64 / mono.total_fires() as f64;
                        assert!(
                            ratio <= FIRE_BUDGET,
                            "fire budget blown on batch{batch}/{tiling_name}: \
                             sharded {} vs mono {} fires ({ratio:.2}x > {FIRE_BUDGET}x)",
                            r.total_fires(),
                            mono.total_fires(),
                        );
                        if batch == 64 && matches!(tiling, Tiling::Static { .. }) {
                            guard_counters(
                                "sharded",
                                &r,
                                B64_STATIC_FIRES.1,
                                B64_STATIC_CHAN_RUNS.1,
                            );
                        }
                    }
                    Some((c, t, _)) => {
                        assert_eq!(
                            (r.cycles, r.offchip_traffic),
                            (c, t),
                            "thread count changed results at threads={threads}"
                        );
                    }
                }
                let speedup = base.map(|(_, _, w)| w / wall).unwrap_or(1.0);
                if json {
                    println!(
                        "{}",
                        json_line(batch, &tiling_name, "sharded", threads, &r, wall)
                    );
                } else {
                    println!(
                        "{batch:>6} {tiling:>10} {:>6} {threads:>8} {:>12} {:>12} {:>12} {:>11} {:>11} {wall:>10.1} {speedup:>7.2}x",
                        format!("x{}", r.shards),
                        r.cycles,
                        r.rounds,
                        r.total_fires(),
                        r.sched.sub_rounds,
                        r.sched.wake_dedup,
                    );
                }
            }
        }
    }
    if let Some(runs) = reuse {
        reuse_section(json, runs.max(1));
    }
    if !json {
        println!("\nresults identical across all thread counts: ok");
        println!("sharded/mono fire ratio <= {FIRE_BUDGET} on every config: ok");
        println!("batch64/static8 fires and channel-op budgets: ok");
    }
}
