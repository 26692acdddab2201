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
//! to emit one JSON object per run (machine-readable counters) instead
//! of the table; `--json` also writes the rows to `BENCH_sched.json`
//! (path override: `BENCH_SCHED_OUT`), the perf-trajectory artifact CI
//! uploads.
//!
//! `--reuse N` appends the plan-reuse section: the heaviest config's
//! `SimPlan` is frozen once into a single-worker
//! [`step_bench::SweepService`]'s plan cache and run `N` times through
//! it (compiled executors, the worker's pooled state reset in place),
//! reporting the graph-build / partition+topology / per-run wall split
//! and the amortization ratio (build+run divided by the amortized
//! per-run wall). Counters of every reused run are held to the same
//! pinned budgets as the fresh-build rows, must be bit-identical across
//! runs, every pooled rerun must report `run_allocs == 0` /
//! `pool_resets == 1` (the alloc-free guard — a counter, so it cannot
//! flake), and the cache counters must end at exactly
//! `{hits: N, misses: 1, builds: 1}` — wall-clock is reported but never
//! asserted.

use std::time::Instant;
use step_bench::{CacheStats, SimPoint, SweepService, SweepUnit};
use step_core::StepError;
use step_models::ModelConfig;
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_sim::{Fingerprint, SimConfig, SimPlan, SimReport};
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
/// plan once into a single-worker [`SweepService`]'s cache, run `N`
/// points against it, and report the build-vs-run wall split. Returns
/// the JSON line for the artifact.
///
/// The cache is pre-warmed with an explicit checkout of the pre-built
/// graph (isolating partition/topology/compile time as `plan_ms`), so
/// the `N` submitted points are all hits — their build closures *fail*,
/// which turns "warm points never rebuild" into a hard assertion rather
/// than a counter we merely read. The single worker keeps one `RunPool`
/// per plan, so every rerun must report `run_allocs == 0` /
/// `pool_resets == 1` (the alloc-free guard — a counter, so it cannot
/// flake), and the cache must end at exactly
/// `{hits: N, misses: 1, builds: 1}` — the counters CI pins.
fn reuse_section(json: bool, runs: usize) -> String {
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
    svc.cache()
        .checkout(builder, &sim_cfg, &mut || {
            Ok(prebuilt.take().expect("pre-warm builds once"))
        })
        .expect("plan");
    let plan_ms = ms(t0);
    // Compiled + pooled, via the service: the steady-state path. Reruns
    // reset the worker's parked state in place; the counters prove it.
    let units: Vec<SweepUnit> = (0..runs)
        .map(|k| {
            SweepUnit::Sim(SimPoint {
                label: format!("reuse run {k}"),
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
    assert_eq!(
        svc.cache().stats(),
        CacheStats {
            hits: runs as u64,
            misses: 1,
            builds: 1,
            failures: 0
        },
        "reuse section cache counters moved"
    );
    let mut walls: Vec<f64> = Vec::with_capacity(runs);
    let mut first: Option<SimReport> = None;
    let (mut run_allocs, mut pool_resets) = (0u64, 0u64);
    for (k, res) in results.iter().enumerate() {
        let r = res.report.sim().expect("reuse points are sim units");
        walls.push(res.wall_ms);
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
                guard_counters("reused", r, B64_STATIC_FIRES.1, B64_STATIC_CHAN_RUNS.1);
                first = Some(r.clone());
            }
            Some(w) => {
                assert_eq!(
                    (r.cycles, r.offchip_traffic, r.total_fires(), r.chan_runs),
                    (w.cycles, w.offchip_traffic, w.total_fires(), w.chan_runs),
                    "reused-plan run {k} diverged from run 0"
                );
            }
        }
    }
    let r = first.expect("at least one run");
    let run_mean = walls.iter().sum::<f64>() / walls.len() as f64;
    let run_min = walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let build_ms = graph_ms + plan_ms;
    let build_plus_run = build_ms + walls[0];
    let amort = build_plus_run / run_mean.max(1e-9);
    let stats = svc.cache().stats();
    let line = format!(
        "{{\"mode\":\"reuse\",\"batch\":64,\"tiling\":\"static(8)\",\"runs\":{runs},\
         \"graph_ms\":{graph_ms:.1},\"plan_ms\":{plan_ms:.1},\"run_ms_first\":{:.1},\
         \"run_ms_mean\":{run_mean:.1},\"run_ms_min\":{run_min:.1},\
         \"run_allocs\":{run_allocs},\"pool_resets\":{pool_resets},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_builds\":{},\
         \"build_plus_run_ms\":{build_plus_run:.1},\"amortization\":{amort:.2},\
         \"cycles\":{},\"fires\":{},\"chan_runs\":{}}}",
        walls[0],
        stats.hits,
        stats.misses,
        stats.builds,
        r.cycles,
        r.total_fires(),
        r.chan_runs,
    );
    if json {
        println!("{line}");
    } else {
        println!(
            "\nplan reuse (batch 64 / static 8, {runs} runs via 1-worker sweep service): graph {graph_ms:.1}ms + partition/topology/compile {plan_ms:.1}ms, pooled runs mean {run_mean:.1}ms (min {run_min:.1}ms)"
        );
        println!(
            "pool: {run_allocs} state build(s), {pool_resets} in-place reset(s); \
             cache: {} hit(s), {} miss(es), {} build(s)",
            stats.hits, stats.misses, stats.builds
        );
        println!(
            "build+run {build_plus_run:.1}ms vs amortized per-run {run_mean:.1}ms: {amort:.2}x"
        );
        println!(
            "reused runs bit-identical, alloc-free, cache-served, and within counter budgets: ok"
        );
    }
    line
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
    // `--json` also writes the rows to a JSON-lines artifact (the perf
    // trajectory CI uploads; override the path with BENCH_SCHED_OUT).
    let mut artifact: Vec<String> = Vec::new();
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
                let line = json_line(batch, &tiling_name, "mono", 1, &mono, mono_wall);
                println!("{line}");
                artifact.push(line);
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
                    let line = json_line(batch, &tiling_name, "sharded", threads, &r, wall);
                    println!("{line}");
                    artifact.push(line);
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
        artifact.push(reuse_section(json, runs.max(1)));
    }
    if json {
        let path = std::env::var("BENCH_SCHED_OUT").unwrap_or_else(|_| "BENCH_sched.json".into());
        let mut body = artifact.join("\n");
        body.push('\n');
        std::fs::write(&path, body).expect("write bench artifact");
        eprintln!("wrote {path}");
    } else {
        println!("\nresults identical across all thread counts: ok");
        println!("sharded/mono fire ratio <= {FIRE_BUDGET} on every config: ok");
        println!("batch64/static8 fires and channel-op budgets: ok");
    }
}
