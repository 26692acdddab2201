//! Serving sweep: continuous batching under offered load.
//!
//! Runs [`step_bench::experiments::serve_sweep`] — Mixtral-8x7B decode
//! served from a seeded Poisson arrival trace across an offered-load
//! axis, with and without chunked prefill — and reports TTFT/TPOT
//! percentiles (p50/p95/p99, cycles), goodput vs offered load
//! (requests per million cycles), and HBM pressure (off-chip bytes per
//! busy cycle and utilization of peak), as a table plus
//! `results/serve_sweep.csv`.
//!
//! Determinism is asserted, not sampled: the sweep is re-run with the
//! same seeds and must be bit-identical (every cycle count, percentile,
//! and counter), which extends the engine's thread-count-independence
//! contract through the serving scheduler — and, since both sweeps run
//! on the process-wide [`step_bench::SweepService`], the rerun is served
//! from warm plan *and report* caches, making it the warm-vs-cold
//! identity check too. With `--quick` the sweep shrinks to one
//! CI-affordable cell whose scheduling counters (iterations, admitted,
//! evicted — exact), engine counters (fires, channel run ops — pinned
//! ~5% above measured), plan-cache counters (2 misses + 2 builds cold,
//! 2 hits warm — exact), and report-cache counters (exact hit/miss
//! split cold and warm, plus an engine-fires elision floor — the memo
//! layer must skip ≥40% of the two passes' logical fire work) are
//! guarded; like sched_bench, the guards are pure functions of the plan
//! and can never flake on a noisy runner. Wall-clock is never asserted.
//!
//! Run with: `cargo run --release -p step-bench --bin serve_sweep`
//! (`--quick` for the CI cell, `--json` to print one JSON row per cell
//! to stdout instead of the table).

use step_bench::experiments::{ServeRow, report_serve, serve_sweep};
use step_bench::{CacheStats, SweepService};
use step_models::serving::Percentiles;

/// Counters-only budgets for the `--quick` cell (8 requests, mean
/// inter-arrival 300 Mcycles, chunk 16): scheduling counters are exact
/// (pure functions of trace + config), engine counters are pinned ~5%
/// above the measured 11,980,447 fires / 4,957,268 channel run ops.
const QUICK_ITERATIONS: usize = 56;
const QUICK_ADMITTED: u32 = 8;
const QUICK_FIRE_BUDGET: u64 = 12_600_000;
const QUICK_CHAN_RUN_BUDGET: u64 = 5_210_000;
/// Report-memoization guards for the quick cell. Each pass issues
/// `2 × QUICK_ITERATIONS` phase requests (QKV + MoE per iteration);
/// the cold pass resolves some from intra-run repeats, the warm rerun
/// resolves all of them from the shared service cache, leaving only
/// attention on the engine (measured 8,638 fires — pinned ~5% above).
/// Across both passes the cache must elide at least 40% of the logical
/// fire work (two passes × the committed 12.0M-fire baseline).
const QUICK_PHASE_REQUESTS: u64 = 2 * QUICK_ITERATIONS as u64;
const QUICK_WARM_ENGINE_FIRE_BUDGET: u64 = 9_100;
const QUICK_LOGICAL_FIRE_BASELINE: u64 = 12_000_000;

fn json_line(r: &ServeRow) -> String {
    let rep = &r.report;
    // An empty percentile population (e.g. no multi-token outputs for
    // TPOT) serializes as JSON null — it is not a zero latency.
    let pc = |p: &Option<Percentiles>, get: fn(&Percentiles) -> f64| {
        p.as_ref()
            .map_or("null".to_string(), |p| format!("{:.0}", get(p)))
    };
    format!(
        "{{\"mode\":\"serve\",\"mean_interarrival\":{:.0},\"prefill_chunk\":{},\
         \"offered_per_mcycle\":{:.3},\"goodput_per_mcycle\":{:.3},\
         \"ttft_p50\":{},\"ttft_p95\":{},\"ttft_p99\":{},\
         \"tpot_p50\":{},\"tpot_p95\":{},\"tpot_p99\":{},\
         \"hbm_bytes_per_cycle\":{:.2},\"hbm_utilization\":{:.4},\
         \"iterations\":{},\"admitted\":{},\"evicted\":{},\"shed\":{},\"completed\":{},\
         \"total_cycles\":{},\"busy_cycles\":{},\"fires\":{},\"chan_runs\":{},\
         \"engine_fires\":{},\"report_cache\":{{\"hits\":{},\"misses\":{}}}}}",
        r.mean_interarrival,
        r.prefill_chunk
            .map_or("null".to_string(), |c| c.to_string()),
        rep.offered_per_mcycle,
        rep.goodput_per_mcycle,
        pc(&rep.ttft, |p| p.p50),
        pc(&rep.ttft, |p| p.p95),
        pc(&rep.ttft, |p| p.p99),
        pc(&rep.tpot, |p| p.p50),
        pc(&rep.tpot, |p| p.p95),
        pc(&rep.tpot, |p| p.p99),
        rep.hbm_bytes_per_cycle,
        rep.hbm_utilization,
        rep.iterations.len(),
        rep.admitted_total,
        rep.evicted_total,
        rep.shed_total,
        rep.outcomes.len(),
        rep.total_cycles,
        rep.busy_cycles,
        rep.total_fires,
        rep.chan_runs,
        rep.engine_fires,
        rep.report_cache.hits,
        rep.report_cache.misses,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");

    // A failed sweep unit exits nonzero naming the failing point.
    let die = |e: step_bench::UnitFailure| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    let rows = serve_sweep(quick).unwrap_or_else(|e| die(e));
    // Same-seed rerun must be bit-identical: the serving scheduler adds
    // no nondeterminism on top of the engine's contract. Both sweeps run
    // on the process-wide sweep service, so the rerun is also the
    // warm-plan-cache check: identical reports off cached plans.
    let rerun = serve_sweep(quick).unwrap_or_else(|e| die(e));
    assert_eq!(rows.len(), rerun.len());
    for (a, b) in rows.iter().zip(&rerun) {
        assert_eq!(
            a.report, b.report,
            "serving sweep cell (interarrival {:.0}, chunk {:?}) not deterministic",
            a.mean_interarrival, a.prefill_chunk
        );
    }

    if quick {
        // The quick cell checks out two plans (attention + MoE). Cold
        // sweep: 2 misses, 2 builds; warm rerun: 2 hits, zero builds.
        // The counters are scheduler-independent, so the pin is exact.
        assert_eq!(
            SweepService::global().cache().stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                builds: 2,
                failures: 0
            },
            "quick-cell plan-cache counters moved — if intentional, re-pin"
        );
        let rep = &rows[0].report;
        assert_eq!(
            (rep.iterations.len(), rep.admitted_total, rep.evicted_total),
            (QUICK_ITERATIONS, QUICK_ADMITTED, QUICK_ADMITTED),
            "quick-cell scheduling counters moved — if intentional, re-pin the budgets"
        );
        assert!(
            rep.total_fires <= QUICK_FIRE_BUDGET,
            "quick-cell fires regressed: {} > budget {QUICK_FIRE_BUDGET}",
            rep.total_fires,
        );
        assert!(
            rep.chan_runs <= QUICK_CHAN_RUN_BUDGET,
            "quick-cell channel run ops regressed: {} > budget {QUICK_CHAN_RUN_BUDGET}",
            rep.chan_runs,
        );
        // Report-memoization pins. Every iteration issues one QKV and
        // one MoE request; the split between hits and misses is a pure
        // function of the trace (which token counts and routings
        // repeat), so the cold pin is exact. The warm rerun replays
        // every phase from the shared service cache: zero misses, only
        // attention still reaches the engine.
        let warm = &rerun[0].report;
        for (label, r) in [("cold", rep), ("warm", warm)] {
            assert_eq!(
                r.report_cache.hits + r.report_cache.misses,
                QUICK_PHASE_REQUESTS,
                "{label} pass: phase-request accounting moved — if intentional, re-pin"
            );
        }
        assert_eq!(
            (rep.report_cache.hits, rep.report_cache.misses),
            (42, 70),
            "cold-pass report-cache split moved — if intentional, re-pin"
        );
        assert_eq!(
            (warm.report_cache.hits, warm.report_cache.misses),
            (QUICK_PHASE_REQUESTS, 0),
            "warm rerun missed the shared report cache"
        );
        assert!(
            warm.engine_fires <= QUICK_WARM_ENGINE_FIRE_BUDGET,
            "warm-pass engine fires regressed: {} > budget {QUICK_WARM_ENGINE_FIRE_BUDGET}",
            warm.engine_fires,
        );
        // The elision floor: across cold + warm the memo layer must
        // skip at least 40% of the logical fire work.
        let executed = rep.engine_fires + warm.engine_fires;
        let logical = 2 * QUICK_LOGICAL_FIRE_BASELINE;
        assert!(
            executed * 10 <= logical * 6,
            "report cache elided <40% of fire work: executed {executed} of {logical} logical",
        );
    }

    if json {
        for r in &rows {
            println!("{}", json_line(r));
        }
    } else {
        report_serve(
            if quick {
                "serve_sweep_quick"
            } else {
                "serve_sweep"
            },
            &rows,
        );
        println!("\nsame-seed warm-cache rerun bit-identical on every cell: ok");
        if quick {
            println!(
                "quick-cell scheduling, engine, plan-cache, and report-cache counter budgets: ok"
            );
        }
    }
}
