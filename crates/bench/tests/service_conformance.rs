//! Differential conformance for the sweep service: every sweep that was
//! rewired onto [`step_bench::SweepService`] is held **bit-identical**
//! to the serial loop it replaced — at 1/2/4/8 workers, across
//! warm-cache reruns, and where repeated points replay cached reports —
//! and the [`step_bench::CacheStats`] and [`step_sim::ReportCacheStats`]
//! counters are pinned exactly (their semantics are
//! scheduler-independent, so the pins hold at any worker count; see the
//! service module docs).
//!
//! Wall-clock is never asserted. Pool-reuse counters (`run_allocs`,
//! `pool_resets`) are deliberately *not* part of any comparison here:
//! the serial baseline builds fresh run state (`run_allocs == 1`) while
//! a warm service worker resets in place (`run_allocs == 0`) — that
//! split is asserted by the service's own unit tests and by
//! `engine_budgets.rs`, not by row conformance. The sweep rows only
//! carry derived metrics, which the determinism contract makes pure
//! functions of (graph, config, binding).

use std::sync::Arc;
use step_bench::experiments::{
    ServeRow, TilingRow, TimeshareRow, serve_axis, serve_cfg, serve_sweep_on, serve_trace,
    tiling_sweep_on, timeshare_sweep_on, timeshare_units,
};
use step_bench::{CacheStats, SimPoint, SweepService, SweepUnit, UnitReport};
use step_models::ModelConfig;
use step_models::e2e::E2eVariant;
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_models::phases::moe_sim_config;
use step_models::serving::ServeJob;
use step_sim::{Fingerprint, ReportCacheStats, SimConfig, SimPlan, SimReport};
use step_traces::{RoutingConfig, expert_routing};

fn run(graph: step_core::Graph, cfg: SimConfig) -> SimReport {
    SimPlan::new(graph, cfg)
        .expect("graph is executable")
        .run()
        .expect("simulation completes")
}

/// The serial loop `tiling_sweep` replaced: one fresh plan per point, in
/// submission order (the static tiles, then dynamic tiling). The
/// differential baseline the service path is held bit-identical to.
fn tiling_sweep_serial(
    model: ModelConfig,
    batch: usize,
    tiles: &[u64],
    seed: u64,
) -> Vec<TilingRow> {
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch,
        skew: 0.8,
        seed,
    });
    let schedules = tiles
        .iter()
        .map(|&tile| Tiling::Static { tile })
        .chain([Tiling::Dynamic]);
    let mut rows = Vec::new();
    for tiling in schedules {
        let cfg = MoeCfg::new(model.clone(), tiling);
        let report = run(
            moe_graph(&cfg, &trace).expect("valid MoE"),
            moe_sim_config(),
        );
        rows.push(TilingRow {
            model: model.name,
            schedule: tiling.to_string(),
            cycles: report.cycles,
            onchip: report.onchip_memory,
            traffic: report.offchip_traffic,
        });
    }
    rows
}

/// The serial loop `timeshare_sweep` replaced, over the Fig 12/13 region
/// axis (`regions == experts` is the untimed baseline and takes no
/// region override).
fn timeshare_sweep_serial(tiling: Tiling, seed: u64) -> Vec<TimeshareRow> {
    let model = ModelConfig::qwen3_30b_a3b();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 64,
        skew: 0.8,
        seed,
    });
    [128, 64, 32, 16, 8, 4]
        .into_iter()
        .map(|regions| {
            let mut cfg = MoeCfg::new(model.clone(), tiling);
            if regions != model.experts {
                cfg = cfg.with_regions(regions);
            }
            let report = run(
                moe_graph(&cfg, &trace).expect("valid MoE"),
                moe_sim_config(),
            );
            timeshare_row(regions, &report)
        })
        .collect()
}

fn timeshare_row(regions: u32, report: &SimReport) -> TimeshareRow {
    TimeshareRow {
        regions,
        cycles: report.cycles,
        compute_util: report.compute_utilization(),
        allocated_compute: report.allocated_compute,
        onchip: report.onchip_memory,
        bw_util: report.offchip_bw_utilization(),
    }
}

/// Bit-equality of two Fig 12/13 rows; utilizations are ratios of
/// counters, so they compare bit-equal, not approximately.
fn assert_same_row(want: &TimeshareRow, got: &TimeshareRow, what: &str) {
    assert_eq!(
        (
            want.regions,
            want.cycles,
            want.allocated_compute,
            want.onchip
        ),
        (got.regions, got.cycles, got.allocated_compute, got.onchip),
        "{what} diverged at regions={}",
        want.regions
    );
    assert_eq!(want.compute_util.to_bits(), got.compute_util.to_bits());
    assert_eq!(want.bw_util.to_bits(), got.bw_util.to_bits());
}

/// The serial loop `serve_sweep` replaced: fresh plans per cell.
fn serve_sweep_serial(quick: bool) -> Vec<ServeRow> {
    serve_axis(quick)
        .into_iter()
        .map(|(mean, chunk)| {
            let job = ServeJob {
                label: String::new(),
                model: ModelConfig::mixtral_8x7b(),
                variant: E2eVariant::static_schedule("Static (Perf-matched)", 32),
                trace: serve_trace(mean, quick),
                cfg: serve_cfg(chunk),
            };
            let report = job.run().expect("serve run");
            assert!(!report.truncated, "serving sweep cell did not drain");
            ServeRow {
                mean_interarrival: mean,
                prefill_chunk: chunk,
                report,
            }
        })
        .collect()
}

/// Fig 9's Mixtral cells (trimmed to two static tiles to stay
/// CI-affordable) must come back from the service bit-identical to the
/// serial loop at every worker count, with one build per distinct plan.
#[test]
fn tiling_sweep_matches_serial_at_every_worker_count() {
    let tiles = [8u64, 16];
    let serial = tiling_sweep_serial(ModelConfig::mixtral_8x7b(), 64, &tiles, 7);
    for workers in [1usize, 2, 4, 8] {
        let svc = SweepService::new(workers);
        let rows = tiling_sweep_on(&svc, ModelConfig::mixtral_8x7b(), 64, &tiles, 7)
            .expect("tiling sweep runs");
        assert_eq!(rows.len(), serial.len());
        for (s, r) in serial.iter().zip(&rows) {
            assert_eq!(s.schedule, r.schedule, "workers={workers} reordered");
            assert_eq!(
                (s.cycles, s.onchip, s.traffic),
                (r.cycles, r.onchip, r.traffic),
                "workers={workers} diverged from the serial loop on {}",
                s.schedule
            );
        }
        // Three distinct plans (static 8, static 16, dynamic), each
        // requested exactly once: all misses, no coalescing possible.
        assert_eq!(
            svc.cache().stats(),
            CacheStats {
                hits: 0,
                misses: 3,
                builds: 3,
                failures: 0
            },
            "workers={workers} cache counters moved"
        );
    }
}

/// The Fig 12/13 region sweep must match its serial loop, and — because
/// Fig 12's static(32) column and Fig 13 submit identical cells — a
/// second submission on the same service must be served entirely from
/// the warm caches: identical rows, zero further builds, every report
/// replayed.
#[test]
fn timeshare_sweep_matches_serial_and_warm_rerun_builds_nothing() {
    let serial = timeshare_sweep_serial(Tiling::Static { tile: 32 }, 7);
    let svc = SweepService::new(4);
    let cold =
        timeshare_sweep_on(&svc, Tiling::Static { tile: 32 }, 7).expect("timeshare sweep runs");
    assert_eq!(cold.len(), serial.len());
    for (s, r) in serial.iter().zip(&cold) {
        assert_same_row(s, r, "service (vs the serial loop)");
    }
    assert_eq!(
        svc.cache().stats(),
        CacheStats {
            hits: 0,
            misses: 6,
            builds: 6,
            failures: 0
        }
    );
    let warm =
        timeshare_sweep_on(&svc, Tiling::Static { tile: 32 }, 7).expect("timeshare sweep runs");
    for (c, w) in cold.iter().zip(&warm) {
        assert_same_row(c, w, "warm-cache rerun");
    }
    assert_eq!(
        svc.cache().stats(),
        CacheStats {
            hits: 6,
            misses: 6,
            builds: 6,
            failures: 0
        },
        "warm rerun must be all hits and build nothing"
    );
    assert_eq!(
        svc.reports().stats(),
        ReportCacheStats { hits: 6, misses: 6 },
        "the warm rerun replays every report"
    );
}

/// One batch holding the timeshare static(32) column twice — Fig 12's
/// cells plus their Fig 13 repeat — must equal the serial loop at every
/// worker count, with each repeat replaying its twin's report. Under the
/// single-flight counting rule the first request per key is the miss and
/// every other one a hit, so both caches' counters are exact whether a
/// repeat finds its twin's report stored or coalesces onto its run.
#[test]
fn repeated_timeshare_points_replay_cached_reports_at_every_worker_count() {
    let tiling = Tiling::Static { tile: 32 };
    let serial = timeshare_sweep_serial(tiling, 7);
    for workers in [1usize, 2, 4, 8] {
        let svc = SweepService::new(workers);
        let mut units = timeshare_units(tiling, 7);
        units.extend(timeshare_units(tiling, 7));
        let results = svc.run_all(units).expect("timeshare batch runs");
        let reports: Vec<&Arc<SimReport>> = results
            .iter()
            .map(|r| match &r.report {
                UnitReport::Sim(report) => report,
                UnitReport::Serve(_) => panic!("timeshare points are sim units"),
            })
            .collect();
        let (fig12, fig13) = reports.split_at(serial.len());
        for ((s, first), repeat) in serial.iter().zip(fig12).zip(fig13) {
            let what = format!("workers={workers} (vs the serial loop)");
            assert_same_row(s, &timeshare_row(s.regions, first), &what);
            assert!(
                Arc::ptr_eq(first, repeat),
                "workers={workers}: the repeat at regions={} re-ran",
                s.regions
            );
        }
        assert_eq!(
            svc.reports().stats(),
            ReportCacheStats { hits: 6, misses: 6 },
            "workers={workers} report-cache counters moved"
        );
        assert_eq!(
            svc.cache().stats(),
            CacheStats {
                hits: 6,
                misses: 6,
                builds: 6,
                failures: 0
            },
            "workers={workers} plan-cache counters moved"
        );
    }
}

/// The quick serving cell (8 requests, mean inter-arrival 300 Mcycles,
/// chunk 16) through the service must reproduce the serial
/// [`ServeJob::run`] report bit-for-bit
/// ([`step_models::serving::ServeReport`] is `PartialEq` over every
/// simulated metric and counter), with the two phase plans (attention +
/// MoE) built exactly once and the warm rerun served entirely from cache.
///
/// Its scheduling counters are exact; its fires and channel runs have
/// budgets about 5% above the measured 11,980,447 and 4,957,268. Each
/// pass makes one QKV and one MoE report-cache request per iteration
/// (112): the cold split is a pure function of the trace, and the warm
/// pass hits on every request, leaving only attention on the engine
/// (measured 8,638 fires, budget 9,100). Both passes together must
/// elide at least 40% of the logical fire work, 12.0M fires per pass.
#[test]
fn serve_sweep_quick_matches_serial_and_pins_cache_counters() {
    let serial = serve_sweep_serial(true);
    let cell = &serial[0].report;
    assert_eq!(
        (
            cell.iterations.len(),
            cell.admitted_total,
            cell.evicted_total
        ),
        (56, 8, 8),
        "(iterations, admitted, evicted) moved"
    );
    let engine = (cell.total_fires, cell.chan_runs);
    assert!(
        engine.0 <= 12_600_000 && engine.1 <= 5_210_000,
        "(fires, channel runs) {engine:?} over budget (12,600,000, 5,210,000)"
    );
    for workers in [1usize, 2] {
        let svc = SweepService::new(workers);
        let rows = serve_sweep_on(&svc, true).expect("serve sweep runs");
        assert_eq!(rows.len(), serial.len());
        for (s, r) in serial.iter().zip(&rows) {
            assert_eq!(
                s.report, r.report,
                "workers={workers} serve cell (interarrival {:.0}, chunk {:?}) diverged",
                s.mean_interarrival, s.prefill_chunk
            );
        }
        assert_eq!(
            svc.cache().stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                builds: 2,
                failures: 0
            },
            "workers={workers}: quick cell must build exactly its two phase plans"
        );
        let warm = serve_sweep_on(&svc, true).expect("serve sweep runs");
        for (c, w) in rows.iter().zip(&warm) {
            assert_eq!(c.report, w.report, "workers={workers} warm rerun diverged");
        }
        assert_eq!(
            svc.cache().stats(),
            CacheStats {
                hits: 2,
                misses: 2,
                builds: 2,
                failures: 0
            },
            "workers={workers}: warm rerun must be all hits"
        );
        let (cold, warm) = (&rows[0].report, &warm[0].report);
        let split =
            |r: &step_models::serving::ServeReport| (r.report_cache.hits, r.report_cache.misses);
        assert_eq!(split(cold), (42, 70), "workers={workers}: cold split moved");
        assert_eq!(split(warm), (112, 0), "workers={workers}: warm split moved");
        assert!(
            warm.engine_fires <= 9_100,
            "workers={workers}: warm engine fires regressed: {} > budget 9,100",
            warm.engine_fires
        );
        let executed = cold.engine_fires + warm.engine_fires;
        assert!(
            executed * 10 <= 2 * 12_000_000 * 6,
            "workers={workers}: report cache elided <40% of fire work: executed {executed}"
        );
    }
}

/// Sim points and serve jobs interleaved in one batch stream back in
/// submission order with the right report types, and the serve job's
/// report equals a direct serial [`ServeJob::run`].
#[test]
fn mixed_sim_and_serve_batches_stream_in_submission_order() {
    let model = ModelConfig::mixtral_8x7b();
    let routing = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 16,
        skew: 0.8,
        seed: 7,
    });
    let sim_point = |label: &str, tile: u64| {
        let cfg = MoeCfg::new(model.clone(), Tiling::Static { tile });
        let routing = routing.clone();
        let mut fp = Fingerprint::new("bench.moe");
        fp.push_debug(&cfg).push_debug(&routing);
        SweepUnit::Sim(SimPoint {
            label: label.to_owned(),
            builder: fp.finish(),
            cfg: SimConfig::default(),
            build: Box::new(move || moe_graph(&cfg, &routing)),
            binding: None,
        })
    };
    let serve_job = ServeJob {
        label: "serve".to_owned(),
        model: model.clone(),
        variant: E2eVariant::static_schedule("Static (Perf-matched)", 32),
        trace: serve_trace(300_000_000.0, true),
        cfg: serve_cfg(Some(16)),
    };
    let baseline = serve_job.run().expect("serial serve run");

    let svc = SweepService::new(4);
    let results = svc
        .run_all(vec![
            sim_point("moe8", 8),
            SweepUnit::Serve(serve_job),
            sim_point("moe16", 16),
        ])
        .expect("mixed batch runs");
    assert_eq!(
        results.iter().map(|r| r.label.as_str()).collect::<Vec<_>>(),
        ["moe8", "serve", "moe16"],
        "results must stream in submission order"
    );
    assert!(results[0].report.sim().is_some());
    assert!(results[2].report.sim().is_some());
    let served = results[1].report.serve().expect("serve unit");
    assert_eq!(
        *served, baseline,
        "service-run serve job diverged from the serial ServeJob::run"
    );
}
