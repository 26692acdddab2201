//! The experiment suite: one function per paper figure.
//!
//! Every function is deterministic (seeded traces), prints an aligned
//! table, writes a CSV under `results/`, and returns its rows so
//! integration tests can assert the paper's qualitative claims.

use crate::pareto::{Point, pareto_front, pid};
use crate::roofline::fig1_bars;
use crate::service::{SimPoint, SweepService, SweepUnit, UnitFailure};
use crate::table::{f2, f3, print_table, write_csv};
use step_hdl::{RefConfig, mape, pearson, simulate_swiglu};
use step_models::ModelConfig;
use step_models::attention::{AttentionCfg, ParallelStrategy, attention_graph};
use step_models::e2e::{E2eVariant, run_e2e};
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_models::phases::moe_sim_config;
use step_models::serving::{Percentiles, ServeCfg, ServeJob, ServeReport};
use step_models::swiglu::{SwigluCfg, swiglu_graph};
use step_sim::{Fingerprint, SimConfig, SimPlan, SimReport};
use step_traces::{
    ArrivalConfig, ArrivalPattern, KvTraceConfig, LenDist, RoutingConfig, RoutingTrace,
    Variability, arrival_trace, expert_routing, kv_lengths,
};

fn run(graph: step_core::Graph, cfg: SimConfig) -> SimReport {
    SimPlan::new(graph, cfg)
        .expect("graph is executable")
        .run()
        .expect("simulation completes")
}

/// Unwraps a sweep result for the figure binaries: a failed unit exits
/// the process nonzero with a one-line error naming the failing sweep
/// point, instead of a panic backtrace.
fn sweep_or_exit<T>(rows: std::result::Result<T, UnitFailure>) -> T {
    rows.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// One MoE sweep cell as a schedulable [`SweepUnit`]. The builder
/// fingerprint covers everything `moe_graph` consumes — the full
/// `MoeCfg` (model, tiling, regions) and the routing trace — so equal
/// fingerprints really are interchangeable plans, and e.g. Fig 12's
/// static(32) column and Fig 13 resolve to the *same* cached plans.
fn moe_point(label: String, cfg: MoeCfg, trace: RoutingTrace) -> SweepUnit {
    let mut fp = Fingerprint::new("bench.moe");
    fp.push_debug(&cfg).push_debug(&trace);
    let builder = fp.finish();
    SweepUnit::Sim(SimPoint {
        label,
        builder,
        cfg: moe_sim_config(),
        build: Box::new(move || moe_graph(&cfg, &trace)),
        binding: None,
    })
}

// ---------------------------------------------------------------------
// Fig 1
// ---------------------------------------------------------------------

/// Fig 1: effective bandwidth of GPUs vs SDAs (published inputs, roofline
/// arithmetic).
pub fn fig1() -> Vec<Vec<String>> {
    let rows: Vec<Vec<String>> = fig1_bars()
        .iter()
        .map(|b| {
            vec![
                b.workload.to_string(),
                b.platform.to_string(),
                f2(b.peak_tbps),
                f2(b.fraction * 100.0),
                f2(b.effective_tbps()),
            ]
        })
        .collect();
    let header = [
        "workload",
        "platform",
        "peak TB/s",
        "% of peak",
        "effective TB/s",
    ];
    print_table("Fig 1: SDA vs GPU effective bandwidth", &header, &rows);
    write_csv("fig1", &header, &rows);
    rows
}

// ---------------------------------------------------------------------
// Fig 8
// ---------------------------------------------------------------------

/// One Fig 8 sweep point.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// (batch tile, hidden, intermediate tile).
    pub tiles: (u64, u64, u64),
    /// Cycle-approximate STeP simulator cycles.
    pub step_cycles: u64,
    /// Fine-grained reference simulator cycles.
    pub ref_cycles: u64,
    /// Off-chip traffic measured by the STeP simulator (bytes).
    pub step_traffic: u64,
    /// Off-chip traffic measured by the reference (bytes).
    pub ref_traffic: u64,
}

/// Fig 8: simulator validation — SwiGLU tile sweep, STeP simulator vs the
/// fine-grained reference, with the Pearson correlation of cycle counts.
pub fn fig8() -> (Vec<Fig8Row>, f64) {
    let mut rows = Vec::new();
    for tb in [16u64, 32, 64] {
        for ti in [16u64, 32, 64, 128, 256] {
            let cfg = SwigluCfg::validation(tb, ti);
            let report = run(
                swiglu_graph(&cfg).expect("valid tiles"),
                SimConfig::validation(),
            );
            let reference = simulate_swiglu(&cfg, &RefConfig::default());
            rows.push(Fig8Row {
                tiles: (tb, 256, ti),
                step_cycles: report.cycles,
                ref_cycles: reference.cycles,
                step_traffic: report.offchip_traffic,
                ref_traffic: reference.offchip_bytes,
            });
        }
    }
    let xs: Vec<f64> = rows.iter().map(|r| r.step_cycles as f64).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.ref_cycles as f64).collect();
    let r = pearson(&xs, &ys);
    let (mape_pct, worst, worst_pct) = mape(&xs, &ys);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|x| {
            vec![
                format!("({},{},{})", x.tiles.0, x.tiles.1, x.tiles.2),
                x.step_cycles.to_string(),
                x.ref_cycles.to_string(),
                f2(x.step_traffic as f64 / 1e6),
                f2(x.ref_traffic as f64 / 1e6),
            ]
        })
        .collect();
    let header = ["tile", "step cycles", "ref cycles", "step MB", "ref MB"];
    print_table("Fig 8: simulator validation (SwiGLU)", &header, &table);
    println!("Pearson r (cycles) = {}", f3(r));
    let (tb, hidden, ti) = rows[worst].tiles;
    println!(
        "MAPE (cycles) = {}%, worst {}% at ({tb},{hidden},{ti})",
        f3(mape_pct),
        f2(worst_pct)
    );
    write_csv("fig8", &header, &table);
    (rows, r)
}

// ---------------------------------------------------------------------
// Fig 9 / 10 / 19 / 20: dynamic tiling
// ---------------------------------------------------------------------

/// One tiling design point.
#[derive(Debug, Clone)]
pub struct TilingRow {
    /// Model name.
    pub model: &'static str,
    /// Schedule label ("static(8)", "dynamic").
    pub schedule: String,
    /// Latency in cycles.
    pub cycles: u64,
    /// Measured on-chip memory (bytes).
    pub onchip: u64,
    /// Off-chip traffic (bytes).
    pub traffic: u64,
}

/// The schedule axis of one tiling sweep: the static tile sizes plus
/// dynamic tiling.
fn tiling_schedules(tiles: &[u64]) -> Vec<Tiling> {
    let mut schedules: Vec<Tiling> = tiles.iter().map(|&t| Tiling::Static { tile: t }).collect();
    schedules.push(Tiling::Dynamic);
    schedules
}

/// Runs the static-tile sweep plus dynamic tiling for one model and
/// batch (Figs 9/10 use batch 64/1024; Figs 19/20 read the traffic
/// column of the same runs), on the process-wide [`SweepService`]:
/// points run concurrently and their plans land in the shared cache.
pub fn tiling_sweep(
    model: ModelConfig,
    batch: usize,
    tiles: &[u64],
    seed: u64,
) -> std::result::Result<Vec<TilingRow>, UnitFailure> {
    tiling_sweep_on(SweepService::global(), model, batch, tiles, seed)
}

/// [`tiling_sweep`] on an explicit service (conformance tests pass
/// fixed-worker services).
///
/// # Errors
///
/// The first failed sweep unit, labelled with its point.
pub fn tiling_sweep_on(
    svc: &SweepService,
    model: ModelConfig,
    batch: usize,
    tiles: &[u64],
    seed: u64,
) -> std::result::Result<Vec<TilingRow>, UnitFailure> {
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch,
        skew: 0.8,
        seed,
    });
    let units: Vec<SweepUnit> = tiling_schedules(tiles)
        .into_iter()
        .map(|tiling| {
            moe_point(
                tiling.to_string(),
                MoeCfg::new(model.clone(), tiling),
                trace.clone(),
            )
        })
        .collect();
    let results = svc.run_all(units)?;
    Ok(results
        .into_iter()
        .map(|r| {
            let report = r.report.sim().expect("tiling points are sim units");
            TilingRow {
                model: model.name,
                schedule: r.label,
                cycles: report.cycles,
                onchip: report.onchip_memory,
                traffic: report.offchip_traffic,
            }
        })
        .collect())
}

/// Prints/writes one tiling figure and returns the dynamic point's PID
/// versus the static frontier.
pub fn report_tiling(figname: &str, rows: &[TilingRow]) -> f64 {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.to_string(),
                r.schedule.clone(),
                r.cycles.to_string(),
                r.onchip.to_string(),
                r.traffic.to_string(),
            ]
        })
        .collect();
    let header = ["model", "schedule", "cycles", "onchip B", "traffic B"];
    print_table(figname, &header, &table);
    write_csv(figname, &header, &table);
    let static_points: Vec<Point> = rows
        .iter()
        .filter(|r| r.schedule.starts_with("static"))
        .map(|r| Point::new(r.cycles as f64, r.onchip as f64))
        .collect();
    let front = pareto_front(&static_points);
    let dynamic = rows
        .iter()
        .find(|r| r.schedule == "dynamic")
        .expect("dynamic row present");
    let v = pid(
        Point::new(dynamic.cycles as f64, dynamic.onchip as f64),
        &front,
    );
    println!("PID(dynamic vs static frontier) = {}", f2(v));
    v
}

// ---------------------------------------------------------------------
// Fig 12 / 13: configuration time-multiplexing
// ---------------------------------------------------------------------

/// One time-multiplexing design point.
#[derive(Debug, Clone)]
pub struct TimeshareRow {
    /// Parallel regions (experts/region = experts / regions).
    pub regions: u32,
    /// Latency in cycles.
    pub cycles: u64,
    /// Compute utilization (fraction).
    pub compute_util: f64,
    /// Allocated compute (FLOPs/cycle).
    pub allocated_compute: u64,
    /// Measured on-chip memory (bytes).
    pub onchip: u64,
    /// Off-chip bandwidth utilization (fraction).
    pub bw_util: f64,
}

/// The Fig 12/13 region axis.
const TIMESHARE_REGIONS: [u32; 6] = [128, 64, 32, 16, 8, 4];

/// One Fig 12/13 cell's `MoeCfg` (`regions == experts` is the untimed
/// baseline and takes no region override).
fn timeshare_cfg(model: &ModelConfig, tiling: Tiling, regions: u32) -> MoeCfg {
    if regions == model.experts {
        MoeCfg::new(model.clone(), tiling)
    } else {
        MoeCfg::new(model.clone(), tiling).with_regions(regions)
    }
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

/// Figs 12/13: sweep the number of regions sharing a configuration for
/// the Qwen3-30B-A3B MoE layer (batch 64), on the process-wide
/// [`SweepService`]. Fig 12's static(32) column and Fig 13 submit
/// identical cells, so whichever runs second replays every report from
/// the service's report cache without running the engine.
pub fn timeshare_sweep(
    tiling: Tiling,
    seed: u64,
) -> std::result::Result<Vec<TimeshareRow>, UnitFailure> {
    timeshare_sweep_on(SweepService::global(), tiling, seed)
}

/// [`timeshare_sweep`] on an explicit service.
///
/// # Errors
///
/// The first failed sweep unit, labelled with its point.
pub fn timeshare_sweep_on(
    svc: &SweepService,
    tiling: Tiling,
    seed: u64,
) -> std::result::Result<Vec<TimeshareRow>, UnitFailure> {
    let results = svc.run_all(timeshare_units(tiling, seed))?;
    Ok(TIMESHARE_REGIONS
        .iter()
        .zip(&results)
        .map(|(&regions, r)| {
            timeshare_row(
                regions,
                r.report.sim().expect("timeshare points are sim units"),
            )
        })
        .collect())
}

/// The Fig 12/13 cells of `tiling` as sweep units, in region-axis order
/// (128, 64, 32, 16, 8, 4 regions).
pub fn timeshare_units(tiling: Tiling, seed: u64) -> Vec<SweepUnit> {
    let model = ModelConfig::qwen3_30b_a3b();
    let trace = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: 64,
        skew: 0.8,
        seed,
    });
    TIMESHARE_REGIONS
        .iter()
        .map(|&regions| {
            moe_point(
                format!("regions({regions})"),
                timeshare_cfg(&model, tiling, regions),
                trace.clone(),
            )
        })
        .collect()
}

/// Prints/writes Fig 12 (utilization + cycles) or Fig 13 (resources).
pub fn report_timeshare(figname: &str, rows: &[TimeshareRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.regions.to_string(),
                (128 / r.regions).to_string(),
                r.cycles.to_string(),
                f3(r.compute_util * 100.0),
                r.allocated_compute.to_string(),
                r.onchip.to_string(),
                f3(r.bw_util * 100.0),
            ]
        })
        .collect();
    let header = [
        "regions",
        "experts/region",
        "cycles",
        "compute util %",
        "alloc FLOPs/cyc",
        "onchip B",
        "offchip BW %",
    ];
    print_table(figname, &header, &table);
    write_csv(figname, &header, &table);
}

// ---------------------------------------------------------------------
// Figure entry points (single home for each figure's sweep parameters;
// the `fig*` binaries and `fig_all` all call these)
// ---------------------------------------------------------------------

/// Fig 9 (+ the traffic view of Fig 19): dynamic-tiling Pareto at batch
/// 64 for both models. Returns the two models' rows.
pub fn fig9() -> (Vec<TilingRow>, Vec<TilingRow>) {
    let mixtral = sweep_or_exit(tiling_sweep(
        ModelConfig::mixtral_8x7b(),
        64,
        &[8, 16, 32, 64],
        7,
    ));
    report_tiling("fig9_mixtral_b64", &mixtral);
    let qwen = sweep_or_exit(tiling_sweep(
        ModelConfig::qwen3_30b_a3b(),
        64,
        &[8, 16, 32, 64],
        7,
    ));
    report_tiling("fig9_qwen_b64", &qwen);
    (mixtral, qwen)
}

/// Fig 10 (+ the traffic view of Fig 20): dynamic-tiling Pareto at batch
/// 1024 for both models.
pub fn fig10() -> (Vec<TilingRow>, Vec<TilingRow>) {
    let mixtral = sweep_or_exit(tiling_sweep(
        ModelConfig::mixtral_8x7b(),
        1024,
        &[16, 64, 256, 1024],
        7,
    ));
    report_tiling("fig10_mixtral_b1024", &mixtral);
    let qwen = sweep_or_exit(tiling_sweep(
        ModelConfig::qwen3_30b_a3b(),
        1024,
        &[16, 64, 256, 1024],
        7,
    ));
    report_tiling("fig10_qwen_b1024", &qwen);
    (mixtral, qwen)
}

/// Fig 12: configuration time-multiplexing under static(32) and dynamic
/// tiling.
pub fn fig12() -> (Vec<TimeshareRow>, Vec<TimeshareRow>) {
    let stat = sweep_or_exit(timeshare_sweep(Tiling::Static { tile: 32 }, 7));
    report_timeshare("fig12_static_tiling", &stat);
    let dynamic = sweep_or_exit(timeshare_sweep(Tiling::Dynamic, 7));
    report_timeshare("fig12_dynamic_tiling", &dynamic);
    (stat, dynamic)
}

/// Fig 13: time-multiplexing resource usage (static(32) tiling).
pub fn fig13() -> Vec<TimeshareRow> {
    let rows = sweep_or_exit(timeshare_sweep(Tiling::Static { tile: 32 }, 7));
    report_timeshare("fig13", &rows);
    rows
}

// ---------------------------------------------------------------------
// Fig 14 / 15 / 21: dynamic parallelization
// ---------------------------------------------------------------------

/// Latency of one attention configuration.
pub fn attention_latency(
    model: &ModelConfig,
    strategy: ParallelStrategy,
    batch: usize,
    variability: Variability,
    seed: u64,
) -> u64 {
    let kv = kv_lengths(&KvTraceConfig {
        batch,
        variability,
        median_len: 1024.0,
        seed,
        ..KvTraceConfig::default()
    });
    let cfg = AttentionCfg::new(model.clone(), strategy);
    run(
        attention_graph(&cfg, &kv).expect("valid attention"),
        SimConfig::default(),
    )
    .cycles
}

/// Fig 14: dynamic vs static interleaved across KV-length variability
/// (batch 64, geometric mean of three sampled batches per class).
pub fn fig14() -> Vec<(Variability, f64)> {
    let model = ModelConfig::qwen3_30b_a3b();
    let mut out = Vec::new();
    for v in Variability::all() {
        let mut ratio = 1.0f64;
        let seeds = [11u64, 23, 37];
        for &s in &seeds {
            let inter = attention_latency(&model, ParallelStrategy::StaticInterleaved, 64, v, s);
            let dynamic = attention_latency(&model, ParallelStrategy::Dynamic, 64, v, s);
            ratio *= inter as f64 / dynamic as f64;
        }
        out.push((v, ratio.powf(1.0 / seeds.len() as f64)));
    }
    let table: Vec<Vec<String>> = out
        .iter()
        .map(|(v, s)| vec![v.to_string(), f2(*s)])
        .collect();
    let header = ["KV var", "dyn speedup vs interleaved"];
    print_table(
        "Fig 14: dynamic parallelization vs interleaved",
        &header,
        &table,
    );
    write_csv("fig14", &header, &table);
    out
}

/// Fig 15: dynamic vs static coarse-grained (quota 16) across batch
/// sizes.
pub fn fig15() -> Vec<(usize, u64, u64)> {
    let model = ModelConfig::qwen3_30b_a3b();
    let mut out = Vec::new();
    for batch in [16usize, 32, 48, 64] {
        let coarse = attention_latency(
            &model,
            ParallelStrategy::StaticCoarse { quota: 16 },
            batch,
            Variability::Medium,
            42,
        );
        let dynamic = attention_latency(
            &model,
            ParallelStrategy::Dynamic,
            batch,
            Variability::Medium,
            42,
        );
        out.push((batch, coarse, dynamic));
    }
    let table: Vec<Vec<String>> = out
        .iter()
        .map(|(b, c, d)| {
            vec![
                b.to_string(),
                c.to_string(),
                d.to_string(),
                f2(*c as f64 / *d as f64),
            ]
        })
        .collect();
    let header = ["batch", "coarse cycles", "dynamic cycles", "speedup"];
    print_table("Fig 15: coarse vs dynamic across batch", &header, &table);
    write_csv("fig15", &header, &table);
    out
}

/// Fig 21: normalized performance of all three strategies across batch
/// classes and variability (geomean of three batches each, relative to
/// dynamic).
pub fn fig21() -> Vec<Vec<String>> {
    let model = ModelConfig::qwen3_30b_a3b();
    let seeds = [11u64, 23, 37];
    let mut rows = Vec::new();
    for batch in [16usize, 64] {
        for v in Variability::all() {
            let mut coarse = 1.0f64;
            let mut inter = 1.0f64;
            for &s in &seeds {
                let d = attention_latency(&model, ParallelStrategy::Dynamic, batch, v, s) as f64;
                coarse *= attention_latency(
                    &model,
                    ParallelStrategy::StaticCoarse { quota: 16 },
                    batch,
                    v,
                    s,
                ) as f64
                    / d;
                inter *= attention_latency(&model, ParallelStrategy::StaticInterleaved, batch, v, s)
                    as f64
                    / d;
            }
            let n = seeds.len() as f64;
            rows.push(vec![
                format!("B={batch}"),
                v.to_string(),
                f2(coarse.powf(1.0 / n)),
                f2(inter.powf(1.0 / n)),
                "1.00".to_string(),
            ]);
        }
    }
    let header = [
        "batch",
        "KV var",
        "coarse (norm)",
        "interleave (norm)",
        "dynamic",
    ];
    print_table(
        "Fig 21: parallelization ablation (cycles / dynamic)",
        &header,
        &rows,
    );
    write_csv("fig21", &header, &rows);
    rows
}

// ---------------------------------------------------------------------
// Fig 17: end-to-end
// ---------------------------------------------------------------------

/// Fig 17: end-to-end Qwen3-30B-A3B and Mixtral-8x7B under
/// memory-matched static, performance-matched static, and dynamic
/// schedules.
pub fn fig17() -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for (model, mem_tile, perf_tile, dyn_regions) in [
        (ModelConfig::mixtral_8x7b(), 16u64, 32u64, None),
        (ModelConfig::qwen3_30b_a3b(), 8, 64, Some(32u32)),
    ] {
        let variants = [
            E2eVariant::static_schedule("Static (Mem-matched)", mem_tile),
            E2eVariant::static_schedule("Static (Perf-matched)", perf_tile),
            E2eVariant::dynamic_schedule(dyn_regions),
        ];
        let reports: Vec<_> = variants
            .iter()
            .map(|v| run_e2e(&model, 64, v, 7).expect("e2e runs"))
            .collect();
        let base = reports[0].total_cycles as f64;
        for (v, r) in variants.iter().zip(&reports) {
            rows.push(vec![
                model.name.to_string(),
                v.name.clone(),
                r.total_cycles.to_string(),
                f2(base / r.total_cycles as f64),
                f2(r.onchip_bytes as f64 / 1e6),
                (r.allocated_compute / 1000).to_string(),
            ]);
        }
    }
    let header = [
        "model",
        "schedule",
        "total cycles",
        "speedup vs mem-matched",
        "onchip MB",
        "alloc KFLOPs/cyc",
    ];
    print_table("Fig 17: end-to-end models", &header, &rows);
    write_csv("fig17", &header, &rows);
    rows
}

// ---------------------------------------------------------------------
// Serving sweep: continuous batching under offered load
// ---------------------------------------------------------------------

/// One serving design point: an offered load × prefill-chunking cell.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Mean inter-arrival time of the trace, cycles.
    pub mean_interarrival: f64,
    /// Prefill chunk cap (`None` = unchunked).
    pub prefill_chunk: Option<u32>,
    /// The full serving report for this cell.
    pub report: ServeReport,
}

/// The serving sweep's arrival trace: Poisson arrivals with log-normal
/// prompt/output lengths, sized down in `quick` mode so CI can afford
/// the row.
pub fn serve_trace(mean_interarrival: f64, quick: bool) -> step_traces::RequestTrace {
    arrival_trace(&ArrivalConfig {
        requests: if quick { 8 } else { 16 },
        mean_interarrival,
        pattern: ArrivalPattern::Poisson,
        prompt: LenDist::new(192.0, 0.5, 32, 512),
        output: LenDist::new(if quick { 4.0 } else { 12.0 }, 0.5, 2, 24),
        seed: 7,
    })
}

/// The serving sweep's driver configuration.
pub fn serve_cfg(prefill_chunk: Option<u32>) -> ServeCfg {
    ServeCfg {
        slots: 4,
        token_budget: 64,
        prefill_chunk,
        skew: 0.8,
        seed: 7,
        ..ServeCfg::default()
    }
}

/// The serving sweep's cell axis, in row order: offered load (mean
/// inter-arrival, cycles) × prefill chunking.
pub fn serve_axis(quick: bool) -> Vec<(f64, Option<u32>)> {
    let loads: &[f64] = if quick {
        &[300_000_000.0]
    } else {
        &[5_000_000_000.0, 1_200_000_000.0, 300_000_000.0]
    };
    let chunks: &[Option<u32>] = if quick {
        &[Some(16)]
    } else {
        &[None, Some(16)]
    };
    let mut axis = Vec::new();
    for &mean in loads {
        for &chunk in chunks {
            axis.push((mean, chunk));
        }
    }
    axis
}

/// One serving sweep cell as a schedulable [`ServeJob`].
fn serve_job(mean: f64, chunk: Option<u32>, quick: bool) -> ServeJob {
    ServeJob {
        label: format!(
            "serve interarrival {:.0}Mcyc chunk {}",
            mean / 1e6,
            chunk.map_or("none".to_string(), |c| c.to_string())
        ),
        model: ModelConfig::mixtral_8x7b(),
        variant: E2eVariant::static_schedule("Static (Perf-matched)", 32),
        trace: serve_trace(mean, quick),
        cfg: serve_cfg(chunk),
    }
}

/// The serving sweep: Mixtral-8x7B decode served under continuous
/// batching across an offered-load axis, with and without chunked
/// prefill, on the process-wide [`SweepService`] (cells run
/// concurrently; all cells share one cached attention plan and one
/// cached MoE plan per trace envelope). Reports TTFT/TPOT percentiles,
/// goodput vs offered load, and HBM pressure. `quick` shrinks the trace
/// and load axis for CI.
///
/// The load axis straddles the measured serving capacity (~1 request
/// per Gcycle at these slot/length settings): 5 Gcycles mean
/// inter-arrival is comfortably underloaded, 1.2 Gcycles is near
/// capacity, 0.3 Gcycles saturates — so the goodput column tracks the
/// offered column until the knee, then flattens while TTFT blows up
/// (queueing delay), the classic serving curve.
pub fn serve_sweep(quick: bool) -> std::result::Result<Vec<ServeRow>, UnitFailure> {
    serve_sweep_on(SweepService::global(), quick)
}

/// [`serve_sweep`] on an explicit service.
///
/// # Errors
///
/// The first failed sweep unit, labelled with its point.
pub fn serve_sweep_on(
    svc: &SweepService,
    quick: bool,
) -> std::result::Result<Vec<ServeRow>, UnitFailure> {
    let axis = serve_axis(quick);
    let units: Vec<SweepUnit> = axis
        .iter()
        .map(|&(mean, chunk)| SweepUnit::Serve(serve_job(mean, chunk, quick)))
        .collect();
    let results = svc.run_all(units)?;
    Ok(axis
        .into_iter()
        .zip(results)
        .map(|((mean, chunk), r)| {
            let report = r
                .report
                .serve()
                .expect("serve cells are serve units")
                .clone();
            assert!(!report.truncated, "serving sweep cell did not drain");
            ServeRow {
                mean_interarrival: mean,
                prefill_chunk: chunk,
                report,
            }
        })
        .collect())
}

/// Prints/writes the serving sweep table.
pub fn report_serve(figname: &str, rows: &[ServeRow]) {
    // Mixtral iterations cost ~150 Mcycles, so latencies print in
    // Mcycles and rates per Gcycle to keep the table readable. An empty
    // percentile population (e.g. no multi-token outputs for TPOT)
    // prints "n/a" — it is not a zero latency.
    let mc = |p: &Option<Percentiles>, get: fn(&Percentiles) -> f64| {
        p.as_ref()
            .map_or_else(|| "n/a".to_string(), |p| f2(get(p) / 1e6))
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let rep = &r.report;
            vec![
                format!("{:.0}", r.mean_interarrival / 1e6),
                r.prefill_chunk
                    .map_or("none".to_string(), |c| c.to_string()),
                f2(rep.offered_per_mcycle * 1e3),
                f2(rep.goodput_per_mcycle * 1e3),
                mc(&rep.ttft, |p| p.p50),
                mc(&rep.ttft, |p| p.p95),
                mc(&rep.ttft, |p| p.p99),
                mc(&rep.tpot, |p| p.p50),
                mc(&rep.tpot, |p| p.p95),
                mc(&rep.tpot, |p| p.p99),
                f2(rep.hbm_bytes_per_cycle),
                f2(rep.hbm_utilization * 100.0),
                rep.iterations.len().to_string(),
                rep.admitted_total.to_string(),
            ]
        })
        .collect();
    let header = [
        "interarrival Mcyc",
        "chunk",
        "offered/Gcyc",
        "goodput/Gcyc",
        "ttft p50 Mcyc",
        "ttft p95 Mcyc",
        "ttft p99 Mcyc",
        "tpot p50 Mcyc",
        "tpot p95 Mcyc",
        "tpot p99 Mcyc",
        "HBM B/cyc",
        "HBM util %",
        "iters",
        "admitted",
    ];
    print_table(figname, &header, &table);
    write_csv(figname, &header, &table);
}

/// Table 1 (qualitative): the abstraction landscape.
pub fn landscape() {
    let rows: Vec<Vec<String>> = [
        ("Spatial", "no", "no", "yes", "no", "no"),
        ("Revet", "no", "no", "yes", "limited", "no"),
        ("StreamIt", "yes", "yes", "no", "no", "no"),
        ("SAM", "yes", "no", "no", "limited", "limited"),
        ("Ripple", "yes", "no", "no", "yes", "no"),
        ("STeP", "yes", "yes", "yes", "yes", "yes"),
    ]
    .iter()
    .map(|(a, b, c, d, e, f)| {
        vec![
            a.to_string(),
            b.to_string(),
            c.to_string(),
            d.to_string(),
            e.to_string(),
            f.to_string(),
        ]
    })
    .collect();
    let header = [
        "abstraction",
        "dataflow",
        "explicit rate",
        "explicit mem hierarchy",
        "dyn routing/merge",
        "dyn on-chip tiling",
    ];
    print_table("Table 1: programming-abstraction landscape", &header, &rows);
    write_csv("table1", &header, &rows);
}
