//! The `sweep` workload: the paper-figure points submitted one at a time
//! to a one-worker `SweepService`, every point built, frozen and run
//! once on a fresh service. The host's speed is probed between points,
//! while the worker waits for the next one.

use crate::fidelity::{self, TileCycles};
use crate::spans::Tracer;
use crate::speed::Clock;
use crate::{Counters, Round, Size, Workload, derive_seed};
use std::sync::Arc;
use std::time::Duration;
use step_bench::{PointResult, SimPoint, SweepService, SweepUnit, UnitFailure};
use step_core::{Graph, Result, StepError};
use step_models::ModelConfig;
use step_models::attention::{AttentionCfg, ParallelStrategy, attention_graph};
use step_models::moe::{MoeCfg, Tiling, moe_graph};
use step_models::swiglu::swiglu_graph;
use step_sim::{Fingerprint, SimConfig, SimReport};
use step_traces::{
    KvTraceConfig, RoutingConfig, RoutingTrace, Variability, expert_routing, kv_lengths,
};

/// A graph builder shared by every round's copy of a point.
pub type Build = Arc<dyn Fn() -> Result<Graph> + Send + Sync>;

/// One sweep point.
#[derive(Clone)]
pub struct Point {
    /// Label, carried into the digest.
    pub label: String,
    /// Fingerprint of the builder and all its inputs.
    pub builder: u64,
    /// Simulation config.
    pub cfg: SimConfig,
    /// Builds the point's graph.
    pub build: Build,
    /// Index of the earlier point this one repeats (Fig 13 repeats Fig
    /// 12's static(32) cells); both must return identical reports.
    pub repeats: Option<usize>,
    /// The Fig 8 tile this point simulates.
    pub swiglu: Option<(u64, u64)>,
}

/// The MoE routing trace every tiling and time-multiplexing point of one
/// model and batch shares.
fn routing(model: &ModelConfig, batch: usize, seed: u64) -> RoutingTrace {
    expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch,
        skew: 0.8,
        seed,
    })
}

/// An MoE point, fingerprinted the way the figure sweeps do it so equal
/// configurations resolve to one cached plan.
fn moe_point(label: String, cfg: MoeCfg, trace: RoutingTrace) -> Point {
    let mut fp = Fingerprint::new("bench.moe");
    fp.push_debug(&cfg).push_debug(&trace);
    Point {
        label,
        builder: fp.finish(),
        cfg: SimConfig {
            horizon_step: 512,
            ..SimConfig::default()
        },
        build: Arc::new(move || moe_graph(&cfg, &trace)),
        repeats: None,
        swiglu: None,
    }
}

/// Every point of the sweep, in submission order. The seed feeds the
/// MoE routing traces and the attention KV traces.
pub fn points(seed: u64, size: Size) -> Vec<Point> {
    let full = size == Size::Full;
    let mut out = Vec::new();
    let models = || [ModelConfig::mixtral_8x7b(), ModelConfig::qwen3_30b_a3b()];

    // Figs 9/10: static tiles plus dynamic tiling, batch 64 and 1024.
    let tiling_axes: &[(usize, &[u64])] = if full {
        &[(64, &[8, 16, 32, 64]), (1024, &[16, 64, 256, 1024])]
    } else {
        &[(64, &[64])]
    };
    for &(batch, tiles) in tiling_axes {
        for model in models() {
            let trace = routing(&model, batch, seed);
            let schedules = tiles
                .iter()
                .map(|&tile| Tiling::Static { tile })
                .chain([Tiling::Dynamic]);
            for tiling in schedules {
                out.push(moe_point(
                    format!("fig9/10 {} b{batch} {tiling}", model.name),
                    MoeCfg::new(model.clone(), tiling),
                    trace.clone(),
                ));
            }
        }
    }

    // Figs 12/13: Qwen time-multiplexing regions, plus Fig 13's repeat
    // of the static(32) column.
    let qwen = ModelConfig::qwen3_30b_a3b();
    let trace = routing(&qwen, 64, seed);
    let regions: &[u32] = if full { &[128, 64, 32, 16, 8, 4] } else { &[4] };
    let timeshare = |tiling: Tiling, r: u32| {
        let cfg = MoeCfg::new(qwen.clone(), tiling);
        if r == qwen.experts {
            cfg
        } else {
            cfg.with_regions(r)
        }
    };
    let mut static32 = Vec::new();
    for tiling in [Tiling::Static { tile: 32 }, Tiling::Dynamic] {
        for &r in regions {
            if tiling != Tiling::Dynamic {
                static32.push(out.len());
            }
            out.push(moe_point(
                format!("fig12 regions({r}) {tiling}"),
                timeshare(tiling, r),
                trace.clone(),
            ));
        }
    }
    for (&r, &twin) in regions.iter().zip(&static32) {
        let mut p = moe_point(
            format!("fig13 regions({r}) static(32)"),
            timeshare(Tiling::Static { tile: 32 }, r),
            trace.clone(),
        );
        p.repeats = Some(twin);
        out.push(p);
    }

    // Figs 14/15/21: attention strategies × KV variability × batch × KV
    // samples.
    let strategies = [
        ParallelStrategy::StaticCoarse { quota: 16 },
        ParallelStrategy::StaticInterleaved,
        ParallelStrategy::Dynamic,
    ];
    let all = Variability::all();
    let (batches, variabilities, samples): (&[usize], &[Variability], u64) = if full {
        (&[16, 64], &all, 3)
    } else {
        (&[16], &[Variability::High], 1)
    };
    for &batch in batches {
        for &variability in variabilities {
            for sample in 0..samples {
                let kv = kv_lengths(&KvTraceConfig {
                    batch,
                    variability,
                    median_len: 1024.0,
                    seed: derive_seed(seed, 0xA7 + sample),
                    ..KvTraceConfig::default()
                });
                for strategy in strategies {
                    if !full && strategy != ParallelStrategy::Dynamic {
                        continue;
                    }
                    let cfg = AttentionCfg::new(qwen.clone(), strategy);
                    let mut fp = Fingerprint::new("perfbench.attention");
                    fp.push_debug(&cfg).push_debug(&kv);
                    let kv = kv.clone();
                    out.push(Point {
                        label: format!("fig14/15/21 b{batch} {variability} kv{sample} {strategy}"),
                        builder: fp.finish(),
                        cfg: SimConfig::default(),
                        build: Arc::new(move || attention_graph(&cfg, &kv)),
                        repeats: None,
                        swiglu: None,
                    });
                }
            }
        }
    }

    // Fig 8: the SwiGLU validation tiles.
    for tile in fidelity::tiles(size) {
        let cfg = fidelity::swiglu_cfg(tile);
        let mut fp = Fingerprint::new("perfbench.swiglu");
        fp.push_debug(&cfg);
        out.push(Point {
            label: format!(
                "fig8 ({},{},{})",
                cfg.tile_batch, cfg.hidden, cfg.tile_inter
            ),
            builder: fp.finish(),
            cfg: SimConfig::validation(),
            build: Arc::new(move || swiglu_graph(&cfg)),
            repeats: None,
            swiglu: Some(tile),
        });
    }
    out
}

/// A point whose graph build always fails — for checking that an
/// erroring point counts as a failed unit.
pub fn failing_point(label: &str) -> Point {
    let msg = format!("{label}: injected build failure");
    Point {
        label: label.to_owned(),
        builder: 0xBAD,
        cfg: SimConfig::default(),
        build: Arc::new(move || Err(StepError::Config(msg.clone()))),
        repeats: None,
        swiglu: None,
    }
}

/// A point's simulated results as the digest records them: cycles,
/// off-chip traffic and on-chip bytes.
type Row = (u64, u64, u64);

/// The sweep workload.
pub struct Sweep {
    seed: u64,
    size: Size,
    extra: Vec<Point>,
    points: Vec<Point>,
    units: Vec<SweepUnit>,
    service: Option<SweepService>,
    /// The first round's rows, which later rounds must reproduce.
    first: Option<Vec<Option<Row>>>,
}

impl Sweep {
    /// The sweep for `seed` at `size`.
    pub fn new(seed: u64, size: Size) -> Sweep {
        Sweep::with_extra(seed, size, Vec::new())
    }

    /// The sweep plus `extra` points appended to every round.
    pub fn with_extra(seed: u64, size: Size, extra: Vec<Point>) -> Sweep {
        Sweep {
            seed,
            size,
            extra,
            points: Vec::new(),
            units: Vec::new(),
            service: None,
            first: None,
        }
    }
}

type UnitResult = std::result::Result<PointResult, UnitFailure>;

/// Submits one unit and waits for its result.
fn submit(svc: &SweepService, unit: SweepUnit) -> UnitResult {
    svc.submit(vec![unit])
        .next()
        .expect("a stream yields one result per unit")
}

/// [`submit`] under spans: the point's plan is checked out on this
/// thread first, so the worker's `wall_ms` covers the run alone.
fn submit_traced(
    svc: &SweepService,
    mut unit: SweepUnit,
    id: u64,
    tracer: &Arc<Tracer>,
) -> UnitResult {
    let id = Some(id);
    if let SweepUnit::Sim(p) = &mut unit {
        let mut inner = std::mem::replace(&mut p.build, Box::new(|| unreachable!()));
        let t = tracer.clone();
        p.build = Box::new(move || {
            let _s = t.span("models.build", id);
            inner()
        });
        let misses = svc.cache().stats().misses;
        let mut s = tracer.span("sim.plan", id);
        // A failed checkout fails the unit on the worker too.
        let _ = svc.cache().checkout(p.builder, &p.cfg, &mut p.build);
        if svc.cache().stats().misses == misses {
            s.rename("bench.plan_cache");
        }
    }
    let _s = tracer.span("bench.service", id);
    let r = submit(svc, unit);
    if let Ok(pr) = &r {
        tracer.record_child("sim.run", id, Duration::from_secs_f64(pr.wall_ms / 1e3));
    }
    r
}

/// A report minus the host-side run-state counters, which record how a
/// pooled worker materialized the run, not what it computed.
fn normalized(r: &SimReport) -> SimReport {
    SimReport {
        run_allocs: 0,
        pool_resets: 0,
        ..r.clone()
    }
}

impl Workload for Sweep {
    fn setup(&mut self) {
        self.points = points(self.seed, self.size);
        self.points.extend(self.extra.iter().cloned());
        self.units = self
            .points
            .iter()
            .map(|p| {
                let build = p.build.clone();
                SweepUnit::Sim(SimPoint {
                    label: p.label.clone(),
                    builder: p.builder,
                    cfg: p.cfg.clone(),
                    build: Box::new(move || build()),
                    binding: None,
                })
            })
            .collect();
        self.service = Some(SweepService::new(1));
    }

    fn round(&mut self, tracer: Option<&Arc<Tracer>>) -> Round {
        let svc = self.service.take().expect("round after set-up");
        let units = std::mem::take(&mut self.units);
        let round_span = tracer.map(|t| t.span("bench.round", None));
        let mut clock = Clock::start(tracer);
        let mut results = Vec::with_capacity(units.len());
        for (i, unit) in units.into_iter().enumerate() {
            results.push(match tracer {
                Some(t) => submit_traced(&svc, unit, i as u64, t),
                None => submit(&svc, unit),
            });
            clock.lap();
        }
        drop(round_span);
        let entries = svc.cache().len();
        drop(svc);

        let mut bad = vec![false; self.points.len()];
        let mut rows = vec![None; self.points.len()];
        let mut reports: Vec<Option<SimReport>> = vec![None; self.points.len()];
        let mut counters = Counters::new();
        for (i, r) in results.into_iter().enumerate() {
            let report = match r {
                Ok(PointResult { report, .. }) => report,
                Err(e) => {
                    eprintln!("failed: {e}");
                    bad[i] = true;
                    continue;
                }
            };
            let Some(rep) = report.sim() else {
                bad[i] = true;
                continue;
            };
            for (k, v) in [
                ("sim.fires", rep.total_fires()),
                ("sim.idle_fires", rep.idle_fires()),
                ("sim.chan_tokens", rep.chan_tokens),
                ("sim.chan_runs", rep.chan_runs),
                ("sim.fresh_states", rep.run_allocs),
                ("sim.pool_resets", rep.pool_resets),
            ] {
                *counters.entry(k).or_default() += v as f64;
            }
            rows[i] = Some((rep.cycles, rep.offchip_traffic, rep.onchip_memory));
            let twin = self.points.iter().any(|p| p.repeats == Some(i));
            if twin || self.points[i].repeats.is_some() {
                reports[i] = Some(normalized(rep));
            }
        }
        counters.insert("bench.plan_cache.entries", entries as f64);
        for (i, p) in self.points.iter().enumerate() {
            if let Some(twin) = p.repeats
                && reports[i].is_some()
                && reports[i] != reports[twin]
            {
                eprintln!(
                    "failed: {} differs from {}",
                    p.label, self.points[twin].label
                );
                bad[i] = true;
            }
        }
        match &self.first {
            None => self.first = Some(rows),
            Some(first) => {
                for (i, (a, b)) in first.iter().zip(&rows).enumerate() {
                    if a.is_some() && a != b {
                        eprintln!(
                            "failed: {} differs from the first round",
                            self.points[i].label
                        );
                        bad[i] = true;
                    }
                }
            }
        }
        Round {
            wall: clock.raw(),
            scaled: clock.scaled(),
            attempted: self.points.len() as u64,
            failed: bad.iter().filter(|&&b| b).count() as u64,
            counters,
        }
    }

    fn digest(&self) -> Vec<String> {
        let Some(first) = &self.first else {
            return Vec::new();
        };
        self.points
            .iter()
            .zip(first)
            .map(|(p, row)| match row {
                Some((c, t, o)) => format!(
                    "digest point {} | cycles {c} traffic {t} onchip {o}",
                    p.label
                ),
                None => format!("digest point {} | failed", p.label),
            })
            .collect()
    }

    fn swiglu_cycles(&self) -> Option<Vec<TileCycles>> {
        let first = self.first.as_ref()?;
        Some(
            self.points
                .iter()
                .zip(first)
                .filter_map(|(p, row)| {
                    p.swiglu.map(|tile| TileCycles {
                        tile,
                        cycles: row.map(|r| r.0),
                    })
                })
                .collect(),
        )
    }
}
