//! The `replay` workload: Mixtral-8x7B served under continuous batching
//! through `ServeJob::run_memo`, with the plan and report caches owned by
//! the benchmark, as a service worker owns them.

use crate::spans::Tracer;
use crate::speed::Clock;
use crate::{Counters, Round, Size, Workload};
use std::sync::Arc;
use step_bench::PlanCache;
use step_core::{Graph, Result};
use step_models::ModelConfig;
use step_models::e2e::E2eVariant;
use step_models::serving::{PlanSource, ServeCfg, ServeJob, ServeReport};
use step_sim::{ReportCache, SimConfig, SimPlan};
use step_traces::{ArrivalConfig, ArrivalPattern, LenDist, RequestTrace, arrival_trace};

/// Mean inter-arrival of the trace, cycles: the serving sweep's
/// saturating load.
const MEAN_INTERARRIVAL: f64 = 300_000_000.0;
/// Warm passes per `replay` round: enough that a round's 90th
/// percentile has more than ten passes beyond it.
const REPLAY_PASSES: usize = 128;

/// Requests in the arrival trace.
fn requests(size: Size) -> usize {
    match size {
        Size::Full => 8,
        Size::Smoke => 1,
    }
}

/// The serving sweep's quick-cell arrival trace: Poisson arrivals at a
/// saturating 300 Mcycle mean, log-normal prompts around 192 tokens and
/// outputs around 4, under the serving sweep's own seed. It is the same
/// for every run: seeding it moved the work itself (69 to 86 serving
/// iterations across seeds), which would swamp any host-time change.
/// The run's seed feeds the per-iteration routing samples instead.
fn trace(size: Size) -> RequestTrace {
    arrival_trace(&ArrivalConfig {
        requests: requests(size),
        mean_interarrival: MEAN_INTERARRIVAL,
        pattern: ArrivalPattern::Poisson,
        prompt: LenDist::new(192.0, 0.5, 32, 512),
        output: LenDist::new(4.0, 0.5, 2, 24),
        seed: 7,
    })
}

/// The serving cell: Mixtral-8x7B under `static_schedule(32)`, 4 slots,
/// a 64-token budget, prefill chunked at 16 tokens. The seed feeds the
/// per-iteration MoE routing samples.
fn job(seed: u64, size: Size) -> ServeJob {
    ServeJob {
        label: "serve chunk 16".into(),
        model: ModelConfig::mixtral_8x7b(),
        variant: E2eVariant::static_schedule("Static (Perf-matched)", 32),
        trace: trace(size),
        cfg: ServeCfg {
            slots: 4,
            token_budget: 64,
            prefill_chunk: Some(16),
            skew: 0.8,
            seed,
            threads: 1,
            ..ServeCfg::default()
        },
    }
}

/// A `PlanSource` over the benchmark's plan cache that records a span
/// per checkout (`sim.plan` on a miss, `bench.plan_cache` on a hit) and
/// per graph-build closure (`models.build`).
struct TimedPlans<'a> {
    cache: &'a PlanCache,
    tracer: &'a Tracer,
    unit: Option<u64>,
}

impl PlanSource for TimedPlans<'_> {
    fn plan(
        &self,
        fingerprint: u64,
        cfg: &SimConfig,
        build: &mut dyn FnMut() -> Result<Graph>,
    ) -> Result<Arc<SimPlan>> {
        let misses = self.cache.stats().misses;
        let mut span = self.tracer.span("sim.plan", self.unit);
        let mut timed = || {
            let _s = self.tracer.span("models.build", self.unit);
            build()
        };
        let plan = self.cache.checkout(fingerprint, cfg, &mut timed);
        if self.cache.stats().misses == misses {
            span.rename("bench.plan_cache");
        }
        plan
    }
}

/// Caches one benchmark client owns across its jobs.
struct Caches {
    plans: PlanCache,
    reports: ReportCache,
}

impl Caches {
    fn new() -> Caches {
        Caches {
            plans: PlanCache::new(),
            reports: ReportCache::new(),
        }
    }

    /// Runs `job` against the caches, under a `models.serving` span and
    /// through the timing plan source when traced.
    fn run(&self, job: &ServeJob, tracer: Option<&Arc<Tracer>>, unit: u64) -> Result<ServeReport> {
        match tracer {
            Some(t) => {
                let _s = t.span("models.serving", Some(unit));
                let plans = TimedPlans {
                    cache: &self.plans,
                    tracer: t,
                    unit: Some(unit),
                };
                job.run_memo(&plans, &self.reports)
            }
            None => job.run_memo(&self.plans, &self.reports),
        }
    }
}

/// Adds a serving report's counts to `counters`.
fn count_job(counters: &mut Counters, r: &ServeReport) {
    for (k, v) in [
        ("models.serving.iterations", r.iterations.len() as u64),
        ("models.serving.engine_fires", r.engine_fires),
        ("models.serving.logical_fires", r.total_fires),
    ] {
        *counters.entry(k).or_default() += v as f64;
    }
}

/// A job's simulated results as the digest records them.
fn digest_line(label: &str, r: &ServeReport) -> String {
    let pct = |p: &Option<step_models::serving::Percentiles>| {
        p.map_or("n/a".to_string(), |p| {
            format!("{}/{}/{}", p.p50, p.p95, p.p99)
        })
    };
    format!(
        "digest job {label} | total_cycles {} ttft {} tpot {}",
        r.total_cycles,
        pct(&r.ttft),
        pct(&r.tpot)
    )
}

/// The `replay` workload: the chunked cell re-served back to back
/// against the caches its cold pass filled during set-up. Every QKV and
/// MoE request hits, so the engine runs attention only.
pub struct Replay {
    seed: u64,
    size: Size,
    job: Option<ServeJob>,
    caches: Option<Caches>,
    /// The cold pass's report, which every warm pass must equal.
    pub cold: Option<ServeReport>,
    /// Warm passes per round.
    pub passes: usize,
    /// Cold passes run and failed, over every set-up.
    cold_passes: (u64, u64),
}

impl Replay {
    /// The workload for `seed` at `size`.
    pub fn new(seed: u64, size: Size) -> Replay {
        Replay {
            seed,
            size,
            job: None,
            caches: None,
            cold: None,
            passes: match size {
                Size::Full => REPLAY_PASSES,
                Size::Smoke => 2,
            },
            cold_passes: (0, 0),
        }
    }
}

impl Workload for Replay {
    fn setup(&mut self) {
        let job = job(self.seed, self.size);
        let caches = Caches::new();
        let cold = caches.run(&job, None, 0);
        // The cold pass drains, and every iteration asks the report cache
        // for its QKV and its MoE report.
        let ok = matches!(&cold, Ok(r) if !r.truncated
            && r.report_cache.hits + r.report_cache.misses == 2 * r.iterations.len() as u64);
        if !ok {
            eprintln!("failed: cold pass of {}", job.label);
        }
        self.cold_passes.0 += 1;
        self.cold_passes.1 += u64::from(!ok);
        self.cold = cold.ok();
        self.job = Some(job);
        self.caches = Some(caches);
    }

    fn warm(&self) -> bool {
        true
    }

    fn setup_tally(&self) -> (u64, u64) {
        self.cold_passes
    }

    fn round(&mut self, tracer: Option<&Arc<Tracer>>) -> Round {
        let (Some(job), Some(caches)) = (&self.job, &self.caches) else {
            panic!("round after set-up");
        };
        let before = caches.reports.stats();
        let mut results = Vec::with_capacity(self.passes);
        let round_span = tracer.map(|t| t.span("bench.round", None));
        let mut clock = Clock::start(tracer);
        for i in 0..self.passes {
            results.push(caches.run(job, tracer, i as u64));
            clock.lap();
        }
        drop(round_span);

        let mut counters = Counters::new();
        let mut failed = 0;
        for r in &results {
            let ok = match r {
                Ok(r) => {
                    count_job(&mut counters, r);
                    self.cold.as_ref() == Some(r) && r.report_cache.misses == 0
                }
                Err(_) => false,
            };
            failed += u64::from(!ok);
        }
        let after = caches.reports.stats();
        counters.insert("sim.report_cache.hits", (after.hits - before.hits) as f64);
        counters.insert(
            "sim.report_cache.misses",
            (after.misses - before.misses) as f64,
        );
        counters.insert("sim.report_cache.entries", caches.reports.len() as f64);
        counters.insert("bench.plan_cache.entries", caches.plans.len() as f64);
        Round {
            wall: clock.raw(),
            scaled: clock.scaled(),
            attempted: self.passes as u64,
            failed,
            counters,
        }
    }

    fn digest(&self) -> Vec<String> {
        match (&self.job, &self.cold) {
            (Some(job), Some(cold)) => vec![digest_line(&job.label, cold)],
            _ => Vec::new(),
        }
    }
}
