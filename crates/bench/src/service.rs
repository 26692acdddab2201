//! Concurrent sweep service over a shared plan cache.
//!
//! Every sweep in [`crate::experiments`] used to be a serial loop, even
//! though `Arc<SimPlan>` has been thread-safe and bit-identical across
//! concurrent runs since the plan split (`crates/sim/tests/
//! plan_reuse.rs`). This module is the layer that exploits it: a
//! long-lived [`SweepService`] owning
//!
//! - a [`PlanCache`] keyed by **(builder fingerprint,
//!   [`SimConfig::fingerprint`])** — the config fingerprint excludes
//!   `threads`, the one knob the engine's determinism contract excludes,
//!   so sweep points that differ only in worker mapping share one frozen
//!   plan. Concurrent misses on one key share one build;
//! - a [`step_sim::ReportCache`] every unit resolves through, next to
//!   the plan cache. A sim point checks its plan out, then resolves its
//!   run under `(plan_content_key(builder, cfg), binding)`: a repeated
//!   point — Fig 13 re-plots Fig 12's static(32) column — replays the
//!   first run's [`SimReport`] instead of running the engine. Serve jobs
//!   memoize their QKV and MoE phase reports in the same cache
//!   ([`step_models::serving::ServeJob::run_memo`]);
//! - a `std::thread` worker pool (no external deps, per the workspace
//!   convention). Each worker keeps one private [`RunPool`]: a run on
//!   the plan the worker ran last resets the parked run state in place
//!   — steady-state runs allocate no run state
//!   (`SimReport::run_allocs == 0`) — and a run on another plan
//!   rebuilds it, so a worker holds one run state however many plans a
//!   sweep touches. A report-cache hit leaves the pool untouched;
//! - in-order result streaming: [`SweepService::submit`] returns a
//!   [`ResultStream`] that yields results in **submission order**
//!   regardless of completion order, by reassembling the workers'
//!   completion messages on a sequence cursor.
//!
//! # Determinism and what CI pins
//!
//! Every unit's report is a pure function of its inputs (the engine's
//! contract plus [`step_models::serving`]'s), so the service is
//! **bit-identical to the serial loop it replaced at any worker count**
//! — `crates/bench/tests/service_conformance.rs` holds every rewired
//! sweep to that, at 1/2/4/8 workers and across warm-cache reruns. Wall
//! clock is never asserted (the 1-CPU CI box makes it meaningless);
//! instead CI pins the [`CacheStats`] and [`step_sim::ReportCacheStats`]
//! counters. Both caches are [`SingleFlight`]s and count by its rule,
//! so the pins hold at any worker count.
//!
//! # Failure semantics
//!
//! One bad unit can never hang or kill the fleet (see README "Failure
//! semantics" for the full contract):
//!
//! - **Panic isolation** — unit execution and builder invocation run
//!   under `catch_unwind`; a faulted unit yields a typed
//!   [`UnitError::Panicked`] result and its worker keeps serving. Locks
//!   recover from poisoning ([`step_core::sync`]) instead of
//!   `.expect`-aborting.
//! - **Single-flight failure recovery** — a failed or panicked build or
//!   run reaches every request coalesced on it, and the next request
//!   for the key runs again, never replays it ([`SingleFlight`]).
//!   [`CacheStats::failures`] counts failed builds.
//! - **Typed results** — the stream yields
//!   `Result<PointResult, UnitFailure>`: every error carries its unit's
//!   label and a [`UnitError`] taxonomy
//!   (`Panicked`/`Build`/`Run`/`DeadlineExceeded`/`Shutdown`).
//! - **Graceful drain** — [`SweepService::shutdown`] drains queued
//!   units, rejects new submissions with [`UnitError::Shutdown`], and
//!   joins the workers (as does `Drop`).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::{Arc, Condvar, Mutex, OnceLock, mpsc};
use std::thread::JoinHandle;
use std::time::Instant;

pub use step_core::sync::CacheStats;
use step_core::sync::{SingleFlight, lock, panic_message, wait};
use step_core::{Graph, Result, StepError};
use step_models::serving::{PlanSource, ServeJob, ServeReport};
use step_sim::{ReportCache, RunBinding, RunPool, SimConfig, SimPlan, SimReport, plan_content_key};

/// Cache key: what a frozen plan is a pure function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Fingerprint of the graph builder and all its inputs.
    pub builder: u64,
    /// [`SimConfig::fingerprint`] — every config field except `threads`.
    pub sim: u64,
}

/// A shared, single-flight cache of frozen [`SimPlan`]s: a
/// [`SingleFlight`] keyed by [`PlanKey`], whose claim, failure and
/// counting rules it follows.
///
/// Plans are cached with `threads` normalized to 1: the knob is outside
/// the determinism contract (results are identical at any thread count)
/// and the service's parallelism comes from running *points*
/// concurrently, not from sharding single runs.
#[derive(Default)]
pub struct PlanCache {
    plans: SingleFlight<PlanKey, Arc<SimPlan>>,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Checks out the plan for `(builder, cfg)`, building it via `build`
    /// and freezing it on a miss. Concurrent requests for one key share
    /// one build, under [`SingleFlight`]'s rules.
    ///
    /// # Errors
    ///
    /// A failed or panicked build (surfaced as [`StepError::Panicked`]),
    /// returned to the requester that ran it and to every requester
    /// coalesced on it; the next checkout of the key builds again.
    pub fn checkout(
        &self,
        builder: u64,
        cfg: &SimConfig,
        build: &mut dyn FnMut() -> Result<Graph>,
    ) -> Result<Arc<SimPlan>> {
        let key = PlanKey {
            builder,
            sim: cfg.fingerprint(),
        };
        self.plans
            .get_or_run(key, || {
                let normalized = SimConfig {
                    threads: 1,
                    ..cfg.clone()
                };
                SimPlan::new(build()?, normalized).map(Arc::new)
            })
            .map(|(plan, _)| plan)
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.plans.stats()
    }

    /// Distinct plans currently cached (ready, building, or failed).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

impl PlanSource for PlanCache {
    fn plan(
        &self,
        fingerprint: u64,
        cfg: &SimConfig,
        build: &mut dyn FnMut() -> Result<Graph>,
    ) -> Result<Arc<SimPlan>> {
        self.checkout(fingerprint, cfg, build)
    }
}

/// One simulation sweep point: a graph builder plus the config and
/// optional per-run binding to drive the (cached) plan with.
pub struct SimPoint {
    /// Display label (sweep cell name), carried into the result.
    pub label: String,
    /// Fingerprint of the builder and **all** its inputs — the cache
    /// trusts it completely ([`PlanKey::builder`]).
    pub builder: u64,
    /// Simulator config (cache-keyed minus `threads`).
    pub cfg: SimConfig,
    /// Builds the graph on a cache miss. Must be a pure function of the
    /// fingerprinted inputs; may be invoked any number of times.
    pub build: Box<dyn FnMut() -> Result<Graph> + Send>,
    /// Per-run source rebinding; `None` runs the plan's built-in
    /// sources.
    pub binding: Option<RunBinding>,
}

/// A schedulable unit of sweep work.
pub enum SweepUnit {
    /// A single simulation run over a cached plan.
    Sim(SimPoint),
    /// A whole serving run (its phase plans check out of the cache).
    Serve(ServeJob),
}

impl SweepUnit {
    fn label(&self) -> &str {
        match self {
            SweepUnit::Sim(p) => &p.label,
            SweepUnit::Serve(j) => &j.label,
        }
    }
}

/// A unit's report.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitReport {
    /// Report of a [`SweepUnit::Sim`] point: the service's
    /// [`ReportCache`] entry itself, so a repeated point shares the
    /// first run's report instead of copying it. Its host-side
    /// `run_allocs` / `pool_resets` record that first run.
    Sim(Arc<SimReport>),
    /// Report of a [`SweepUnit::Serve`] job (boxed: it is many times the
    /// size of a sim unit's shared report).
    Serve(Box<ServeReport>),
}

impl UnitReport {
    /// The simulation report, if this unit was a sim point.
    pub fn sim(&self) -> Option<&SimReport> {
        match self {
            UnitReport::Sim(r) => Some(r.as_ref()),
            UnitReport::Serve(_) => None,
        }
    }

    /// The serving report, if this unit was a serve job.
    pub fn serve(&self) -> Option<&ServeReport> {
        match self {
            UnitReport::Serve(r) => Some(r.as_ref()),
            UnitReport::Sim(_) => None,
        }
    }
}

/// One completed sweep point, yielded in submission order.
///
/// Deliberately not `PartialEq`: `wall_ms` is host-dependent, so whole-
/// result equality would silently compare wall clock. Conformance
/// checks compare `label` and `report`.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The unit's label.
    pub label: String,
    /// The unit's report.
    pub report: UnitReport,
    /// Host wall-clock of the unit on its worker, milliseconds: plan
    /// checkout plus run, or about 0 for a report-cache hit. Diagnostic
    /// only — never part of any determinism or CI check.
    pub wall_ms: f64,
}

/// Why a unit failed — the service's error taxonomy. Every variant is
/// isolated to its unit: the worker, the cache, and the rest of the
/// batch carry on.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitError {
    /// The unit's build closure, plan freeze, or run panicked. The
    /// panic was caught; the payload's message is carried here.
    Panicked(String),
    /// Graph build or plan freeze failed. The cache slot holds the
    /// failure; the next checkout of the key retries the build.
    Build(StepError),
    /// The run itself failed — deadlock, execution error, or a
    /// [`StepError::RoundLimit`] budget blow (non-retryable: the same
    /// inputs deterministically blow the same budget).
    Run(StepError),
    /// A per-unit deadline expired ([`StepError::Deadline`]).
    DeadlineExceeded(StepError),
    /// The service was shut down before the unit could run.
    Shutdown,
}

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitError::Panicked(m) => write!(f, "panicked: {m}"),
            UnitError::Build(e) => write!(f, "build failed: {e}"),
            UnitError::Run(e) => write!(f, "run failed: {e}"),
            UnitError::DeadlineExceeded(e) => write!(f, "{e}"),
            UnitError::Shutdown => write!(f, "service shut down"),
        }
    }
}

/// A failed unit: its label plus the typed [`UnitError`]. What the
/// [`ResultStream`] yields in a faulted unit's submission-order slot.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitFailure {
    /// The failed unit's label (sweep cell name).
    pub label: String,
    /// Why it failed.
    pub error: UnitError,
}

impl fmt::Display for UnitFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep point '{}': {}", self.label, self.error)
    }
}

impl std::error::Error for UnitFailure {}

/// Classifies a build-path error (cache checkout).
fn classify_build(e: StepError) -> UnitError {
    match e {
        StepError::Panicked(m) => UnitError::Panicked(m),
        e => UnitError::Build(e),
    }
}

/// Classifies a run-path error.
fn classify_run(e: StepError) -> UnitError {
    match e {
        StepError::Deadline { .. } => UnitError::DeadlineExceeded(e),
        StepError::Panicked(m) => UnitError::Panicked(m),
        e => UnitError::Run(e),
    }
}

/// A queued unit plus its result route.
struct Task {
    seq: u64,
    unit: SweepUnit,
    tx: mpsc::Sender<Completion>,
}

/// A worker's completion message (out of order; reassembled by seq).
struct Completion {
    seq: u64,
    label: String,
    report: std::result::Result<UnitReport, UnitError>,
    wall_ms: f64,
}

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct ServiceInner {
    cache: PlanCache,
    /// Shared report memoization for every unit (plans come from
    /// `cache`, repeated sim points and steady-state serve phases
    /// replay their *reports* from here).
    reports: ReportCache,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
}

/// The long-lived sweep service: a plan cache and a report cache shared
/// by a worker pool.
///
/// Submit a batch of [`SweepUnit`]s with [`SweepService::submit`] (an
/// ordered [`ResultStream`] comes back) or [`SweepService::run_all`]
/// (collects the stream). Dropping the service shuts the workers down
/// after the queue drains its in-flight tasks.
pub struct SweepService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl SweepService {
    /// A service with `workers` worker threads (at least one) and an
    /// unbounded queue.
    pub fn new(workers: usize) -> SweepService {
        let inner = Arc::new(ServiceInner {
            cache: PlanCache::new(),
            reports: ReportCache::new(),
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn sweep worker")
            })
            .collect();
        SweepService { inner, workers }
    }

    /// The process-wide shared service. Worker count comes from the
    /// `SWEEP_WORKERS` environment variable when set, else from
    /// [`std::thread::available_parallelism`] — results never depend on
    /// it (only wall clock does).
    pub fn global() -> &'static SweepService {
        static GLOBAL: OnceLock<SweepService> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = std::env::var("SWEEP_WORKERS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
                });
            SweepService::new(workers)
        })
    }

    /// This service's worker count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared plan cache (counters for CI pins; also usable directly
    /// as a [`PlanSource`]).
    pub fn cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    /// The shared report cache every unit resolves through: sim points
    /// under `(plan content key, binding)`, serve jobs per QKV and MoE
    /// phase (cumulative counters for CI pins). It never evicts, so it
    /// retains one report per distinct point.
    pub fn reports(&self) -> &ReportCache {
        &self.inner.reports
    }

    /// Enqueues `units` and returns a stream yielding one result per
    /// unit **in submission order**, however the workers interleave.
    ///
    /// Never blocks. After [`SweepService::shutdown`] every unit is
    /// rejected — the stream still yields all N results, each a typed
    /// [`UnitError::Shutdown`] failure under the unit's real label.
    pub fn submit(&self, units: Vec<SweepUnit>) -> ResultStream {
        let (tx, rx) = mpsc::channel();
        let total = units.len() as u64;
        {
            let mut q = lock(&self.inner.queue);
            for (seq, unit) in units.into_iter().enumerate() {
                let seq = seq as u64;
                if q.shutdown {
                    // Typed rejection straight onto the stream: the
                    // batch still resolves all N slots.
                    let _ = tx.send(Completion {
                        seq,
                        label: unit.label().to_owned(),
                        report: Err(UnitError::Shutdown),
                        wall_ms: 0.0,
                    });
                    continue;
                }
                q.tasks.push_back(Task {
                    seq,
                    unit,
                    tx: tx.clone(),
                });
                self.inner.work_ready.notify_one();
            }
        }
        ResultStream {
            rx,
            pending: BTreeMap::new(),
            next: 0,
            total,
        }
    }

    /// [`SweepService::submit`], collected: all results in submission
    /// order, or the first error.
    ///
    /// # Errors
    ///
    /// The first failing unit's [`UnitFailure`], in submission order.
    pub fn run_all(
        &self,
        units: Vec<SweepUnit>,
    ) -> std::result::Result<Vec<PointResult>, UnitFailure> {
        self.submit(units).collect()
    }

    /// Graceful drain: stops accepting new submissions (they resolve to
    /// [`UnitError::Shutdown`]), lets the workers finish everything
    /// already queued, and joins them. Idempotent; `Drop` calls it.
    pub fn shutdown(&mut self) {
        {
            let mut q = lock(&self.inner.queue);
            q.shutdown = true;
        }
        self.inner.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// In-submission-order results of one [`SweepService::submit`] batch.
///
/// Iterating blocks until the next-in-order unit completes; completions
/// that arrive early are parked in a reassembly buffer. The stream
/// **always** yields exactly one item per submitted unit: faulted units
/// yield their [`UnitFailure`] in their submission-order slot, and a
/// service torn down mid-batch resolves every unresolved slot with
/// [`UnitError::Shutdown`] instead of hanging or truncating.
pub struct ResultStream {
    rx: mpsc::Receiver<Completion>,
    pending: BTreeMap<u64, std::result::Result<PointResult, UnitFailure>>,
    next: u64,
    total: u64,
}

impl Iterator for ResultStream {
    type Item = std::result::Result<PointResult, UnitFailure>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.total {
            return None;
        }
        loop {
            if let Some(r) = self.pending.remove(&self.next) {
                self.next += 1;
                return Some(r);
            }
            match self.rx.recv() {
                Ok(c) => {
                    self.pending.insert(
                        c.seq,
                        match c.report {
                            Ok(report) => Ok(PointResult {
                                label: c.label,
                                report,
                                wall_ms: c.wall_ms,
                            }),
                            Err(error) => Err(UnitFailure {
                                label: c.label,
                                error,
                            }),
                        },
                    );
                }
                Err(_) => {
                    // Workers are gone (service dropped mid-stream) and
                    // this slot never completed: resolve it as shut
                    // down. Parked later completions still drain in
                    // order on subsequent calls.
                    self.next += 1;
                    return Some(Err(UnitFailure {
                        label: format!("unit #{}", self.next - 1),
                        error: UnitError::Shutdown,
                    }));
                }
            }
        }
    }
}

fn worker_loop(inner: &ServiceInner) {
    // One pool per worker: a run of the plan the worker ran last resets
    // the parked state in place (alloc-free); a run of any other plan
    // rebuilds it, so the worker parks one run state, not one per plan.
    // A panicking run never parks state (pools park on success only),
    // so surviving a caught panic cannot corrupt later runs.
    let mut pool = RunPool::new();
    loop {
        let task = {
            let mut q = lock(&inner.queue);
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = wait(&inner.work_ready, q);
            }
        };
        let label = task.unit.label().to_owned();
        let start = Instant::now();
        // Panic isolation: a faulted unit resolves to a typed error and
        // the worker keeps serving the queue.
        let unit = task.unit;
        let report = catch_unwind(AssertUnwindSafe(|| {
            run_unit(&inner.cache, &inner.reports, unit, &mut pool)
        }))
        .unwrap_or_else(|p| Err(UnitError::Panicked(panic_message(p.as_ref()))));
        // A dropped stream just discards results; the worker lives on.
        let _ = task.tx.send(Completion {
            seq: task.seq,
            label,
            report,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        });
    }
}

/// A [`PlanSource`] wrapper that remembers whether a failure came from
/// plan checkout (build path) — the serve driver funnels both build and
/// run errors through one `Result`, and the service wants to classify
/// them apart.
struct TaggedSource<'a> {
    cache: &'a PlanCache,
    build_error: std::cell::Cell<bool>,
}

impl PlanSource for TaggedSource<'_> {
    fn plan(
        &self,
        fingerprint: u64,
        cfg: &SimConfig,
        build: &mut dyn FnMut() -> Result<Graph>,
    ) -> Result<Arc<SimPlan>> {
        let r = self.cache.checkout(fingerprint, cfg, build);
        if r.is_err() {
            self.build_error.set(true);
        }
        r
    }
}

fn run_unit(
    cache: &PlanCache,
    reports: &ReportCache,
    unit: SweepUnit,
    pool: &mut RunPool,
) -> std::result::Result<UnitReport, UnitError> {
    match unit {
        SweepUnit::Sim(mut point) => {
            let plan = cache
                .checkout(point.builder, &point.cfg, &mut point.build)
                .map_err(classify_build)?;
            let binding = point.binding.unwrap_or_default();
            let replay = reports
                .replay_or_run(
                    plan_content_key(point.builder, &point.cfg),
                    &binding,
                    &mut || plan.run_with(&binding, Some(pool)),
                )
                .map_err(classify_run)?;
            Ok(UnitReport::Sim(replay.report))
        }
        SweepUnit::Serve(job) => {
            let src = TaggedSource {
                cache,
                build_error: std::cell::Cell::new(false),
            };
            match job.run_memo(&src, reports) {
                Ok(report) => Ok(UnitReport::Serve(Box::new(report))),
                Err(e) if src.build_error.get() => Err(classify_build(e)),
                Err(e) => Err(classify_run(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use step_core::graph::GraphBuilder;
    use step_core::ops::LinearLoadCfg;
    use step_sim::ReportCacheStats;

    /// A tiny off-chip load/store graph whose traffic scales with
    /// `tiles` — distinct `tiles` values are distinct plans.
    fn tiny_graph(tiles: u64) -> Result<Graph> {
        let mut g = GraphBuilder::new();
        let trigger = g.unit_source(1);
        let loaded =
            g.linear_offchip_load(&trigger, LinearLoadCfg::new(0, (64, 64 * tiles), (64, 64)))?;
        g.linear_offchip_store(&loaded, 0x10_0000)?;
        Ok(g.finish())
    }

    fn point(label: &str, tiles: u64) -> SweepUnit {
        SweepUnit::Sim(SimPoint {
            label: label.to_owned(),
            builder: tiles, // the builder's one input is its fingerprint
            cfg: SimConfig::default(),
            build: Box::new(move || tiny_graph(tiles)),
            binding: None,
        })
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let svc = SweepService::new(4);
        let units: Vec<SweepUnit> = (1..=8).map(|t| point(&format!("tiles{t}"), t)).collect();
        let results = svc.run_all(units).unwrap();
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.label, format!("tiles{}", i + 1));
            let sim = r.report.sim().expect("sim point");
            // Traffic scales with tiles (load + store, f16 elements):
            // order is provably submission order, not completion order.
            assert_eq!(sim.offchip_traffic, 2 * 64 * 64 * (i as u64 + 1) * 2);
        }
    }

    #[test]
    fn identical_points_single_flight_one_build() {
        let svc = SweepService::new(8);
        let units: Vec<SweepUnit> = (0..16).map(|i| point(&format!("p{i}"), 4)).collect();
        let results = svc.run_all(units).unwrap();
        let base = results[0].report.sim().unwrap();
        for r in &results {
            assert_eq!(r.report.sim().unwrap().cycles, base.cycles);
        }
        let stats = svc.cache().stats();
        assert_eq!(stats.builds, 1, "one plan key must build exactly once");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 15);
        assert_eq!(svc.cache().len(), 1);
        // One engine run; every other point replays or coalesces on it.
        assert_eq!(
            svc.reports().stats(),
            ReportCacheStats {
                hits: 15,
                misses: 1
            }
        );
    }

    #[test]
    fn warm_cache_reruns_are_identical_and_build_nothing() {
        let svc = SweepService::new(2);
        let mk = || {
            (1..=4)
                .map(|t| point(&format!("t{t}"), t))
                .collect::<Vec<_>>()
        };
        let cold = svc.run_all(mk()).unwrap();
        let after_cold = svc.cache().stats();
        assert_eq!(after_cold.builds, 4);
        let warm = svc.run_all(mk()).unwrap();
        let after_warm = svc.cache().stats();
        assert_eq!(after_warm.builds, 4, "warm rerun must build nothing");
        assert_eq!(after_warm.misses, 4);
        assert_eq!(after_warm.hits, after_cold.hits + 4);
        for (c, w) in cold.iter().zip(&warm) {
            assert!(Arc::ptr_eq(shared(c), shared(w)), "warm rerun re-ran");
        }
        assert_eq!(
            svc.reports().stats(),
            ReportCacheStats { hits: 4, misses: 4 }
        );
    }

    /// A `tiles` point run under `binding`.
    fn bound(label: &str, tiles: u64, binding: RunBinding) -> SweepUnit {
        match point(label, tiles) {
            SweepUnit::Sim(p) => SweepUnit::Sim(SimPoint {
                binding: Some(binding),
                ..p
            }),
            SweepUnit::Serve(_) => unreachable!(),
        }
    }

    /// A binding that arms a cycle deadline of `limit` — a distinct
    /// report-cache key per limit, and one that never fires when the
    /// limit is generous.
    fn cycle_limit(limit: u64) -> RunBinding {
        let mut b = RunBinding::new();
        b.deadline_cycles(limit);
        b
    }

    /// The shared report behind a sim unit's result.
    fn shared(r: &PointResult) -> &Arc<SimReport> {
        match &r.report {
            UnitReport::Sim(report) => report,
            UnitReport::Serve(_) => panic!("{} is not a sim unit", r.label),
        }
    }

    #[test]
    fn single_worker_warm_points_are_alloc_free() {
        let svc = SweepService::new(1);
        let results = svc
            .run_all(vec![
                bound("a", 3, cycle_limit(1 << 20)),
                bound("b", 3, cycle_limit((1 << 20) + 1)),
                bound("c", 3, cycle_limit((1 << 20) + 2)),
                bound("a again", 3, cycle_limit(1 << 20)),
            ])
            .unwrap();
        let allocs: Vec<u64> = results[..3]
            .iter()
            .map(|r| r.report.sim().unwrap().run_allocs)
            .collect();
        // First point builds the worker's pool; later points with other
        // bindings reset it in place.
        assert_eq!(allocs, vec![1, 0, 0]);
        // The repeat of the first point replays its report.
        assert!(Arc::ptr_eq(shared(&results[0]), shared(&results[3])));
        assert_eq!(
            svc.reports().stats(),
            ReportCacheStats { hits: 1, misses: 3 }
        );
    }

    /// A repeated point replays the very report its first run stored,
    /// without running the engine: the worker's pool still parks the
    /// state of the plan it ran last, so the next run of that plan
    /// resets it in place instead of rebuilding it.
    #[test]
    fn repeated_point_replays_its_report_and_leaves_the_pool_untouched() {
        let svc = SweepService::new(1);
        let results = svc
            .run_all(vec![
                point("a", 3),
                point("b", 4),
                point("a again", 3),
                bound("b bound", 4, cycle_limit(1 << 20)),
            ])
            .unwrap();
        assert!(Arc::ptr_eq(shared(&results[0]), shared(&results[2])));
        let last = results[3].report.sim().unwrap();
        assert_eq!(
            (last.run_allocs, last.pool_resets),
            (0, 1),
            "the replay must not rebuild the pool for another plan"
        );
        assert_eq!(
            svc.reports().stats(),
            ReportCacheStats { hits: 1, misses: 3 }
        );
        // The plan is still checked out for the repeat.
        assert_eq!(svc.cache().stats().hits, 2);
    }

    /// A failed run is retaken by the next identical point, never
    /// replayed: that point fails again, on its own run.
    #[test]
    fn failed_run_is_retaken_not_replayed() {
        let svc = SweepService::new(1);
        let results: Vec<_> = svc
            .submit(vec![
                bound("doomed", 3, cycle_limit(1)),
                bound("doomed again", 3, cycle_limit(1)),
            ])
            .collect();
        for r in &results {
            assert!(
                matches!(
                    r,
                    Err(UnitFailure {
                        error: UnitError::DeadlineExceeded(StepError::Deadline { limit: 1, .. }),
                        ..
                    })
                ),
                "got: {r:?}"
            );
        }
        assert_eq!(
            svc.reports().stats(),
            ReportCacheStats { hits: 0, misses: 2 }
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mk = |n: u64| {
            (1..=n)
                .map(|t| point(&format!("t{t}"), t))
                .collect::<Vec<SweepUnit>>()
        };
        let base = SweepService::new(1).run_all(mk(6)).unwrap();
        for workers in [2, 4, 8] {
            let got = SweepService::new(workers).run_all(mk(6)).unwrap();
            assert_eq!(base.len(), got.len());
            for (b, g) in base.iter().zip(&got) {
                assert_eq!(b.label, g.label, "workers={workers} reordered");
                assert_eq!(b.report, g.report, "workers={workers} diverged");
            }
        }
    }

    #[test]
    fn builder_errors_propagate_in_order() {
        let svc = SweepService::new(2);
        let bad = SweepUnit::Sim(SimPoint {
            label: "bad".into(),
            builder: 999,
            cfg: SimConfig::default(),
            build: Box::new(|| Err(StepError::Config("intentionally broken".into()))),
            binding: None,
        });
        let units = vec![point("ok", 2), bad, point("ok2", 3)];
        let results: Vec<std::result::Result<PointResult, UnitFailure>> =
            svc.submit(units).collect();
        assert!(results[0].is_ok());
        match &results[1] {
            Err(UnitFailure { label, error }) => {
                assert_eq!(label, "bad");
                assert!(
                    matches!(error, UnitError::Build(StepError::Config(m)) if m.contains("broken"))
                );
            }
            Ok(_) => panic!("broken builder must fail its unit"),
        }
        assert!(results[2].is_ok(), "an error must not poison later units");
    }

    #[test]
    fn failed_build_is_counted_and_next_checkout_retries() {
        let cache = PlanCache::new();
        let err = cache
            .checkout(7, &SimConfig::default(), &mut || {
                Err(StepError::Config("flaky".into()))
            })
            .err()
            .expect("failing builder must fail the checkout");
        assert!(matches!(err, StepError::Config(m) if m.contains("flaky")));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                builds: 0,
                failures: 1
            }
        );
        // The failure is sticky but not fatal: the next checkout of the
        // key retakes the build.
        let plan = cache
            .checkout(7, &SimConfig::default(), &mut || tiny_graph(2))
            .unwrap();
        assert_eq!(
            plan.graph().nodes().len(),
            tiny_graph(2).unwrap().nodes().len()
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                builds: 1,
                failures: 1
            }
        );
    }

    #[test]
    fn panicking_builder_resolves_as_typed_error_not_a_dead_worker() {
        let svc = SweepService::new(1);
        let boom = SweepUnit::Sim(SimPoint {
            label: "boom".into(),
            builder: 555,
            cfg: SimConfig::default(),
            build: Box::new(|| panic!("builder exploded")),
            binding: None,
        });
        // One worker: if the panic killed it, the second unit would
        // never complete.
        let results: Vec<_> = svc.submit(vec![boom, point("after", 2)]).collect();
        match &results[0] {
            Err(UnitFailure { label, error }) => {
                assert_eq!(label, "boom");
                assert!(
                    matches!(error, UnitError::Panicked(m) if m.contains("exploded")),
                    "got: {error:?}"
                );
            }
            Ok(_) => panic!("panicking builder must fail its unit"),
        }
        assert!(results[1].is_ok(), "the worker must survive the panic");
        assert_eq!(svc.cache().stats().failures, 1);
    }

    #[test]
    fn deadline_blow_classifies_as_deadline_exceeded() {
        let svc = SweepService::new(1);
        let mut binding = RunBinding::new();
        binding.deadline_cycles(1);
        let doomed = SweepUnit::Sim(SimPoint {
            label: "doomed".into(),
            builder: 6,
            cfg: SimConfig::default(),
            build: Box::new(|| tiny_graph(6)),
            binding: Some(binding),
        });
        let results: Vec<_> = svc.submit(vec![doomed, point("clean", 6)]).collect();
        match &results[0] {
            Err(UnitFailure { label, error }) => {
                assert_eq!(label, "doomed");
                assert!(matches!(
                    error,
                    UnitError::DeadlineExceeded(StepError::Deadline {
                        kind: step_core::DeadlineKind::Cycles,
                        limit: 1,
                        ..
                    })
                ));
            }
            Ok(_) => panic!("a 1-cycle deadline must blow"),
        }
        // Same plan key (binding is not part of the key): the clean unit
        // still runs it to completion.
        assert!(results[1].is_ok());
    }

    #[test]
    fn shutdown_drains_queue_then_rejects_with_typed_error() {
        let mut svc = SweepService::new(2);
        let first = svc.run_all(vec![point("a", 2), point("b", 3)]).unwrap();
        assert_eq!(first.len(), 2);
        svc.shutdown();
        svc.shutdown(); // idempotent
        let rejected: Vec<_> = svc
            .submit(vec![point("late", 4), point("later", 5)])
            .collect();
        assert_eq!(rejected.len(), 2, "rejected batches still resolve all N");
        for (r, want) in rejected.iter().zip(["late", "later"]) {
            match r {
                Err(UnitFailure { label, error }) => {
                    assert_eq!(label, want, "rejections keep real labels");
                    assert_eq!(*error, UnitError::Shutdown);
                }
                Ok(_) => panic!("post-shutdown submission must be rejected"),
            }
        }
    }

    /// Satellite: concurrent same-key checkouts against a builder that
    /// fails the first F times. Single-flight claims serialize builder
    /// invocations, so however the threads interleave: exactly F
    /// recorded failures, exactly one successful build, exactly F+1
    /// builder invocations — and no waiter blocks forever (the test
    /// terminates without any watchdog).
    #[test]
    fn concurrent_failing_builds_serialize_and_never_strand_waiters() {
        const THREADS: usize = 8;
        const FAILURES: u64 = 3;
        let cache = PlanCache::new();
        let invocations = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    // Retry until the shared build succeeds. Bounded so
                    // a protocol bug fails loudly instead of spinning.
                    for attempt in 0..64 {
                        let got = cache.checkout(42, &SimConfig::default(), &mut || {
                            let n = invocations.fetch_add(1, Ordering::SeqCst) + 1;
                            if n <= FAILURES {
                                Err(StepError::Config(format!("transient #{n}")))
                            } else {
                                tiny_graph(3)
                            }
                        });
                        match got {
                            Ok(_) => return,
                            Err(e) => {
                                assert!(matches!(e, StepError::Config(_)), "unexpected error: {e}");
                                assert!(attempt < 63, "checkout never converged");
                            }
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            invocations.load(Ordering::SeqCst),
            FAILURES + 1,
            "exactly one rebuild per retry round"
        );
        assert_eq!(stats.failures, FAILURES);
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.misses, stats.builds + stats.failures);
        assert_eq!(cache.len(), 1);
    }
}
