//! Continuous-batching serving driver — the "millions of users" workload.
//!
//! The paper's figures step a *fixed* batch through decode; a serving
//! system sees a churning one. This driver runs an open-loop request
//! trace ([`step_traces::arrivals`]) against the three per-layer phases
//! (QKV GEMM, attention, MoE) with the scheduling loop real engines use:
//!
//! - **Admission**: at each iteration boundary, arrived requests are
//!   admitted into free batch slots (up to [`ServeCfg::slots`]) in
//!   arrival order;
//! - **Eviction**: a request that generates its last token leaves at the
//!   end of the iteration, freeing its slot for the next admission;
//! - **Prefill/decode interleaving**: every iteration's token budget
//!   ([`ServeCfg::token_budget`]) is spent on decode tokens first (one
//!   per decoding request), then on prefill chunks of admitted requests
//!   ([`ServeCfg::prefill_chunk`] — the chunked-prefill scenario axis:
//!   `Some(c)` caps a request's per-iteration prefill at `c` tokens so
//!   decode latency stays bounded, `None` lets a prompt prefill as fast
//!   as the remaining budget allows);
//! - **Per-iteration rebinding**: the batch composition changes every
//!   iteration, and rides in on [`step_sim::RunBinding`] source
//!   rebinding over one frozen [`SimPlan`] per phase — the attention
//!   plan's request source replays each slot's current KV context, the
//!   MoE plan's token + router sources replay the iteration's routed
//!   tokens. Plans are built once against the trace's admitted-set
//!   envelope ([`RequestTrace::max_ctx`] provisions the attention
//!   dispatch queues; [`ServeCfg::token_budget`] sizes the MoE build
//!   batch) and each phase keeps one [`RunPool`], so steady-state
//!   iterations neither rebuild plans nor reallocate run state
//!   ([`crate::phases::debug_assert_steady`]).
//!
//! **Modeling notes.** A vacant slot is bound as a minimal one-tile stub
//! request (the dispatch selector's batch width is fixed at freeze
//! time); under load the batch is full and no stubs exist. A prefilling
//! request's attention cost is one scan over its context-so-far KV tiles
//! (a FlashAttention-style chunk pass); its GEMM-side cost scales
//! exactly with the chunk's tokens through the QKV and MoE phases.
//! Phase latencies compose serially per layer, as in [`crate::e2e`].
//!
//! **Metrics.** `TTFT` (time to first token) is the span from a
//! request's *arrival* (queueing included) to the end of the iteration
//! that finishes its prefill — the iteration that produces its first
//! output token. `TPOT` (time per output token) is the span from first
//! token to completion divided by the remaining `output - 1` tokens.
//! *Goodput* is completed requests per million cycles of serving time
//! (idle gaps included); *offered load* is the trace's arrival rate.
//! HBM pressure is total off-chip traffic over busy cycles, reported
//! both as bytes/cycle and as utilization of the configured peak.
//!
//! **Determinism.** A serving run is a pure function of
//! `(model, variant, trace, ServeCfg minus threads)`: same-seed reruns
//! are bit-identical across thread counts and across pooled vs fresh
//! run state, and each iteration replays offline — a fresh one-shot
//! [`step_sim::Simulation`] of the same phase graph with the same
//! binding reproduces its cycles and fires bit-exactly
//! (`crates/models/tests/serving_conformance.rs`).
//!
//! **Report memoization.** Determinism also means an iteration whose
//! phase signature repeats need not run the engine at all:
//! [`run_serve_memo`] routes the QKV and MoE phases through a
//! [`ReportCache`] keyed by `(plan content key, binding fingerprint)` —
//! QKV under the empty binding per token count (the direct
//! generalization of the per-count memo the drivers used before), MoE
//! under the iteration's routed-token binding. Attention always
//! simulates (every slot-context vector under a churning batch is
//! effectively unique). Cache replays are bit-identical by the
//! determinism contract, so the report minus the host-side cache
//! telemetry ([`ServeReport::report_cache`],
//! [`ServeReport::engine_fires`], which [`ServeReport`]'s `PartialEq`
//! excludes) is unchanged by caching —
//! `crates/models/tests/report_memo_conformance.rs` holds cache-on,
//! cache-off, and differential [`ReportCache::checked`] runs together.
//! [`ServeCfg::moe_canonical`] additionally canonicalizes each
//! iteration's routing to its multiset order
//! ([`crate::phases::canonical_routing`]) before binding, so
//! order-permuted routings collapse to one exact cache entry and the
//! replays stay bit-identical — an opt-in modeling choice, because the
//! engine schedules a token *stream* and erasing the sampled order
//! perturbs the phase's cycle count slightly.

use crate::attention::{AttentionCfg, AttentionPorts, attention_graph};
use crate::config::ModelConfig;
use crate::e2e::E2eVariant;
use crate::moe::{MoeCfg, MoePorts, moe_graph};
use crate::phases::{
    bind_attention, bind_moe, canonical_routing, debug_assert_steady, moe_sim_config,
    qkv_fingerprint, qkv_graph,
};
use std::sync::Arc;
use step_core::{Graph, Result, StepError};
use step_sim::{
    Fingerprint, ReportCache, ReportCacheStats, Resolution, RunBinding, RunPool, SimConfig,
    SimPlan, SimReport, plan_content_key,
};
use step_traces::{KvTrace, RequestTrace, RoutingConfig, RoutingTrace, expert_routing};

/// Configuration of the continuous-batching serving driver.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCfg {
    /// Batch slots: the maximum number of concurrently live requests.
    pub slots: usize,
    /// Maximum tokens processed per iteration across the batch (decode
    /// tokens plus prefill chunks). Must be at least `slots` so every
    /// decoding request always fits.
    pub token_budget: usize,
    /// Chunked prefill: `Some(c)` caps each request's per-iteration
    /// prefill at `c` tokens; `None` prefills as fast as the remaining
    /// token budget allows.
    pub prefill_chunk: Option<u32>,
    /// Expert-popularity skew of the per-iteration routing samples.
    pub skew: f64,
    /// Seed of the per-iteration routing re-samples (the arrival trace
    /// carries its own seed).
    pub seed: u64,
    /// Simulation worker threads per phase run (results are
    /// thread-count-independent by the engine's determinism contract).
    pub threads: usize,
    /// Reuse pooled run state across iterations (the steady-state
    /// alloc-free path). `false` materializes fresh state every
    /// iteration — bit-identical, for differential testing only.
    pub pooled: bool,
    /// Safety cap on serving iterations; hitting it truncates the run
    /// (reported via [`ServeReport::truncated`]).
    pub max_iterations: u32,
    /// TTFT service-level objective in cycles: a waiting request whose
    /// queueing delay already exceeds this can no longer meet the SLO
    /// and is **shed** at the admission boundary instead of occupying a
    /// slot (counted in [`ServeReport::shed_total`]). `None` (the
    /// default) admits everything. Deterministic: shedding depends only
    /// on the serving clock and the trace.
    pub ttft_slo: Option<u64>,
    /// Canonicalize each iteration's MoE routing
    /// ([`crate::phases::canonical_routing`]: the per-token expert sets
    /// sorted into multiset order) before binding, so iterations whose
    /// routings differ only in token order produce the *identical*
    /// binding and share one exact report-cache entry — a bit-identical
    /// replay by the determinism contract, not an approximate one.
    ///
    /// This is a modeling choice, which is why it is opt-in: token
    /// order inside an MoE batch is an artifact of slot enumeration,
    /// but the engine schedules a token *stream*, so erasing the order
    /// perturbs run coalescing and with it the phase's cycle count
    /// slightly (off-chip traffic, FLOPs, and token counts are exactly
    /// order-invariant; replaying one order's report for another was
    /// measured to drift even on cycles, which is why this knob rebinds
    /// instead). Off by default: the default path simulates the sampled
    /// order, and the bit-identity conformance contract applies as-is.
    /// Worth switching on for low-routing-entropy regimes (high
    /// [`ServeCfg::skew`], few live expert sets), where multiset
    /// collisions across iterations actually occur.
    pub moe_canonical: bool,
}

impl Default for ServeCfg {
    fn default() -> ServeCfg {
        ServeCfg {
            slots: 8,
            token_budget: 32,
            prefill_chunk: Some(16),
            skew: 0.8,
            seed: 7,
            threads: 1,
            pooled: true,
            max_iterations: 100_000,
            ttft_slo: None,
            moe_canonical: false,
        }
    }
}

/// One serving iteration's composition and simulated phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeIteration {
    /// Iteration index.
    pub iter: u32,
    /// Serving clock at iteration start, cycles.
    pub start: u64,
    /// Live requests occupying slots this iteration.
    pub live: u32,
    /// Requests admitted at this iteration's boundary.
    pub admitted: u32,
    /// Requests completing (and evicted) at this iteration's end.
    pub completed: u32,
    /// Tokens processed this iteration (decode + prefill chunks).
    pub tokens: u32,
    /// Decode tokens among them (one per decoding request).
    pub decode_tokens: u32,
    /// Per-slot KV context bound into the attention plan this iteration
    /// (vacant slots — and prefill slots starved of tokens by budget
    /// exhaustion — carry the one-tile stub length of 1).
    pub slot_ctx: Vec<u32>,
    /// QKV + output projection cycles.
    pub qkv_cycles: u64,
    /// Attention cycles over the iteration's KV contexts.
    pub attn_cycles: u64,
    /// MoE cycles under the iteration's routed tokens.
    pub moe_cycles: u64,
    /// One decoder layer (sum of phases).
    pub layer_cycles: u64,
    /// Node fires across the three phase runs.
    pub fires: u64,
    /// Channel run operations across the three phase runs.
    pub chan_runs: u64,
    /// Off-chip traffic across the three phase runs, bytes (one layer).
    pub offchip_traffic: u64,
}

/// Per-request serving outcome, in request-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Trace request id.
    pub id: u32,
    /// Arrival time, cycles.
    pub arrival: u64,
    /// Admission time (start of the first iteration the request ran in).
    pub admitted: u64,
    /// End of the iteration that produced the first output token.
    pub first_token: u64,
    /// End of the iteration that produced the last output token.
    pub finished: u64,
    /// Prompt length, tokens.
    pub prompt: u32,
    /// Output length, tokens.
    pub output: u32,
}

impl ServeOutcome {
    /// Time to first token: arrival (queueing included) to first output.
    pub fn ttft(&self) -> u64 {
        self.first_token - self.arrival
    }

    /// Time per output token after the first, in cycles (0 for
    /// single-token outputs).
    pub fn tpot(&self) -> f64 {
        if self.output <= 1 {
            0.0
        } else {
            (self.finished - self.first_token) as f64 / (self.output - 1) as f64
        }
    }
}

/// Nearest-rank percentiles of a latency population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of a population, or `None` when it is
    /// empty — an all-single-token-output trace has *no* TPOT
    /// population, which is a different fact than a measured 0.0.
    pub fn of(mut xs: Vec<f64>) -> Option<Percentiles> {
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let rank = (q * xs.len() as f64).ceil() as usize;
            xs[rank.clamp(1, xs.len()) - 1]
        };
        Some(Percentiles {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
        })
    }
}

/// The serving driver's aggregate results.
///
/// Equality ([`PartialEq`]) covers everything the simulation computed
/// and deliberately **excludes** the host-side execution telemetry —
/// [`ServeReport::report_cache`] and [`ServeReport::engine_fires`] —
/// which says how the run was *executed* (which iterations replayed
/// from a cache), not what it *measured*. Cached, uncached, serial, and
/// service-scheduled runs of one job therefore compare equal, which is
/// exactly the bit-identical-replay contract the conformance suites
/// assert; the telemetry fields are pinned separately where the cache
/// population is deterministic (the single-cell quick sweep).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-iteration compositions and phase cycles.
    pub iterations: Vec<ServeIteration>,
    /// Per-request outcomes (completed requests, id order).
    pub outcomes: Vec<ServeOutcome>,
    /// Serving clock at the end of the run (idle gaps included), cycles.
    pub total_cycles: u64,
    /// Cycles spent inside iterations (`Σ layer_cycles × layers`).
    pub busy_cycles: u64,
    /// Whole-model off-chip traffic, bytes (`Σ phase traffic × layers`).
    pub offchip_traffic: u64,
    /// Requests admitted into slots.
    pub admitted_total: u32,
    /// Requests evicted after completing.
    pub evicted_total: u32,
    /// Requests shed at the admission boundary for blowing
    /// [`ServeCfg::ttft_slo`] while waiting (zero when no SLO is set).
    pub shed_total: u32,
    /// Node fires summed over all phase runs — the *logical* total, as
    /// if every phase had simulated (replayed reports contribute their
    /// recorded fires), so it is cache-independent and comparable across
    /// execution strategies.
    pub total_fires: u64,
    /// Channel run operations summed over all phase runs (logical, like
    /// [`ServeReport::total_fires`]).
    pub chan_runs: u64,
    /// Node fires the engine *actually executed* for this run: phases
    /// resolved as [`step_sim::Resolution::Simulated`] only. The gap to
    /// [`ServeReport::total_fires`] is the work report memoization
    /// elided; CI budgets it on the warm quick cell. Host-side
    /// execution telemetry — excluded from equality.
    pub engine_fires: u64,
    /// This run's report-cache requests by resolution (request-scoped:
    /// counts this run's phase requests even when the cache is shared
    /// with other jobs). `hits + misses` equals the QKV + MoE phase
    /// requests made; attention never consults the cache. Host-side
    /// execution telemetry — excluded from equality.
    pub report_cache: ReportCacheStats,
    /// TTFT percentiles, cycles (`None` when no request completed).
    pub ttft: Option<Percentiles>,
    /// TPOT percentiles, cycles per token (multi-token outputs only;
    /// `None` when every completed output was a single token — an empty
    /// population, not a zero latency).
    pub tpot: Option<Percentiles>,
    /// Completed requests per million cycles of serving time.
    pub goodput_per_mcycle: f64,
    /// The trace's offered load, requests per million cycles.
    pub offered_per_mcycle: f64,
    /// Off-chip bytes per busy cycle — HBM pressure under load.
    pub hbm_bytes_per_cycle: f64,
    /// Fraction of peak off-chip bandwidth used while busy.
    pub hbm_utilization: f64,
    /// Whether the run hit [`ServeCfg::max_iterations`] before draining.
    pub truncated: bool,
}

impl PartialEq for ServeReport {
    fn eq(&self, other: &ServeReport) -> bool {
        // Exhaustive destructuring: adding a field forces a decision on
        // whether it is simulation output (compare) or host-side
        // execution telemetry (ignore, like the two below).
        let ServeReport {
            iterations,
            outcomes,
            total_cycles,
            busy_cycles,
            offchip_traffic,
            admitted_total,
            evicted_total,
            shed_total,
            total_fires,
            chan_runs,
            engine_fires: _,
            report_cache: _,
            ttft,
            tpot,
            goodput_per_mcycle,
            offered_per_mcycle,
            hbm_bytes_per_cycle,
            hbm_utilization,
            truncated,
        } = self;
        *iterations == other.iterations
            && *outcomes == other.outcomes
            && *total_cycles == other.total_cycles
            && *busy_cycles == other.busy_cycles
            && *offchip_traffic == other.offchip_traffic
            && *admitted_total == other.admitted_total
            && *evicted_total == other.evicted_total
            && *shed_total == other.shed_total
            && *total_fires == other.total_fires
            && *chan_runs == other.chan_runs
            && *ttft == other.ttft
            && *tpot == other.tpot
            && *goodput_per_mcycle == other.goodput_per_mcycle
            && *offered_per_mcycle == other.offered_per_mcycle
            && *hbm_bytes_per_cycle == other.hbm_bytes_per_cycle
            && *hbm_utilization == other.hbm_utilization
            && *truncated == other.truncated
    }
}

/// The deterministic per-iteration routing re-sample: iteration `iter`
/// routes its `tokens` tokens with this trace. Public so the offline
/// conformance replay can rebuild exactly what the driver bound.
pub fn iteration_routing(
    model: &ModelConfig,
    cfg: &ServeCfg,
    iter: u32,
    tokens: usize,
) -> RoutingTrace {
    expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: tokens,
        skew: cfg.skew,
        seed: cfg.seed ^ 0x5e21 ^ u64::from(iter).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    })
}

/// The build-time MoE routing trace: `token_budget` tokens under a
/// dedicated salt (every iteration rebinds over it, so only its batch
/// width matters). Public for the offline conformance replay.
pub fn moe_build_trace(model: &ModelConfig, cfg: &ServeCfg) -> RoutingTrace {
    expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch: cfg.token_budget,
        skew: cfg.skew,
        seed: cfg.seed ^ 0xb111d,
    })
}

/// The build-time attention KV trace: every slot provisioned for the
/// trace's admitted-set envelope ([`RequestTrace::max_ctx`]), so the
/// frozen plan's dispatch queues fit any context a serving iteration can
/// bind. Public for the offline conformance replay.
pub fn envelope_kv(trace: &RequestTrace, cfg: &ServeCfg) -> KvTrace {
    KvTrace {
        lengths: vec![trace.max_ctx().max(1); cfg.slots],
    }
}

/// A provider of frozen simulation plans.
///
/// The serving driver asks for each phase plan by **(builder
/// fingerprint, [`SimConfig`])** instead of freezing it inline, so a
/// sweep service can satisfy the request from a shared cache — many
/// serving cells over one trace envelope then pay plan freeze once. The
/// `build` closure produces the phase graph on a miss and is invoked at
/// most once per call.
///
/// The fingerprint must cover *everything* the builder consumed; two
/// calls with equal fingerprints and config-fingerprints
/// ([`SimConfig::fingerprint`], which excludes `threads`) must describe
/// interchangeable plans.
pub trait PlanSource {
    /// Returns a frozen plan for `(fingerprint, cfg)`, building the
    /// graph via `build` if no equivalent plan is available.
    fn plan(
        &self,
        fingerprint: u64,
        cfg: &SimConfig,
        build: &mut dyn FnMut() -> Result<Graph>,
    ) -> Result<Arc<SimPlan>>;
}

/// The trivial [`PlanSource`]: always builds a fresh plan. This is the
/// serial path — [`run_serve`] uses it — and the differential baseline
/// the sweep service's cached path is held bit-identical to.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreshPlans;

impl PlanSource for FreshPlans {
    fn plan(
        &self,
        _fingerprint: u64,
        cfg: &SimConfig,
        build: &mut dyn FnMut() -> Result<Graph>,
    ) -> Result<Arc<SimPlan>> {
        Ok(Arc::new(SimPlan::new(build()?, cfg.clone())?))
    }
}

/// The attention plan's builder fingerprint: everything
/// [`attention_graph`] consumes for a serving run — the
/// model, the parallelization strategy, and the envelope KV trace the
/// dispatch queues are provisioned for.
pub fn attn_plan_fingerprint(model: &ModelConfig, variant: &E2eVariant, envelope: &KvTrace) -> u64 {
    let mut fp = Fingerprint::new("serve.attn");
    fp.push_debug(model)
        .push_debug(&variant.attention)
        .push_debug(envelope);
    fp.finish()
}

/// The MoE plan's builder fingerprint: everything
/// [`moe_graph`] consumes for a serving run — the model, the
/// tiling schedule (with optional time-share regions), and the
/// build-time routing trace that sizes the batch.
pub fn moe_plan_fingerprint(
    model: &ModelConfig,
    variant: &E2eVariant,
    build_routing: &RoutingTrace,
) -> u64 {
    let mut fp = Fingerprint::new("serve.moe");
    fp.push_debug(model)
        .push_debug(&variant.tiling)
        .push_debug(&variant.moe_regions)
        .push_debug(build_routing);
    fp.finish()
}

/// A serving run packaged as one schedulable work item: everything
/// [`run_serve_with`] needs, owned and `Send`, so a sweep service can
/// move it to a worker thread and check its phase plans out of a shared
/// cache.
#[derive(Debug, Clone)]
pub struct ServeJob {
    /// Display label (e.g. the sweep cell name).
    pub label: String,
    /// Model configuration.
    pub model: ModelConfig,
    /// Schedule variant (tiling, time-share regions, attention strategy).
    pub variant: E2eVariant,
    /// The arrival trace to serve.
    pub trace: RequestTrace,
    /// Driver configuration.
    pub cfg: ServeCfg,
}

impl ServeJob {
    /// Runs the job with fresh plans (the serial path).
    pub fn run(&self) -> Result<ServeReport> {
        run_serve(&self.model, &self.variant, &self.trace, &self.cfg)
    }

    /// Runs the job, checking phase plans out of `plans`.
    pub fn run_with(&self, plans: &dyn PlanSource) -> Result<ServeReport> {
        run_serve_with(&self.model, &self.variant, &self.trace, &self.cfg, plans)
    }

    /// Runs the job, checking phase plans out of `plans` and phase
    /// *reports* out of `reports` — the fully memoized path the sweep
    /// service drives, sharing one [`ReportCache`] across jobs.
    pub fn run_memo(&self, plans: &dyn PlanSource, reports: &ReportCache) -> Result<ServeReport> {
        run_serve_memo(
            &self.model,
            &self.variant,
            &self.trace,
            &self.cfg,
            plans,
            reports,
        )
    }
}

/// KV context stub bound into vacant slots (one tile; the dispatch
/// selector's batch width is fixed at freeze time).
const VACANT_CTX: u32 = 1;

/// A live request's slot state.
struct Slot {
    id: u32,
    arrival: u64,
    admitted: u64,
    prompt: u32,
    output: u32,
    /// Prompt tokens prefilled so far.
    processed: u32,
    /// Output tokens generated so far.
    generated: u32,
    first_token: Option<u64>,
}

/// Runs the serving loop over an arrival trace.
///
/// # Errors
///
/// Rejects invalid configurations (zero slots, a token budget below the
/// slot count, a zero prefill chunk, an empty trace) and propagates
/// graph-construction and simulation errors.
pub fn run_serve(
    model: &ModelConfig,
    variant: &E2eVariant,
    trace: &RequestTrace,
    cfg: &ServeCfg,
) -> Result<ServeReport> {
    run_serve_with(model, variant, trace, cfg, &FreshPlans)
}

/// [`run_serve`] with the phase plans checked out of `plans` instead of
/// frozen inline. The report is bit-identical to [`run_serve`] for any
/// correct [`PlanSource`]: a plan is a pure function of `(builder
/// fingerprint, SimConfig minus threads)`, so where it came from cannot
/// show up in the results
/// (`crates/bench/tests/service_conformance.rs` holds the two together).
/// Memoizes QKV and MoE reports in a run-private [`ReportCache`].
///
/// # Errors
///
/// As [`run_serve`], plus any error from `plans`.
pub fn run_serve_with(
    model: &ModelConfig,
    variant: &E2eVariant,
    trace: &RequestTrace,
    cfg: &ServeCfg,
    plans: &dyn PlanSource,
) -> Result<ServeReport> {
    run_serve_memo(model, variant, trace, cfg, plans, &ReportCache::new())
}

/// [`run_serve_with`] with the phase *reports* also checked out of a
/// caller-owned [`ReportCache`] — the entry point sweep services drive,
/// sharing one cache across jobs so a cell's steady-state QKV and MoE
/// iterations replay reports instead of running the engine (see the
/// module docs). The report minus the host-side cache telemetry is
/// bit-identical to [`run_serve`] for any cache mode, including
/// [`ReportCache::disabled`] and the differential
/// [`ReportCache::checked`].
///
/// # Errors
///
/// As [`run_serve_with`], plus a propagated failure from any coalesced
/// cache entry.
pub fn run_serve_memo(
    model: &ModelConfig,
    variant: &E2eVariant,
    trace: &RequestTrace,
    cfg: &ServeCfg,
    plans: &dyn PlanSource,
    reports: &ReportCache,
) -> Result<ServeReport> {
    if cfg.slots == 0 {
        return Err(StepError::Config("serving needs at least one slot".into()));
    }
    if cfg.token_budget < cfg.slots {
        return Err(StepError::Config(format!(
            "token budget {} below slot count {} — a full decode batch would not fit",
            cfg.token_budget, cfg.slots
        )));
    }
    if cfg.prefill_chunk == Some(0) {
        return Err(StepError::Config("prefill chunk must be positive".into()));
    }
    if trace.requests.is_empty() {
        return Err(StepError::Config("serving trace has no requests".into()));
    }

    // One plan per phase against the admitted-set envelope. The graphs
    // are built only inside the `PlanSource` build closures, so a plan
    // hit costs a fingerprint, not a graph build; the rebindable ports
    // are then read by label from the graph of the plan actually handed
    // back, cached or fresh.
    let attn_cfg = AttentionCfg::new(model.clone(), variant.attention);
    let envelope = envelope_kv(trace, cfg);
    let sim_cfg = SimConfig {
        threads: cfg.threads,
        ..SimConfig::default()
    };
    let attn_plan = plans.plan(
        attn_plan_fingerprint(model, variant, &envelope),
        &sim_cfg,
        &mut || attention_graph(&attn_cfg, &envelope),
    )?;
    let attn_ports = AttentionPorts::of(attn_plan.graph())?;
    let mut moe_cfg = MoeCfg::new(model.clone(), variant.tiling);
    if let Some(r) = variant.moe_regions {
        moe_cfg = moe_cfg.with_regions(r);
    }
    let moe_build = moe_build_trace(model, cfg);
    let moe_fingerprint = moe_plan_fingerprint(model, variant, &moe_build);
    let moe_sim_cfg = SimConfig {
        threads: cfg.threads,
        ..moe_sim_config()
    };
    let moe_plan = plans.plan(moe_fingerprint, &moe_sim_cfg, &mut || {
        moe_graph(&moe_cfg, &moe_build)
    })?;
    let moe_ports = MoePorts::of(moe_plan.graph())?;
    // The report-cache keys' plan halves: *content* keys (builder
    // fingerprint × config fingerprint, threads excluded), so replays
    // hit across plan rebuilds, shared plan caches, and thread counts.
    let moe_report_key = plan_content_key(moe_fingerprint, &moe_sim_cfg);
    // `hbm_bytes_per_cycle` sums QKV + attention + MoE traffic, so the
    // utilization denominator must be a peak the three phases *share* —
    // taking any single phase's peak silently misreports the moment a
    // phase config diverges.
    let offchip_peak_bw = sim_cfg.hbm.bytes_per_cycle;
    if moe_sim_config().hbm.bytes_per_cycle != offchip_peak_bw {
        return Err(StepError::Config(format!(
            "phase HBM peaks diverge: qkv/attention {} B/cycle vs moe {} B/cycle — \
             hbm_utilization is only meaningful against one shared peak",
            offchip_peak_bw,
            moe_sim_config().hbm.bytes_per_cycle,
        )));
    }
    let (mut attn_pool, mut moe_pool) = (RunPool::new(), RunPool::new());
    let run_phase = |plan: &SimPlan,
                     binding: &step_sim::RunBinding,
                     pool: &mut RunPool,
                     warmed: bool|
     -> Result<SimReport> {
        let report = if cfg.pooled {
            plan.pooled_run_bound(binding, pool)?
        } else {
            plan.run_bound(binding)?
        };
        if cfg.pooled {
            // Serving's steady state is the same contract as the decode
            // loop's: iterations after warmup reset parked state in
            // place — no plan rebuilds, `run_allocs == 0`.
            debug_assert_steady(&report, warmed);
        }
        Ok(report)
    };

    let chunk_cap = cfg.prefill_chunk.unwrap_or(u32::MAX);
    let mut slots: Vec<Option<Slot>> = (0..cfg.slots).map(|_| None).collect();
    let mut arrivals = trace.requests.iter().copied().peekable();
    let mut waiting: std::collections::VecDeque<step_traces::Request> =
        std::collections::VecDeque::new();
    let mut clock: u64 = 0;
    let mut iterations = Vec::new();
    let mut outcomes: Vec<ServeOutcome> = Vec::new();
    let (mut admitted_total, mut evicted_total, mut shed_total) = (0u32, 0u32, 0u32);
    let (mut busy_cycles, mut offchip_traffic) = (0u64, 0u64);
    let (mut total_fires, mut chan_runs) = (0u64, 0u64);
    let mut truncated = false;
    // Execution telemetry: this run's cache resolutions and the fires
    // the engine actually executed (vs the logical `total_fires`).
    let mut cache_stats = ReportCacheStats::default();
    let mut engine_fires = 0u64;
    // The MoE pool warms on the first *actual* engine run, not the first
    // iteration — under a warm shared cache the early iterations replay
    // and never materialize pooled state.
    let mut moe_warm = false;

    // Counts processing iterations only — idle clock-jumps don't run
    // phases, consume routing seeds, or warm the pools.
    let mut iter: u32 = 0;
    loop {
        // Pull arrivals up to the clock, then admit into free slots in
        // arrival order (lowest free slot index first — deterministic).
        while arrivals.peek().is_some_and(|r| r.arrival <= clock) {
            waiting.push_back(arrivals.next().expect("peeked"));
        }
        // SLO shedding: a waiting request whose queueing delay already
        // exceeds the TTFT objective cannot meet it no matter what the
        // batch does — drop it at the admission boundary instead of
        // spending slots and tokens on a guaranteed SLO violation. The
        // queue is in arrival order, so delays are maximal at the front.
        if let Some(slo) = cfg.ttft_slo {
            while waiting.front().is_some_and(|r| clock - r.arrival > slo) {
                waiting.pop_front();
                shed_total += 1;
            }
        }
        let mut admitted_now = 0u32;
        for slot in slots.iter_mut() {
            if slot.is_none()
                && let Some(r) = waiting.pop_front()
            {
                *slot = Some(Slot {
                    id: r.id,
                    arrival: r.arrival,
                    admitted: clock,
                    prompt: r.prompt,
                    output: r.output,
                    processed: 0,
                    generated: 0,
                    first_token: None,
                });
                admitted_now += 1;
            }
        }
        admitted_total += admitted_now;

        let live = slots.iter().flatten().count() as u32;
        if live == 0 {
            match arrivals.peek() {
                // Idle: jump the clock to the next arrival.
                Some(r) => {
                    clock = r.arrival;
                    continue;
                }
                None => break, // drained
            }
        }
        if iter >= cfg.max_iterations {
            truncated = true;
            break;
        }

        // Token allocation: decode tokens first (one per decoding
        // request — always fits, token_budget >= slots), then prefill
        // chunks in slot order from the remaining budget.
        let mut allocs = vec![0u32; cfg.slots];
        let mut budget = cfg.token_budget;
        for (i, slot) in slots.iter().enumerate() {
            if let Some(s) = slot
                && s.processed == s.prompt
            {
                allocs[i] = 1;
                budget -= 1;
            }
        }
        for (i, slot) in slots.iter().enumerate() {
            if let Some(s) = slot
                && s.processed < s.prompt
            {
                let a = (s.prompt - s.processed).min(chunk_cap).min(budget as u32);
                allocs[i] = a;
                budget -= a as usize;
            }
        }

        // Compose the iteration's batch: per-slot KV contexts (prefill
        // attends over its prefix plus the chunk, decode over its full
        // cache) and the routed token count.
        let slot_ctx: Vec<u32> = slots
            .iter()
            .zip(&allocs)
            .map(|(slot, &a)| match slot {
                Some(s) if s.processed == s.prompt => s.prompt + s.generated,
                // A prefill slot starved of tokens by budget exhaustion
                // does no work this iteration: bind the vacant stub.
                // Binding its `processed` prefix would charge a full
                // attention scan for a slot that processes nothing.
                Some(_) if a == 0 => VACANT_CTX,
                Some(s) => s.processed + a,
                None => VACANT_CTX,
            })
            .collect();
        let decode_tokens: u32 = slots
            .iter()
            .flatten()
            .filter(|s| s.processed == s.prompt)
            .count() as u32;
        let tokens: u32 = allocs.iter().sum();
        debug_assert!(tokens >= 1, "live iteration must process tokens");

        // Run the three phases on the frozen plans. Attention always
        // simulates: under a churning batch the slot-context vector is
        // effectively unique per iteration, so caching it would only pay
        // fingerprint cost for misses. QKV and MoE go through the report
        // cache — their steady-state signatures repeat.
        let kv = KvTrace {
            lengths: slot_ctx.clone(),
        };
        let attn_bind = bind_attention(&attn_cfg, &attn_ports, &kv);
        let attn = run_phase(&attn_plan, &attn_bind, &mut attn_pool, iter > 0)?;
        engine_fires += attn.total_fires();
        let mut routing = iteration_routing(model, cfg, iter, tokens as usize);
        if cfg.moe_canonical {
            // Canonical rebinding: order-permuted routings collapse to
            // one exact cache key (see `ServeCfg::moe_canonical`).
            // Replaying one order's report for another was measured to
            // drift cycles, so only re-simulation of the canonical order
            // is exact.
            routing = canonical_routing(&routing);
        }
        let moe_bind = bind_moe(&moe_ports, model.hidden, &routing);
        let moe = {
            let warmed = moe_warm;
            let replay = reports.replay_or_run(moe_report_key, &moe_bind, &mut || {
                run_phase(&moe_plan, &moe_bind, &mut moe_pool, warmed)
            })?;
            cache_stats.absorb(replay.resolution);
            if replay.resolution == Resolution::Simulated {
                engine_fires += replay.report.total_fires();
                moe_warm = true;
            }
            replay.report
        };
        let qkv = {
            // The QKV graph has no rebindable sources: the plan content
            // key (model dims × token count × config) is the whole
            // identity, bound under the empty binding.
            let key = plan_content_key(qkv_fingerprint(model, tokens as usize), &sim_cfg);
            let replay = reports.replay_or_run(key, &RunBinding::new(), &mut || {
                SimPlan::new(qkv_graph(model, tokens as usize)?, sim_cfg.clone())?.run()
            })?;
            cache_stats.absorb(replay.resolution);
            if replay.resolution == Resolution::Simulated {
                engine_fires += replay.report.total_fires();
            }
            replay.report
        };

        let layer_cycles = qkv.cycles + attn.cycles + moe.cycles;
        let iter_cycles = layer_cycles * model.layers;
        let iter_traffic = qkv.offchip_traffic + attn.offchip_traffic + moe.offchip_traffic;
        let fires = qkv.total_fires() + attn.total_fires() + moe.total_fires();
        let runs = qkv.chan_runs + attn.chan_runs + moe.chan_runs;
        let start = clock;
        clock += iter_cycles;
        busy_cycles += iter_cycles;
        offchip_traffic += iter_traffic * model.layers;
        total_fires += fires;
        chan_runs += runs;

        // Post-iteration request state: prefill progress, token
        // emission, completion, and eviction.
        let mut completed_now = 0u32;
        for (slot, &a) in slots.iter_mut().zip(&allocs) {
            let Some(s) = slot.as_mut() else { continue };
            if s.processed == s.prompt {
                s.generated += 1;
            } else {
                s.processed += a;
                if s.processed == s.prompt {
                    // Prefill done: this iteration produced the first
                    // output token.
                    s.first_token = Some(clock);
                    s.generated = 1;
                }
            }
            if s.generated == s.output {
                outcomes.push(ServeOutcome {
                    id: s.id,
                    arrival: s.arrival,
                    admitted: s.admitted,
                    first_token: s.first_token.expect("completed after first token"),
                    finished: clock,
                    prompt: s.prompt,
                    output: s.output,
                });
                completed_now += 1;
                evicted_total += 1;
                *slot = None;
            }
        }

        iterations.push(ServeIteration {
            iter,
            start,
            live,
            admitted: admitted_now,
            completed: completed_now,
            tokens,
            decode_tokens,
            slot_ctx,
            qkv_cycles: qkv.cycles,
            attn_cycles: attn.cycles,
            moe_cycles: moe.cycles,
            layer_cycles,
            fires,
            chan_runs: runs,
            offchip_traffic: iter_traffic,
        });
        iter += 1;
    }

    outcomes.sort_by_key(|o| o.id);
    let ttft = Percentiles::of(outcomes.iter().map(|o| o.ttft() as f64).collect());
    let tpot = Percentiles::of(
        outcomes
            .iter()
            .filter(|o| o.output > 1)
            .map(ServeOutcome::tpot)
            .collect(),
    );
    let goodput = if clock == 0 {
        0.0
    } else {
        outcomes.len() as f64 * 1e6 / clock as f64
    };
    let hbm_bytes_per_cycle = if busy_cycles == 0 {
        0.0
    } else {
        offchip_traffic as f64 / busy_cycles as f64
    };
    let hbm_utilization = if offchip_peak_bw == 0 {
        0.0
    } else {
        hbm_bytes_per_cycle / offchip_peak_bw as f64
    };
    Ok(ServeReport {
        iterations,
        outcomes,
        total_cycles: clock,
        busy_cycles,
        offchip_traffic,
        admitted_total,
        evicted_total,
        shed_total,
        total_fires,
        chan_runs,
        engine_fires,
        report_cache: cache_stats,
        ttft,
        tpot,
        goodput_per_mcycle: goodput,
        offered_per_mcycle: trace.offered_per_mcycle(),
        hbm_bytes_per_cycle,
        hbm_utilization,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use step_traces::{ArrivalConfig, ArrivalPattern, LenDist, Request, arrival_trace};

    fn tiny() -> ModelConfig {
        ModelConfig {
            name: "tiny",
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

    fn tiny_trace(requests: usize, mean_interarrival: f64, seed: u64) -> RequestTrace {
        arrival_trace(&ArrivalConfig {
            requests,
            mean_interarrival,
            pattern: ArrivalPattern::Poisson,
            prompt: LenDist::new(48.0, 0.5, 8, 128),
            output: LenDist::new(3.0, 0.5, 1, 6),
            seed,
        })
    }

    fn cfg() -> ServeCfg {
        ServeCfg {
            slots: 4,
            token_budget: 16,
            prefill_chunk: Some(16),
            seed: 11,
            ..ServeCfg::default()
        }
    }

    #[test]
    fn drains_every_request_with_sane_latencies() {
        let trace = tiny_trace(10, 50_000.0, 1);
        let v = E2eVariant::static_schedule("s", 4);
        let r = run_serve(&tiny(), &v, &trace, &cfg()).unwrap();
        assert!(!r.truncated);
        assert_eq!(r.outcomes.len(), 10);
        assert_eq!(r.admitted_total, 10);
        assert_eq!(r.evicted_total, 10);
        for (o, req) in r.outcomes.iter().zip(&trace.requests) {
            assert_eq!(o.id, req.id);
            assert!(o.arrival <= o.admitted);
            assert!(o.admitted < o.first_token);
            assert!(o.first_token <= o.finished);
            assert_eq!((o.prompt, o.output), (req.prompt, req.output));
        }
        let ttft = r.ttft.expect("completed requests have TTFT percentiles");
        assert!(ttft.p50 > 0.0 && ttft.p50 <= ttft.p95);
        assert!(ttft.p95 <= ttft.p99);
        assert!(r.goodput_per_mcycle > 0.0);
        assert!(r.hbm_utilization > 0.0 && r.hbm_utilization <= 1.0);
    }

    #[test]
    fn admission_never_exceeds_slots_and_budget_is_honored() {
        let trace = tiny_trace(16, 5_000.0, 2); // heavy load: queueing
        let v = E2eVariant::static_schedule("s", 4);
        let c = cfg();
        let r = run_serve(&tiny(), &v, &trace, &c).unwrap();
        for it in &r.iterations {
            assert!(
                it.live <= c.slots as u32,
                "iter {}: live {}",
                it.iter,
                it.live
            );
            assert!(
                it.tokens as usize <= c.token_budget,
                "iter {}: tokens {}",
                it.iter,
                it.tokens
            );
            assert!(it.decode_tokens <= it.live);
            assert_eq!(it.slot_ctx.len(), c.slots);
        }
        // No starvation: everything admitted eventually completes under
        // the drain tail.
        assert_eq!(r.admitted_total, 16);
        assert_eq!(r.evicted_total, 16);
        assert_eq!(r.outcomes.len(), 16);
    }

    #[test]
    fn ttft_slo_sheds_hopeless_waiters_deterministically() {
        let trace = tiny_trace(16, 5_000.0, 2); // heavy load: queueing
        let v = E2eVariant::static_schedule("s", 4);
        let baseline = run_serve(&tiny(), &v, &trace, &cfg()).unwrap();
        assert_eq!(baseline.shed_total, 0, "no SLO, nothing shed");
        let c = ServeCfg {
            ttft_slo: Some(0),
            ..cfg()
        };
        let r = run_serve(&tiny(), &v, &trace, &c).unwrap();
        assert!(r.shed_total > 0, "tight SLO under heavy load must shed");
        assert_eq!(r.admitted_total + r.shed_total, 16);
        assert_eq!(r.outcomes.len(), r.admitted_total as usize);
        // Shedding happens before admission at the same clock, so every
        // admitted request met the (zero) queueing bound.
        for o in &r.outcomes {
            assert_eq!(o.admitted, o.arrival, "queue delay within SLO");
        }
        let rerun = run_serve(&tiny(), &v, &trace, &c).unwrap();
        assert_eq!(r, rerun);
    }

    #[test]
    fn same_seed_reruns_are_bit_identical() {
        let trace = tiny_trace(8, 20_000.0, 3);
        let v = E2eVariant::static_schedule("s", 4);
        let a = run_serve(&tiny(), &v, &trace, &cfg()).unwrap();
        let b = run_serve(&tiny(), &v, &trace, &cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_prefill_bounds_per_iteration_prefill() {
        let trace = tiny_trace(6, 10_000.0, 4);
        let v = E2eVariant::static_schedule("s", 4);
        let chunked = run_serve(
            &tiny(),
            &v,
            &trace,
            &ServeCfg {
                prefill_chunk: Some(4),
                ..cfg()
            },
        )
        .unwrap();
        let whole = run_serve(
            &tiny(),
            &v,
            &trace,
            &ServeCfg {
                prefill_chunk: None,
                ..cfg()
            },
        )
        .unwrap();
        // Chunking spreads prefill over more iterations.
        assert!(chunked.iterations.len() >= whole.iterations.len());
        assert_eq!(chunked.outcomes.len(), whole.outcomes.len());
        // Both schedules respect the budget; the chunked one also caps
        // per-request prefill progress per iteration at the chunk.
        let max_prefill = chunked
            .iterations
            .iter()
            .map(|it| it.tokens - it.decode_tokens)
            .max()
            .unwrap_or(0);
        assert!(max_prefill <= 4 * 4, "prefill tokens {max_prefill}");
    }

    #[test]
    fn starved_prefill_slot_binds_the_vacant_stub() {
        let requests = vec![
            Request {
                id: 0,
                arrival: 0,
                prompt: 1,
                output: 10,
            },
            Request {
                id: 1,
                arrival: 0,
                prompt: 1,
                output: 2,
            },
            Request {
                id: 2,
                arrival: 0,
                prompt: 8,
                output: 1,
            },
            Request {
                id: 3,
                arrival: 1,
                prompt: 4,
                output: 1,
            },
        ];
        let trace = RequestTrace { requests };
        let c = ServeCfg {
            slots: 3,
            token_budget: 3,
            prefill_chunk: Some(2),
            ..cfg()
        };
        let v = E2eVariant::static_schedule("s", 4);
        let r = run_serve(&tiny(), &v, &trace, &c).unwrap();
        // Iteration 2: slot 0 decodes (1 token), slot 1 admits request 3
        // whose chunk takes the whole remaining budget, and slot 2's live
        // prefill (2 of 8 prompt tokens in) gets zero tokens — it must
        // bind the vacant stub, not its 2-token prefix.
        let it = &r.iterations[2];
        assert_eq!((it.live, it.tokens), (3, 3));
        assert_eq!(
            it.slot_ctx[2], VACANT_CTX,
            "starved prefill slot charged attention work"
        );
        assert_eq!(r.outcomes.len(), 4, "starved request must still drain");
    }

    #[test]
    fn phase_sim_configs_share_one_offchip_peak() {
        // `hbm_utilization` divides summed three-phase traffic by one
        // peak, so the phase sim configs must agree on it; the driver
        // rejects divergence at run time and this pins it at test time.
        assert_eq!(
            moe_sim_config().hbm.bytes_per_cycle,
            SimConfig::default().hbm.bytes_per_cycle,
            "serving phase configs diverged on HBM peak bandwidth"
        );
        let trace = tiny_trace(6, 20_000.0, 8);
        let v = E2eVariant::static_schedule("s", 4);
        let r = run_serve(&tiny(), &v, &trace, &cfg()).unwrap();
        let peak = SimConfig::default().hbm.bytes_per_cycle as f64;
        assert!(
            (r.hbm_utilization - r.hbm_bytes_per_cycle / peak).abs() < 1e-12,
            "utilization not computed against the shared peak"
        );
    }

    #[test]
    fn percentiles_distinguish_empty_population_from_zero() {
        assert_eq!(Percentiles::of(vec![]), None);
        let one = Percentiles::of(vec![4.0]).unwrap();
        assert_eq!((one.p50, one.p95, one.p99), (4.0, 4.0, 4.0));
        // An all-single-token-output trace has no TPOT population at all
        // — previously indistinguishable from a measured 0.0.
        let trace = arrival_trace(&ArrivalConfig {
            requests: 5,
            mean_interarrival: 30_000.0,
            pattern: ArrivalPattern::Poisson,
            prompt: LenDist::new(24.0, 0.4, 8, 64),
            output: LenDist::new(1.0, 0.0, 1, 1),
            seed: 12,
        });
        let v = E2eVariant::static_schedule("s", 4);
        let r = run_serve(&tiny(), &v, &trace, &cfg()).unwrap();
        assert_eq!(r.outcomes.len(), 5);
        assert!(r.ttft.is_some());
        assert_eq!(r.tpot, None, "no multi-token outputs → no population");
    }

    #[test]
    fn rejects_invalid_configs() {
        let trace = tiny_trace(2, 1_000.0, 5);
        let v = E2eVariant::static_schedule("s", 4);
        let m = tiny();
        assert!(run_serve(&m, &v, &trace, &ServeCfg { slots: 0, ..cfg() }).is_err());
        assert!(
            run_serve(
                &m,
                &v,
                &trace,
                &ServeCfg {
                    token_budget: 2,
                    slots: 4,
                    ..cfg()
                }
            )
            .is_err()
        );
        assert!(
            run_serve(
                &m,
                &v,
                &trace,
                &ServeCfg {
                    prefill_chunk: Some(0),
                    ..cfg()
                }
            )
            .is_err()
        );
        assert!(run_serve(&m, &v, &RequestTrace { requests: vec![] }, &cfg()).is_err());
    }

    #[test]
    fn truncation_is_reported() {
        let trace = tiny_trace(8, 5_000.0, 6);
        let v = E2eVariant::static_schedule("s", 4);
        let r = run_serve(
            &tiny(),
            &v,
            &trace,
            &ServeCfg {
                max_iterations: 2,
                ..cfg()
            },
        )
        .unwrap();
        assert!(r.truncated);
        assert!(r.outcomes.len() < 8);
    }
}
