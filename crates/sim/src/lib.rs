//! Cycle-approximate simulator for STeP programs (§4.3).
//!
//! The paper implements its simulator on the Dataflow Abstract Machine
//! (DAM) framework: every operator executes asynchronously with a local
//! clock, communicating over bounded, latency-carrying FIFOs; off-chip
//! accesses go through an HBM timing node and higher-order operators charge
//! a roofline cost `max(in_bytes/mem_bw, flops/compute_bw,
//! out_bytes/mem_bw)` per element. This crate reproduces those semantics
//! with a deterministic conservative event model that runs **sharded and
//! in parallel**:
//!
//! - [`channel::Channel`] — bounded FIFOs carrying **runs**: a repeated
//!   token paired with a [`run::TimeRun`] of ready times (`start`,
//!   `stride`, `count`), so a burst of identical tokens is one queue
//!   entry, one payload clone, and O(1) arithmetic. Backpressure is
//!   modelled *in time* (a sender blocked on a full queue resumes at
//!   the receiver's dequeue time) and the one-token-per-cycle port rate
//!   is kept by arithmetic: a run of `n` sent at `t` occupies `n` slots
//!   with send times `t..t+n` under the exact per-token recurrence,
//!   never materialized. Bulk APIs ([`channel::Channel::send_run`],
//!   [`channel::Channel::pop_run`], [`channel::pop_zip_runs`]) are each
//!   defined as the per-token loop they replace —
//!   `tests/prop_channel_runs.rs` checks the equivalence against a
//!   per-token reference channel. Runs coalesce only provably
//!   interchangeable tokens (`Token::coalesces_with`: phantom tiles of
//!   one shape, payload-aliased dense tiles — dense payloads sit behind
//!   an `Arc`, making every fan-out clone O(1)). A cross-shard edge is
//!   a pair of halves: the writer half holds send credits and an
//!   in-flight mailbox, the reader half the receiving FIFO; the engine
//!   shuttles token runs and freed-slot credit runs between them at
//!   coordination barriers;
//! - [`hbm::Hbm`] — a bank/row/bus DRAM timing model standing in for
//!   Ramulator 2.0 (README "Substitutions" gives the argument). Sharded
//!   runs issue [`hbm::HbmRequest`]s that the engine commits at each
//!   barrier in `(time, node, seq)` order — a total order independent of
//!   worker scheduling;
//! - [`arena::Arena`] — the (shard-local) on-chip scratchpad backing
//!   `Bufferize` / `Streamify`; sharded runs log timestamped alloc/free
//!   events and the report merges them in simulated-time order, so the
//!   whole-accelerator peak is host-order-independent;
//! - [`arena::SharedStore`] — optional dense off-chip contents so that
//!   loads return real data in functional tests (phantom otherwise,
//!   lock-free for timing runs);
//! - [`nodes`] — an executor per STeP operator implementing both the
//!   functional token semantics of §3.2 and the timing model of §4.3,
//!   with a readiness surface ([`nodes::SimNode::blocked_on`]) reporting
//!   what blocked a stalled node. Fire loops are *bulk*: a step consumes
//!   and produces whole runs (per-token costs folded into the pop
//!   pacing), capped by the fire budget and port-staging allowance so
//!   the schedule — which fire consumes which token — is bit-identical
//!   to per-token execution. Off-chip operators are two-phase
//!   request/response state machines driven through [`nodes::HbmPort`];
//!   completions coalesce into [`nodes::RespRun`]s, and a pipelined
//!   burst of tile reads emits as one run;
//! - [`engine::SimPlan`] — the immutable, reusable execution plan, and
//!   the sharded event-driven scheduler that runs it. The lifecycle is
//!   **freeze → compile → pooled-run**. [`engine::SimPlan::new`] does
//!   everything that depends only on `(graph, SimConfig)`:
//!   [`step_core::partition`] cuts the graph at high-slack channels
//!   into connected shards (small graphs stay monolithic), every
//!   shard's channel topology is laid out, and each operator is
//!   *compiled* into a static-dispatch executor variant
//!   ([`nodes::CompiledNode`]) with its `Io` edge ids pre-resolved to
//!   shard-local channel slots — the inner fire loop dispatches with
//!   one `match` instead of a vtable call, and per-run setup clones
//!   prototypes instead of walking the graph. [`engine::SimPlan::run`]
//!   / [`engine::SimPlan::run_bound`] materialize the per-run state
//!   (executors, channel queues, arenas, ready-sets, HBM ledger) fresh;
//!   [`engine::SimPlan::pooled_run`] /
//!   [`engine::SimPlan::pooled_run_bound`] instead reuse the state
//!   parked in an [`engine::RunPool`], resetting every queue, outbox,
//!   ready set, and ledger *in place* so steady-state reruns and sweep
//!   points are allocation-free — the pool owns the buffers between
//!   runs; the report's [`engine::SimReport::run_allocs`] /
//!   [`engine::SimReport::pool_resets`] counters say which path ran,
//!   and CI pins `run_allocs == 0` on reused runs. Both paths are
//!   bit-identical. **Sharing contract:** a plan is read-only during
//!   execution, so `Arc<SimPlan>` can be run from many threads
//!   concurrently, each run bit-identical to a fresh build (a
//!   `RunPool` is per-driver, not shared). [`engine::RunBinding`]
//!   carries per-run inputs — **source rebinding** (replacement token
//!   streams for `Source` nodes, validated against the declared stream
//!   rank) and functional preloads — so sweeps and decode loops drive
//!   one plan with many trace iterations instead of paying graph +
//!   partition + topology per point. [`engine::Simulation`] remains
//!   the one-shot wrapper (`Simulation::new(graph, cfg)?.run()`).
//!
//!   At run time, each shard runs a wake-list wave scheduler over its
//!   nodes, and shards synchronize at deterministic barriers that
//!   exchange cross-shard tokens, commit the off-chip batch, and
//!   advance the conservative execution horizon.
//!   `SimConfig::threads` maps shards onto worker threads.
//!
//!   The barrier protocol stays off the hot path. **Barrier elision**:
//!   each shard owns an effective horizon that the coordinator raises
//!   to the shard's *cut-slack allowance* — one cycle below the minimum
//!   time floor of its incoming cut channels, the earliest instant a
//!   cross-shard token could still arrive — so shards whose cut channels
//!   all have slack run many horizon windows back-to-back between
//!   barriers (within the allowance, arrival-order execution is
//!   *exact*, tighter than the ±`horizon_step` faithfulness of barrier
//!   stepping). **Wake deduplication**: sharded shards use a
//!   generation-stamped ready set — every wake targets the next wave and
//!   a node is queued at most once per wave however many channel events
//!   it receives. **Off-chip fast path**: a sub-round with exactly one
//!   runnable shard runs on the coordinator with the monolithic
//!   immediate-commit HBM sink — single-fire off-chip operators, no
//!   barrier waits. [`stats::SchedCounters`] reports
//!   sub-rounds, elided and solo runs, and absorbed wakes; `sched_bench
//!   --json` asserts a fire budget on them in CI.
//!
//!   **Determinism contract:** every reported metric is a pure function
//!   of `(graph, SimConfig minus threads, RunBinding)`. Shard sub-rounds
//!   see no external mutation; every barrier action is ordered by stable
//!   keys; and the elision allowances, solo-shard schedule, and wake
//!   stamps are computed from barrier-time shard state in the
//!   coordinator's exclusive window — so parallel runs are bit-identical
//!   to the same plan on one thread at any worker count
//!   (`crates/sim/tests/conformance.rs` checks this across every model
//!   builder), re-running or concurrently running a plan is
//!   bit-identical to rebuilding it (`crates/sim/tests/plan_reuse.rs`),
//!   and fresh and pooled runs at every thread count reproduce pinned
//!   golden fingerprints (`crates/sim/tests/compiled_conformance.rs`).
//!   Single-shard
//!   plans take the legacy immediate-commitment path bit for bit.
//!   Deadlocks are detected and reported with each blocked node's
//!   blocking edge. [`engine::SimReport`] carries cycles, off-chip
//!   traffic, measured on-chip memory, utilization,
//!   scheduler-efficiency counters
//!   ([`engine::SimReport::total_fires`]), the bulk-transport
//!   compression ratio ([`engine::SimReport::chan_tokens`] /
//!   [`engine::SimReport::chan_runs`]), and recorded sink streams.
//!   `SimConfig::profile_fires` additionally attributes host wall-clock
//!   per node (`fire_profile` consumes it) — host-dependent and never
//!   part of any determinism check.
//!
//! The determinism contract is also what makes reports *memoizable*:
//! [`report_cache::ReportCache`] keys a shared cache by
//! `(plan content key, RunBinding::fingerprint)` and replays a cloned
//! [`engine::SimReport`] instead of running the engine when an
//! iteration's signature repeats — single-flight under concurrency,
//! with a differential [`report_cache::ReportCache::checked`] mode that
//! re-simulates every hit to assert the replay guarantee. The serving driver in
//! `step-models` routes its QKV and MoE phases through it.
//!
//! # Example
//!
//! ```
//! use step_core::graph::GraphBuilder;
//! use step_core::ops::LinearLoadCfg;
//! use step_sim::{RunPool, SimConfig, SimPlan};
//!
//! let mut g = GraphBuilder::new();
//! let trigger = g.unit_source(1);
//! let tiles = g.linear_offchip_load(
//!     &trigger,
//!     LinearLoadCfg::new(0, (64, 256), (64, 64)),
//! ).unwrap();
//! g.linear_offchip_store(&tiles, 0x10_0000).unwrap();
//! // Freeze + compile the plan once (graph analysis, partition,
//! // channel topology, executor compilation)…
//! let plan = SimPlan::new(g.finish(), SimConfig::default()).unwrap();
//! // …then run it as many times as needed; every run is bit-identical,
//! // and pooled reruns reset the parked state in place instead of
//! // allocating it again.
//! let mut pool = RunPool::new();
//! let report = plan.pooled_run(&mut pool).unwrap();
//! let again = plan.pooled_run(&mut pool).unwrap();
//! assert_eq!(report.offchip_traffic, 2 * 64 * 256 * 2); // load + store
//! assert_eq!(report.cycles, again.cycles);
//! assert_eq!((report.run_allocs, report.pool_resets), (1, 0));
//! assert_eq!((again.run_allocs, again.pool_resets), (0, 1));
//! assert!(report.cycles > 0);
//! ```

pub mod arena;
pub mod cancel;
pub mod channel;
pub mod config;
pub mod engine;
pub mod fingerprint;
pub mod hbm;
pub mod nodes;
pub mod report_cache;
pub mod run;
pub mod stats;

pub use cancel::CancelToken;
pub use config::{HbmConfig, SimConfig};
pub use engine::{RunBinding, RunLimits, RunPool, SimPlan, SimReport, Simulation};
pub use fingerprint::Fingerprint;
pub use report_cache::{Replay, ReportCache, ReportCacheStats, Resolution, plan_content_key};
pub use stats::NodeStats;
