//! LLM layers expressed as STeP programs, with the schedules evaluated in
//! the paper (§5).
//!
//! - [`config`] — model configurations (Mixtral-8x7B, Qwen3-30B-A3B) and
//!   hardware-facing constants;
//! - [`swiglu`] — the SwiGLU layer used for simulator validation (§4.5,
//!   Fig 8), parameterized by batch/intermediate tile sizes;
//! - [`moe`] — the Mixture-of-Experts layer with static tiling, dynamic
//!   tiling (§5.2), and configuration time-multiplexing (§5.3);
//! - [`attention`] — decode attention with static coarse, static
//!   interleaved, and dynamic parallelization (§5.4, Fig 16);
//! - [`e2e`] — full decoder-layer and model-level composition (§5.5);
//! - [`phases`] — the per-iteration rebinding and steady-state machinery
//!   shared by the multi-iteration drivers;
//! - [`serving`] — the continuous-batching serving driver.
//!
//! Every builder returns a plain [`step_core::Graph`]; run it with
//! [`step_sim::SimPlan`] (`SimPlan::new(graph, cfg)?.run()`).
//!
//! # Serving workloads
//!
//! [`serving::ServeJob`] drives an open-loop request trace
//! ([`step_traces::arrival_trace`]) through per-iteration admission (up
//! to a slot budget), eviction of finished requests, and prefill/decode
//! interleaving with optional chunked prefill. The churning batch rides
//! on [`step_sim::RunBinding`] rebinding over one frozen plan per phase,
//! so steady-state iterations are alloc-free. Reported metrics: TTFT
//! (arrival to first output token, queueing included), TPOT (first
//! token to completion per remaining output token), goodput (completed
//! requests per million cycles), and HBM pressure (off-chip bytes per
//! busy cycle). Every serving run is a pure function of
//! `(model, variant, trace, ServeCfg minus threads)` — bit-identical
//! across reruns and thread counts, with every pooled phase run equal
//! to a fresh run of the same plan and binding.
//!
//! Steady-state iterations additionally memoize their QKV and MoE
//! reports through a [`step_sim::ReportCache`] (reports are pure
//! functions of `(plan, binding)`, so replay is exact), each keyed by
//! what determines its run: [`phases::qkv_fingerprint`] keys the
//! bindingless QKV phase by its token count,
//! [`serving::moe_report_key`] keys the MoE phase by the iteration's
//! routing sample (iterations of a few tokens) or its inputs (any
//! other), so a hit builds no binding, and
//! [`serving::ServeReport::engine_fires`] reports the fires the engine
//! actually executed versus the logical total.
//! `tests/report_memo_conformance.rs` holds cached, uncached and
//! differentially checked runs to the same report.

pub mod attention;
pub mod config;
pub mod e2e;
pub mod moe;
pub mod phases;
pub mod serving;
pub mod swiglu;

pub use config::ModelConfig;
