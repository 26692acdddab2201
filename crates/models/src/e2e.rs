//! End-to-end decoder models (§5.5, Fig 17).
//!
//! Each decoder layer consists of QKV generation (dense GEMM), attention,
//! and the MoE block; the model stacks `layers` such layers executed
//! repeatedly with layer-specific weights, so end-to-end latency is the
//! per-layer latency times the layer count. We simulate the three phases
//! as separate STeP graphs and sum their latencies: decode phases are
//! serialized by data dependence, which makes the sum a faithful (slightly
//! conservative) composition that affects every variant identically —
//! the *relative* comparisons of Fig 17 are what the figure reports.

use crate::attention::{
    AttentionCfg, ParallelStrategy, attention_graph, attention_graph_with_ports,
};
use crate::config::ModelConfig;
use crate::moe::{MoeCfg, Tiling, moe_graph, moe_graph_with_ports};
use crate::phases::{bind_attention, bind_moe, debug_assert_steady, moe_sim_config, qkv_graph};
use step_core::Result;
use step_sim::{RunPool, SimConfig, SimPlan, SimReport};
use step_traces::{KvTrace, KvTraceConfig, RoutingConfig, Variability, expert_routing, kv_lengths};

/// One end-to-end schedule variant (a column of Fig 17).
#[derive(Debug, Clone)]
pub struct E2eVariant {
    /// Display name ("Static (Mem-matched)", ...).
    pub name: String,
    /// MoE batch tiling.
    pub tiling: Tiling,
    /// MoE time-multiplexing regions (None = fully spatial).
    pub moe_regions: Option<u32>,
    /// Attention dispatch strategy.
    pub attention: ParallelStrategy,
}

impl E2eVariant {
    /// A static baseline with the given MoE tile size.
    pub fn static_schedule(name: &str, tile: u64) -> E2eVariant {
        E2eVariant {
            name: name.to_string(),
            tiling: Tiling::Static { tile },
            moe_regions: None,
            attention: ParallelStrategy::StaticInterleaved,
        }
    }

    /// The fully dynamic schedule (dynamic tiling + dynamic
    /// parallelization), optionally with configuration time-multiplexing.
    pub fn dynamic_schedule(moe_regions: Option<u32>) -> E2eVariant {
        E2eVariant {
            name: "Dynamic".to_string(),
            tiling: Tiling::Dynamic,
            moe_regions,
            attention: ParallelStrategy::Dynamic,
        }
    }
}

/// Per-phase and whole-model results.
#[derive(Debug, Clone)]
pub struct E2eReport {
    /// QKV + output projection cycles.
    pub qkv_cycles: u64,
    /// Attention cycles.
    pub attn_cycles: u64,
    /// MoE cycles.
    pub moe_cycles: u64,
    /// One decoder layer (sum of phases).
    pub layer_cycles: u64,
    /// Full model (layer x layer count).
    pub total_cycles: u64,
    /// Measured on-chip memory across the three phase graphs, bytes.
    pub onchip_bytes: u64,
    /// Allocated compute across the three phase graphs, FLOPs/cycle.
    pub allocated_compute: u64,
    /// Whole-model off-chip traffic, bytes.
    pub offchip_traffic: u64,
}

fn run_graph(graph: step_core::Graph) -> Result<SimReport> {
    SimPlan::new(graph, SimConfig::default())?.run()
}

fn run_moe_graph(graph: step_core::Graph) -> Result<SimReport> {
    SimPlan::new(graph, moe_sim_config())?.run()
}

/// Runs one end-to-end variant.
///
/// # Errors
///
/// Propagates graph-construction and simulation errors.
pub fn run_e2e(
    model: &ModelConfig,
    batch: usize,
    variant: &E2eVariant,
    seed: u64,
) -> Result<E2eReport> {
    // QKV generation + output projection as one fused dense GEMM.
    let qkv = run_graph(qkv_graph(model, batch)?)?;

    // Attention over a median-variability KV trace (§5.5).
    let kv = kv_lengths(&KvTraceConfig {
        batch,
        variability: Variability::Medium,
        median_len: 1024.0,
        seed,
        ..KvTraceConfig::default()
    });
    let attn_cfg = AttentionCfg::new(model.clone(), variant.attention);
    let attn = run_graph(attention_graph(&attn_cfg, &kv)?)?;

    // MoE with the variant's tiling / multiplexing.
    let routing = expert_routing(&RoutingConfig {
        experts: model.experts,
        top_k: model.top_k,
        batch,
        skew: 0.8,
        seed: seed ^ 0x5eed,
    });
    let mut moe_cfg = MoeCfg::new(model.clone(), variant.tiling);
    if let Some(r) = variant.moe_regions {
        moe_cfg = moe_cfg.with_regions(r);
    }
    let moe = run_moe_graph(moe_graph(&moe_cfg, &routing)?)?;

    let layer_cycles = qkv.cycles + attn.cycles + moe.cycles;
    Ok(E2eReport {
        qkv_cycles: qkv.cycles,
        attn_cycles: attn.cycles,
        moe_cycles: moe.cycles,
        layer_cycles,
        total_cycles: layer_cycles * model.layers,
        onchip_bytes: qkv.onchip_memory + attn.onchip_memory + moe.onchip_memory,
        allocated_compute: qkv.allocated_compute + attn.allocated_compute + moe.allocated_compute,
        offchip_traffic: (qkv.offchip_traffic + attn.offchip_traffic + moe.offchip_traffic)
            * model.layers,
    })
}

// ---------------------------------------------------------------------
// Multi-iteration decode driver
// ---------------------------------------------------------------------

/// Configuration of the multi-iteration decode driver.
#[derive(Debug, Clone)]
pub struct DecodeCfg {
    /// Decode iterations to step the batch through (every request's KV
    /// cache grows by one token per iteration).
    pub iterations: u32,
    /// Median prompt length at iteration 0, in tokens.
    pub median_prompt: f64,
    /// KV-length variability class of the prompt batch.
    pub variability: Variability,
    /// RNG seed (prompt lengths + per-iteration routing).
    pub seed: u64,
}

impl Default for DecodeCfg {
    fn default() -> DecodeCfg {
        DecodeCfg {
            iterations: 4,
            median_prompt: 1024.0,
            variability: Variability::Medium,
            seed: 7,
        }
    }
}

/// One decode iteration's simulated phases.
#[derive(Debug, Clone)]
pub struct DecodeIteration {
    /// Iteration index (0 = first decode step after prefill).
    pub iter: u32,
    /// QKV + output projection cycles.
    pub qkv_cycles: u64,
    /// Attention cycles over the iteration's grown KV caches.
    pub attn_cycles: u64,
    /// MoE cycles under the iteration's re-sampled routing.
    pub moe_cycles: u64,
    /// One decoder layer (sum of phases).
    pub layer_cycles: u64,
    /// Total KV tokens attended over this iteration.
    pub kv_tokens: u64,
    /// Experts receiving at least one token this iteration.
    pub active_experts: usize,
}

/// The decode driver's aggregate results.
#[derive(Debug, Clone)]
pub struct DecodeReport {
    /// Per-iteration phase breakdowns.
    pub iterations: Vec<DecodeIteration>,
    /// Whole-model cycles across all iterations (`Σ layer × layers`).
    pub total_cycles: u64,
    /// Whole-model off-chip traffic across all iterations, bytes.
    pub offchip_traffic: u64,
}

/// Steps a batch through `cfg.iterations` successive decode iterations —
/// the first serving-shaped workload in the repo — reusing **one**
/// [`SimPlan`] per phase for the whole loop.
///
/// Per iteration, only the inputs change, and they ride in on source
/// rebinding ([`step_sim::RunBinding::bind_source`]):
///
/// - every request's KV cache grows by one token, so the attention
///   plan's `attn.requests` source is rebound with the iteration's
///   longer tile-address stream
///   ([`crate::attention::attention_request_tokens`]; the plan
///   is built with [`AttentionCfg::kv_headroom`] so its dispatch queues
///   already fit the final iteration);
/// - expert routing is re-sampled, so the MoE plan's `moe.router`
///   selector source is rebound with the fresh sample
///   ([`crate::moe::moe_router_tokens`]);
/// - QKV is one token per request regardless of iteration — the same
///   plan runs unbound.
///
/// Graph construction, `step_core::partition`, and channel-topology
/// layout run once per phase, not once per iteration. Each phase also
/// keeps a [`RunPool`], so after the first iteration materializes the
/// run state, later iterations reset it in place
/// ([`SimPlan::pooled_run_bound`]) instead of reallocating channels and
/// ledgers — the steady-state loop is allocation-free per run.
///
/// # Errors
///
/// Propagates graph-construction and simulation errors; rejects
/// `iterations == 0`.
pub fn run_decode(
    model: &ModelConfig,
    batch: usize,
    variant: &E2eVariant,
    cfg: &DecodeCfg,
) -> Result<DecodeReport> {
    if cfg.iterations == 0 {
        return Err(step_core::StepError::Config(
            "decode driver needs at least one iteration".into(),
        ));
    }
    // Prompt lengths at iteration 0; request r attends over
    // `prompt[r] + i` tokens at iteration i.
    let prompts = kv_lengths(&KvTraceConfig {
        batch,
        variability: cfg.variability,
        median_len: cfg.median_prompt,
        seed: cfg.seed,
        ..KvTraceConfig::default()
    });
    let kv_at = |i: u32| KvTrace {
        lengths: prompts.lengths.iter().map(|&l| l + i).collect(),
    };
    let routing_at = |i: u32| {
        expert_routing(&RoutingConfig {
            experts: model.experts,
            top_k: model.top_k,
            batch,
            skew: 0.8,
            // Iteration 0 matches `run_e2e`'s trace; later iterations
            // re-sample deterministically.
            seed: cfg.seed ^ 0x5eed ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        })
    };

    // Build each phase's plan exactly once.
    let attn_cfg =
        AttentionCfg::new(model.clone(), variant.attention).with_kv_headroom(cfg.iterations - 1);
    let (attn_graph, attn_ports) = attention_graph_with_ports(&attn_cfg, &kv_at(0))?;
    let attn_plan = SimPlan::new(attn_graph, SimConfig::default())?;
    let mut moe_cfg = MoeCfg::new(model.clone(), variant.tiling);
    if let Some(r) = variant.moe_regions {
        moe_cfg = moe_cfg.with_regions(r);
    }
    let (moe_g, moe_ports) = moe_graph_with_ports(&moe_cfg, &routing_at(0))?;
    let moe_plan = SimPlan::new(moe_g, moe_sim_config())?;
    // QKV is one token per request regardless of iteration: simulate
    // the count once up front and reuse the report every iteration
    // (reruns are bit-identical anyway, so this changes nothing but
    // wall time).
    let qkv = SimPlan::new(qkv_graph(model, batch)?, SimConfig::default())?.run()?;

    let mut iterations = Vec::with_capacity(cfg.iterations as usize);
    let (mut total_cycles, mut offchip_traffic) = (0u64, 0u64);
    let (mut attn_pool, mut moe_pool) = (RunPool::new(), RunPool::new());
    for i in 0..cfg.iterations {
        let kv = kv_at(i);
        let routing = routing_at(i);
        let attn_bind = bind_attention(&attn_cfg, &attn_ports, &kv);
        let attn = attn_plan.pooled_run_bound(&attn_bind, &mut attn_pool)?;
        let moe_bind = bind_moe(&moe_ports, model.hidden, &routing);
        let moe = moe_plan.pooled_run_bound(&moe_bind, &mut moe_pool)?;
        // Steady-state contract: after the warmup iteration, pooled runs
        // reset parked state in place — no rebuilds, no reallocation.
        debug_assert_steady(&attn, i > 0);
        debug_assert_steady(&moe, i > 0);
        let layer_cycles = qkv.cycles + attn.cycles + moe.cycles;
        total_cycles += layer_cycles * model.layers;
        offchip_traffic +=
            (qkv.offchip_traffic + attn.offchip_traffic + moe.offchip_traffic) * model.layers;
        iterations.push(DecodeIteration {
            iter: i,
            qkv_cycles: qkv.cycles,
            attn_cycles: attn.cycles,
            moe_cycles: moe.cycles,
            layer_cycles,
            kv_tokens: kv.total(),
            active_experts: routing.active_experts(),
        });
    }
    Ok(DecodeReport {
        iterations,
        total_cycles,
        offchip_traffic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn e2e_runs_and_scales_with_layers() {
        let r = run_e2e(&tiny(), 8, &E2eVariant::static_schedule("s", 4), 1).unwrap();
        assert_eq!(r.total_cycles, r.layer_cycles * 2);
        assert_eq!(r.layer_cycles, r.qkv_cycles + r.attn_cycles + r.moe_cycles);
        assert!(r.onchip_bytes > 0);
        assert!(r.allocated_compute > 0);
    }

    #[test]
    fn dynamic_variant_runs_with_regions() {
        let r = run_e2e(&tiny(), 8, &E2eVariant::dynamic_schedule(Some(2)), 1).unwrap();
        assert!(r.moe_cycles > 0);
        let spatial = run_e2e(&tiny(), 8, &E2eVariant::dynamic_schedule(None), 1).unwrap();
        assert!(r.allocated_compute < spatial.allocated_compute);
    }

    #[test]
    fn decode_driver_steps_kv_and_reuses_plans() {
        let cfg = DecodeCfg {
            iterations: 3,
            median_prompt: 64.0,
            variability: Variability::Low,
            seed: 1,
        };
        let r = run_decode(&tiny(), 8, &E2eVariant::static_schedule("s", 4), &cfg).unwrap();
        assert_eq!(r.iterations.len(), 3);
        // Every request's KV cache grows by exactly one token per
        // iteration (batch 8).
        assert!(
            r.iterations
                .windows(2)
                .all(|w| w[1].kv_tokens == w[0].kv_tokens + 8)
        );
        // QKV is iteration-independent: the same unbound plan must
        // reproduce itself bit for bit.
        assert!(
            r.iterations
                .windows(2)
                .all(|w| w[0].qkv_cycles == w[1].qkv_cycles)
        );
        assert_eq!(
            r.total_cycles,
            r.iterations
                .iter()
                .map(|it| it.layer_cycles * 2)
                .sum::<u64>()
        );
    }

    #[test]
    fn decode_iteration_zero_matches_fresh_built_e2e() {
        // Iteration 0 plays exactly the traces `run_e2e` builds fresh
        // graphs for (same seeds, headroom 0 at iterations=1), so the
        // reused-plan path must reproduce every phase's cycles exactly.
        let model = tiny();
        let v = E2eVariant::static_schedule("s", 4);
        let fresh = run_e2e(&model, 8, &v, 7).unwrap();
        let cfg = DecodeCfg {
            iterations: 1,
            ..DecodeCfg::default()
        };
        let reused = run_decode(&model, 8, &v, &cfg).unwrap();
        let it = &reused.iterations[0];
        assert_eq!(
            (it.qkv_cycles, it.attn_cycles, it.moe_cycles),
            (fresh.qkv_cycles, fresh.attn_cycles, fresh.moe_cycles)
        );
    }

    #[test]
    fn decode_dynamic_variant_runs() {
        let cfg = DecodeCfg {
            iterations: 2,
            median_prompt: 64.0,
            variability: Variability::High,
            seed: 3,
        };
        let r = run_decode(&tiny(), 8, &E2eVariant::dynamic_schedule(Some(2)), &cfg).unwrap();
        assert_eq!(r.iterations.len(), 2);
        assert!(r.iterations.iter().all(|it| it.layer_cycles > 0));
        assert!(r.offchip_traffic > 0);
    }

    #[test]
    fn decode_rejects_zero_iterations() {
        let cfg = DecodeCfg {
            iterations: 0,
            ..DecodeCfg::default()
        };
        assert!(run_decode(&tiny(), 8, &E2eVariant::static_schedule("s", 4), &cfg).is_err());
    }
}
