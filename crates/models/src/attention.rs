//! Decode attention with the three parallelization strategies of §5.4.
//!
//! During decoding, each request attends over its own KV cache; per-request
//! work is proportional to KV length and the phase is memory-bound.
//! Requests are routed to `regions` parallel attention pipelines:
//!
//! - **Static coarse**: a fixed quota of requests per region (16 in the
//!   paper) — idle regions at small batches, imbalance at large ones.
//! - **Static interleaved**: round-robin — a long request blocks the
//!   dispatch of later requests behind its region's queue.
//! - **Dynamic** (Fig 16): a feedback loop merges per-region completion
//!   signals (`EagerMerge` provenance) with an initial round-robin
//!   assignment, dispatching each request to the first region that frees
//!   up.

use crate::config::ModelConfig;
use step_core::elem::{Elem, ElemKind, Selector};
use step_core::func::{AccumFn, EwOp, MapFn};
use step_core::graph::{GraphBuilder, StreamRef};
use step_core::ops::RandomAccessCfg;
use step_core::shape::{Dim, StreamShape};
use step_core::token::Token;
use step_core::{Result, StepError};
use step_traces::KvTrace;

/// Request-dispatch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelStrategy {
    /// Fixed quota of `quota` requests per region, in order.
    StaticCoarse {
        /// Requests per region (16 in §5.4).
        quota: u32,
    },
    /// Round-robin.
    StaticInterleaved,
    /// Dispatch on availability via the Fig 16 feedback graph.
    Dynamic,
}

impl std::fmt::Display for ParallelStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelStrategy::StaticCoarse { .. } => write!(f, "static-coarse"),
            ParallelStrategy::StaticInterleaved => write!(f, "static-interleave"),
            ParallelStrategy::Dynamic => write!(f, "dynamic"),
        }
    }
}

/// Attention layer schedule.
#[derive(Debug, Clone)]
pub struct AttentionCfg {
    /// Model dimensions (KV bytes per token).
    pub model: ModelConfig,
    /// Parallel attention regions (4 in §5.4).
    pub regions: u32,
    /// KV tokens grouped per loaded tile.
    pub tokens_per_kv_tile: u64,
    /// Compute bandwidth per score map, FLOPs/cycle.
    pub compute_bw: u64,
    /// Dispatch strategy.
    pub strategy: ParallelStrategy,
}

impl AttentionCfg {
    /// The §5.4 setup: 4 regions, paper's coarse quota of 16.
    pub fn new(model: ModelConfig, strategy: ParallelStrategy) -> AttentionCfg {
        AttentionCfg {
            model,
            regions: 4,
            tokens_per_kv_tile: 16,
            // The score unit scans the region's KV buffer through one
            // on-chip memory unit (64 B/cycle, §5.1): at 4 modeled
            // FLOPs/element (2 bytes each) that is 128 FLOPs/cycle, which
            // the roofline turns into bytes/64 cycles per tile.
            compute_bw: 128,
            strategy,
        }
    }

    /// Bytes per loaded KV tile.
    pub fn kv_tile_bytes(&self) -> u64 {
        self.tokens_per_kv_tile * self.model.kv_bytes_per_token()
    }

    /// KV tiles needed by a request of `len` tokens.
    pub fn tiles_for(&self, len: u32) -> u64 {
        (len as u64).div_ceil(self.tokens_per_kv_tile)
    }
}

mod layout {
    /// KV cache base; each request's cache lives at a fixed stride.
    pub const KV: u64 = 0x10_0000_0000;
    /// Per-request KV stride (supports up to the clamp maximum).
    pub const KV_STRIDE: u64 = 0x1000_0000;
    /// Attention outputs (per region).
    pub const OUT: u64 = 0x30_0000_0000;
    /// Output stride.
    pub const OUT_STRIDE: u64 = 0x100_0000;
}

/// The rebindable `Source` nodes of an attention graph, for driving one
/// [`step_sim::SimPlan`] across decode iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionPorts {
    /// The per-request KV-tile-address stream (`attn.requests`): bind
    /// [`attention_request_tokens`] of the iteration's KV trace.
    pub requests: step_core::graph::NodeId,
}

/// Label of the [`AttentionPorts::requests`] source.
const REQUESTS_LABEL: &str = "attn.requests";

impl AttentionPorts {
    /// Reads the ports back from an attention graph by their labels —
    /// how a driver holding only a (possibly cached) frozen plan finds
    /// them in [`step_sim::SimPlan::graph`].
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if the graph has no node (or more
    /// than one) labelled `attn.requests`.
    pub fn of(graph: &step_core::Graph) -> Result<AttentionPorts> {
        Ok(AttentionPorts {
            requests: graph.node_labelled(REQUESTS_LABEL)?,
        })
    }
}

/// The token stream played by the `attn.requests` source for `kv`:
/// request `i` is a rank-1 group of its KV tile addresses. Build the
/// graph once from a trace at least as long as every later one (its
/// dispatch queues are sized for the build trace), then bind this
/// stream per decode iteration as the caches grow.
pub fn attention_request_tokens(cfg: &AttentionCfg, kv: &KvTrace) -> Vec<Token> {
    let tile_bytes = cfg.kv_tile_bytes();
    // Every request's tiles and closing stop, then `Done`: one vector,
    // sized up front.
    let tiles: u64 = kv.lengths.iter().map(|&len| cfg.tiles_for(len)).sum();
    let mut out = Vec::with_capacity(tiles as usize + kv.lengths.len() + 1);
    for (i, &len) in kv.lengths.iter().enumerate() {
        let base = layout::KV + (i as u64) * layout::KV_STRIDE;
        out.extend((0..cfg.tiles_for(len)).map(|j| Token::Val(Elem::Addr(base + j * tile_bytes))));
        out.push(Token::Stop(1));
    }
    out.push(Token::Done);
    out
}

/// Builds the attention graph for a batch with the given KV lengths.
///
/// # Errors
///
/// Returns [`StepError::Config`] for a zero region count.
pub fn attention_graph(cfg: &AttentionCfg, kv: &KvTrace) -> Result<step_core::Graph> {
    Ok(attention_graph_with_ports(cfg, kv)?.0)
}

/// Builds the attention graph and returns the rebindable source ports
/// alongside it.
///
/// # Errors
///
/// Returns [`StepError::Config`] for a zero region count.
pub fn attention_graph_with_ports(
    cfg: &AttentionCfg,
    kv: &KvTrace,
) -> Result<(step_core::Graph, AttentionPorts)> {
    let mut g = GraphBuilder::new();
    let ports = build_attention(&mut g, cfg, kv)?;
    Ok((g.finish(), ports))
}

/// Appends the attention layer to an existing builder, returning the
/// rebindable source ports.
///
/// # Errors
///
/// Returns [`StepError::Config`] for invalid configurations.
pub fn build_attention(
    g: &mut GraphBuilder,
    cfg: &AttentionCfg,
    kv: &KvTrace,
) -> Result<AttentionPorts> {
    if cfg.regions == 0 {
        return Err(StepError::Config("need at least one region".into()));
    }
    let batch = kv.lengths.len() as u64;
    let r = cfg.regions;
    let tile_bytes = cfg.kv_tile_bytes();
    let tile_cols = (tile_bytes / step_core::DTYPE_BYTES) as usize;

    // Request stream: request i is a rank-1 tensor of its KV tile
    // addresses.
    let ragged = g.symbols().fresh("Lkv");
    let requests = g.source(
        attention_request_tokens(cfg, kv),
        StreamShape::new(vec![Dim::fixed(batch), Dim::ragged(ragged)]),
        ElemKind::Addr,
    )?;
    g.label_last(REQUESTS_LABEL);
    let ports = AttentionPorts {
        requests: g.node_of(&requests),
    };

    // Dispatch selector.
    let (dispatch, feedback_key) = match cfg.strategy {
        ParallelStrategy::StaticCoarse { quota } => {
            let sels = (0..batch)
                .map(|i| Selector::one(((i as u32) / quota).min(r - 1)))
                .collect();
            (g.selector_source(sels, r)?, None)
        }
        ParallelStrategy::StaticInterleaved => {
            let sels = (0..batch).map(|i| Selector::one(i as u32 % r)).collect();
            (g.selector_source(sels, r)?, None)
        }
        ParallelStrategy::Dynamic => {
            // Fig 16: initial round-robin fill merged with availability
            // signals fed back from region completions.
            let init =
                g.selector_source((0..r.min(batch as u32)).map(Selector::one).collect(), r)?;
            g.label_last("attn.init-rr");
            let avail_dim = Dim::dyn_regular(g.symbols().fresh("Avail"));
            let (fb, key) = g.feedback(
                StreamShape::new(vec![avail_dim]),
                ElemKind::Selector { num_targets: r },
            );
            let (dispatch, _prov) = g.eager_merge(&[&init, &fb])?;
            g.label_last("attn.dispatch-merge");
            (dispatch, Some(key))
        }
    };
    let routed = g.partition(&requests, &dispatch, 1, r)?;
    g.label_last("attn.dispatch");
    // Regions front their DMA engines with request-sized address queues
    // (addresses are 8 bytes — a KB-scale FIFO), so the dispatcher
    // streams a request in at port rate and moves on. Load imbalance —
    // not dispatch blocking — is then what separates the strategies, as
    // in Fig 14. Queues are sized for the build trace's longest
    // request, so a plan reused across decode iterations is built from
    // the longest iteration's trace.
    let max_tiles = kv
        .lengths
        .iter()
        .map(|&l| cfg.tiles_for(l))
        .max()
        .unwrap_or(1);
    for region in &routed {
        g.set_capacity(region, (max_tiles + 8) as usize);
    }

    // Region pipelines: load KV tiles, score them, reduce per request.
    let mut completions = Vec::with_capacity(r as usize);
    for (i, region) in routed.iter().enumerate() {
        let kv_tiles = g.random_offchip_load(
            region,
            RandomAccessCfg::new(layout::KV, (1, tile_cols as u64)),
        )?;
        g.label_last("attn.kv-load");
        let scored = g.map(&kv_tiles, MapFn::Elementwise(EwOp::Silu), cfg.compute_bw)?;
        g.label_last("attn.score");
        let result = g.accum(&scored, 1, AccumFn::AddTiles, cfg.compute_bw)?;
        g.label_last("attn.reduce");
        let fk = g.fork(&result, 2)?;
        g.linear_offchip_store(&fk[0], layout::OUT + (i as u64) * layout::OUT_STRIDE)?;
        completions.push(fk[1].clone());
    }

    if let Some(key) = feedback_key {
        let refs: Vec<&StreamRef> = completions.iter().collect();
        let (_junk, avail) = g.eager_merge(&refs)?;
        g.label_last("attn.availability");
        g.fulfill_feedback(key, &avail)?;
    }
    Ok(ports)
}

/// Analytic per-request service demand in KV bytes — the quantity load
/// balancing distributes.
pub fn request_bytes(cfg: &AttentionCfg, len: u32) -> u64 {
    cfg.tiles_for(len) * cfg.kv_tile_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use step_sim::{SimConfig, SimPlan};
    use step_traces::{KvTraceConfig, Variability, kv_lengths};

    fn small_cfg(strategy: ParallelStrategy) -> AttentionCfg {
        AttentionCfg {
            model: ModelConfig::qwen3_30b_a3b(),
            regions: 4,
            tokens_per_kv_tile: 16,
            // The score unit scans the region's KV buffer through one
            // on-chip memory unit (64 B/cycle, §5.1): at 4 modeled
            // FLOPs/element (2 bytes each) that is 128 FLOPs/cycle, which
            // the roofline turns into bytes/64 cycles per tile.
            compute_bw: 128,
            strategy,
        }
    }

    fn trace(batch: usize, v: Variability, seed: u64) -> KvTrace {
        kv_lengths(&KvTraceConfig {
            batch,
            variability: v,
            median_len: 512.0,
            max_len: 4096,
            seed,
            ..KvTraceConfig::default()
        })
    }

    fn run(cfg: &AttentionCfg, kv: &KvTrace) -> step_sim::SimReport {
        SimPlan::new(attention_graph(cfg, kv).unwrap(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn request_tokens_are_one_rank1_group_per_request() {
        let cfg = small_cfg(ParallelStrategy::Dynamic);
        let kv = KvTrace {
            lengths: vec![1, 16, 17, 600],
        };
        let groups: Vec<Vec<Elem>> = kv
            .lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let base = layout::KV + (i as u64) * layout::KV_STRIDE;
                (0..cfg.tiles_for(len))
                    .map(|j| Elem::Addr(base + j * cfg.kv_tile_bytes()))
                    .collect()
            })
            .collect();
        let tokens = attention_request_tokens(&cfg, &kv);
        assert_eq!(tokens, step_core::token::rank1_from_groups(&groups));
        assert_eq!(tokens.len(), tokens.capacity(), "sized up front");
    }

    #[test]
    fn traffic_is_kv_bytes_plus_outputs() {
        let kv = trace(8, Variability::Medium, 3);
        let cfg = small_cfg(ParallelStrategy::StaticInterleaved);
        let report = run(&cfg, &kv);
        let expected_read: u64 = kv.lengths.iter().map(|&l| request_bytes(&cfg, l)).sum();
        assert_eq!(report.offchip_read, expected_read);
    }

    #[test]
    fn all_strategies_complete_and_read_same_bytes() {
        let kv = trace(16, Variability::High, 7);
        let reports: Vec<_> = [
            ParallelStrategy::StaticCoarse { quota: 4 },
            ParallelStrategy::StaticInterleaved,
            ParallelStrategy::Dynamic,
        ]
        .into_iter()
        .map(|s| run(&small_cfg(s), &kv))
        .collect();
        assert_eq!(reports[0].offchip_read, reports[1].offchip_read);
        assert_eq!(reports[1].offchip_read, reports[2].offchip_read);
    }

    #[test]
    fn dynamic_beats_coarse_at_small_batch() {
        // With batch == quota, coarse packs everything into region 0.
        let kv = trace(16, Variability::Medium, 11);
        let coarse = run(
            &small_cfg(ParallelStrategy::StaticCoarse { quota: 16 }),
            &kv,
        );
        let dynamic = run(&small_cfg(ParallelStrategy::Dynamic), &kv);
        assert!(
            dynamic.cycles * 2 < coarse.cycles,
            "dynamic {} vs coarse {}",
            dynamic.cycles,
            coarse.cycles
        );
    }

    #[test]
    fn dynamic_beats_interleaved_under_high_variance() {
        let kv = trace(32, Variability::High, 13);
        let inter = run(&small_cfg(ParallelStrategy::StaticInterleaved), &kv);
        let dynamic = run(&small_cfg(ParallelStrategy::Dynamic), &kv);
        assert!(
            dynamic.cycles < inter.cycles,
            "dynamic {} vs interleaved {}",
            dynamic.cycles,
            inter.cycles
        );
    }

    #[test]
    fn dynamic_dispatch_is_deterministic() {
        let kv = trace(16, Variability::High, 17);
        let a = run(&small_cfg(ParallelStrategy::Dynamic), &kv);
        let b = run(&small_cfg(ParallelStrategy::Dynamic), &kv);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn zero_regions_rejected() {
        let kv = trace(4, Variability::Low, 1);
        let mut cfg = small_cfg(ParallelStrategy::StaticInterleaved);
        cfg.regions = 0;
        assert!(attention_graph(&cfg, &kv).is_err());
    }
}
