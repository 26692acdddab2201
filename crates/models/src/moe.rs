//! The Mixture-of-Experts layer and its schedules (§5.2–§5.3).
//!
//! Tokens are routed to their top-k experts with `Partition`; each expert
//! packs its (dynamically many) rows into tiles, streams its SwiGLU
//! weights from off-chip, and computes. Three scheduling axes from the
//! paper:
//!
//! - **Static tiling**: rows are padded into `tile`-row tiles; an
//!   expert's weights are reloaded `⌈D_e/tile⌉` times (small tiles →
//!   more traffic, large tiles → more padding and on-chip memory).
//! - **Dynamic tiling** (§5.2): the first `Reshape` becomes a `Promote`,
//!   so `Accum` packs one dynamically-sized `[D_e, H]` tile and weights
//!   load exactly once per active expert.
//! - **Configuration time-multiplexing** (§5.3, Fig 11): experts share
//!   `regions` spatial pipelines; an `EagerMerge` forwards packed tiles
//!   in arrival order and `RandomOffChipLoad` fetches the owning
//!   expert's weights via an address generator.

use crate::config::ModelConfig;
use step_core::elem::{Elem, ElemKind, Selector};
use step_core::func::{AccumFn, BinOp, FlatMapFn, MapFn};
use step_core::graph::{GraphBuilder, StreamRef};
use step_core::ops::{LinearLoadCfg, RandomAccessCfg, StreamifyCfg};
use step_core::shape::StreamShape;
use step_core::tile::Tile;
use step_core::token;
use step_core::{DTYPE_BYTES, Result, StepError};
use step_traces::RoutingTrace;

/// Batch-dimension tiling strategy (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiling {
    /// Pad each expert's rows into `tile`-row tiles.
    Static {
        /// Rows per tile.
        tile: u64,
    },
    /// One dynamically-sized tile per expert.
    Dynamic,
}

impl std::fmt::Display for Tiling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tiling::Static { tile } => write!(f, "static({tile})"),
            Tiling::Dynamic => write!(f, "dynamic"),
        }
    }
}

/// MoE layer schedule.
#[derive(Debug, Clone)]
pub struct MoeCfg {
    /// Model dimensions.
    pub model: ModelConfig,
    /// Batch tiling strategy.
    pub tiling: Tiling,
    /// Spatial regions sharing a configuration (`None` = one region per
    /// expert, fully spatial).
    pub regions: Option<u32>,
    /// Compute bandwidth per matmul map, FLOPs/cycle.
    pub compute_bw: u64,
    /// Weight tile edge for hierarchical tiling (must divide hidden and
    /// intermediate dims).
    pub phys_tile: u64,
}

impl MoeCfg {
    /// A schedule with default strip width and compute allocation.
    pub fn new(model: ModelConfig, tiling: Tiling) -> MoeCfg {
        // Wider layers stream at a coarser tile edge: same traffic, far
        // fewer simulation events.
        let phys_tile =
            if model.moe_intermediate.is_multiple_of(256) && model.moe_intermediate >= 4096 {
                256
            } else {
                PT
            };
        MoeCfg {
            model,
            tiling,
            regions: None,
            compute_bw: 4096,
            phys_tile,
        }
    }

    /// Time-multiplexes the experts over `regions` shared pipelines.
    pub fn with_regions(mut self, regions: u32) -> MoeCfg {
        self.regions = Some(regions);
        self
    }

    fn w_bytes(&self) -> u64 {
        self.model.hidden * self.model.moe_intermediate * DTYPE_BYTES
    }
}

/// Default weight physical-tile edge (hierarchical tiling granularity).
pub const PT: u64 = 64;

/// Address layout for the MoE graph.
mod layout {
    /// Gate weights (per-expert stride = one matrix).
    pub const W1: u64 = 0x1_0000_0000;
    /// Up weights.
    pub const W3: u64 = 0x3_0000_0000;
    /// Down weights.
    pub const W2: u64 = 0x5_0000_0000;
    /// Output activations (per expert/region stride 16 MiB).
    pub const OUT: u64 = 0x7_0000_0000;
    /// Output stride.
    pub const OUT_STRIDE: u64 = 0x100_0000;
}

/// Packs an expert's routed rows into tiles per the tiling strategy,
/// yielding a rank-0 stream of packed tiles.
fn pack_rows(
    g: &mut GraphBuilder,
    rows: &StreamRef,
    tiling: Tiling,
    hidden: u64,
) -> Result<StreamRef> {
    let flat = g.flatten(rows, 0, 1)?; // [D_e]
    match tiling {
        Tiling::Static { tile } => {
            let pad = Elem::Tile(Tile::phantom(1, hidden as usize));
            let (chunks, _padding) = g.reshape(&flat, tile, Some(pad))?;
            g.accum(&chunks, 1, AccumFn::RetileRow, 64)
        }
        Tiling::Dynamic => {
            let promoted = g.promote(&flat)?;
            g.accum(&promoted, 1, AccumFn::RetileRow, 64)
        }
    }
}

/// The shared SwiGLU compute pipeline over packed tiles and
/// hierarchically-tiled weight streams.
///
/// All three weight matrices stream as `PT x PT`-element physical tiles
/// (Appendix B.2): the gate/up GEMMs reduce over hidden-dimension chunks
/// with `AddTiles` accumulators, and the down projection re-reads the
/// activation strip per output chunk through the Fig 18
/// `Bufferize`/`Streamify` pattern.
///
/// Inputs: `packed_data` and `down_trigger` are `[K]` rank-0 streams of
/// packed tiles; `w1`/`w3` are `[K, strips, H/PT]` physical-tile streams
/// and `w2` is `[K, H/PT, strips]`.
#[allow(clippy::too_many_arguments)]
fn swiglu_core(
    g: &mut GraphBuilder,
    packed_data: &StreamRef,
    down_trigger: &StreamRef,
    w1: &StreamRef,
    w3: &StreamRef,
    w2: &StreamRef,
    model: &ModelConfig,
    pt: u64,
    compute_bw: u64,
) -> Result<StreamRef> {
    let strips = model.moe_intermediate / pt;
    let hchunks = model.hidden / pt;

    // Broadcast the packed tile across intermediate strips, then split it
    // into hidden-dim chunks: [K] -> [K, strips] -> [K, strips, H/PT].
    let (ones, _) = g.reshape(packed_data, 1, None)?;
    let bx = g.expand_static(&ones, strips)?;
    let xs = g.flat_map(&bx, FlatMapFn::SplitCols { chunk: pt as usize })?;
    let xsf = g.fork(&xs, 2)?;

    // Gate and up projections with hidden-dim accumulation.
    let gpart = g.map2(&xsf[0], w1, MapFn::Matmul, compute_bw)?;
    let gate = g.accum(&gpart, 1, AccumFn::AddTiles, compute_bw)?;
    let upart = g.map2(&xsf[1], w3, MapFn::Matmul, compute_bw)?;
    let up = g.accum(&upart, 1, AccumFn::AddTiles, compute_bw)?;
    let act = g.map2(&gate, &up, MapFn::Binary(BinOp::SiluMul), compute_bw)?;

    // Down projection: buffer the activation strip and re-read it once
    // per output chunk (hierarchical tiling, Fig 18).
    let abufs = g.bufferize(&act, 1)?;
    let (dones, _) = g.reshape(down_trigger, 1, None)?;
    let dref = g.expand_static(&dones, hchunks)?;
    let arep = g.streamify(&abufs, &dref, StreamifyCfg::default())?;
    let dpart = g.map2(&arep, w2, MapFn::Matmul, compute_bw)?;
    g.accum(&dpart, 1, AccumFn::AddTiles, compute_bw)
}

/// The rebindable `Source` nodes of a MoE graph, for driving one
/// [`step_sim::SimPlan`] across decode iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoePorts {
    /// The router's selector stream (`moe.router`): bind
    /// [`moe_router_tokens`] of the iteration's re-sampled routing.
    pub router: step_core::graph::NodeId,
    /// The token stream feeding the router's partition (`moe.tokens`):
    /// bind [`moe_token_stream`] of the iteration's token count. A
    /// serving iteration routes however many tokens its admitted set
    /// produced (decode tokens plus prefill chunks), so both sources
    /// rebind together with matching lengths.
    pub tokens: step_core::graph::NodeId,
}

/// Labels of the [`MoePorts`] sources.
const ROUTER_LABEL: &str = "moe.router";
const TOKENS_LABEL: &str = "moe.tokens";

impl MoePorts {
    /// Reads the ports back from a MoE graph by their labels — how a
    /// driver holding only a (possibly cached) frozen plan finds them in
    /// [`step_sim::SimPlan::graph`].
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if the graph has no node (or more
    /// than one) labelled `moe.router` or `moe.tokens`.
    pub fn of(graph: &step_core::Graph) -> Result<MoePorts> {
        Ok(MoePorts {
            router: graph.node_labelled(ROUTER_LABEL)?,
            tokens: graph.node_labelled(TOKENS_LABEL)?,
        })
    }
}

/// The token stream played by the `moe.tokens` source for a batch of
/// `batch` tokens: one phantom `[1, hidden]` row per token, rank-1
/// chunks. Bind it together with [`moe_router_tokens`] of a same-length
/// routing trace when the per-iteration token count differs from the
/// build-time batch (continuous-batching serving).
pub fn moe_token_stream(batch: u64, hidden: u64) -> Vec<token::Token> {
    let groups: Vec<Vec<Elem>> = (0..batch)
        .map(|_| vec![Elem::Tile(Tile::phantom(1, hidden as usize))])
        .collect();
    token::rank1_from_groups(&groups)
}

/// The selector token stream played by the `moe.router` source for
/// `trace`. Build the graph once, then bind this stream per decode
/// iteration as routing is re-sampled; the expert count must match the
/// build-time trace (the graph's structure is derived from it), and the
/// token count must match the bound `moe.tokens` stream — equal to the
/// build-time batch when only the router is rebound.
pub fn moe_router_tokens(trace: &RoutingTrace) -> Vec<token::Token> {
    let sels = trace
        .assignments
        .iter()
        .map(|experts| Elem::Sel(Selector::multi(experts)));
    token::rank0_from_values(sels)
}

/// Builds the MoE layer for one iteration's routing `trace`; returns the
/// graph. Token contents are phantom (`[1, H]` tiles) — the schedule and
/// all metrics derive from the trace's routing alone.
///
/// # Errors
///
/// Returns [`StepError::Config`] for invalid region counts or tile sizes.
pub fn moe_graph(cfg: &MoeCfg, trace: &RoutingTrace) -> Result<step_core::Graph> {
    Ok(moe_graph_with_ports(cfg, trace)?.0)
}

/// Builds the MoE layer and returns the rebindable source ports
/// alongside the graph.
///
/// # Errors
///
/// Returns [`StepError::Config`] for invalid region counts or tile sizes.
pub fn moe_graph_with_ports(
    cfg: &MoeCfg,
    trace: &RoutingTrace,
) -> Result<(step_core::Graph, MoePorts)> {
    let mut g = GraphBuilder::new();
    let ports = build_moe(&mut g, cfg, trace)?;
    Ok((g.finish(), ports))
}

/// Appends the MoE layer to an existing builder, returning the
/// rebindable source ports.
///
/// # Errors
///
/// Returns [`StepError::Config`] for invalid configurations.
pub fn build_moe(g: &mut GraphBuilder, cfg: &MoeCfg, trace: &RoutingTrace) -> Result<MoePorts> {
    let model = &cfg.model;
    if trace.experts != model.experts {
        return Err(StepError::Config(format!(
            "trace has {} experts, model {}",
            trace.experts, model.experts
        )));
    }
    if !model.moe_intermediate.is_multiple_of(cfg.phys_tile)
        || !model.hidden.is_multiple_of(cfg.phys_tile)
    {
        return Err(StepError::Config(format!(
            "hidden and intermediate must be multiples of the {}-element physical tile",
            cfg.phys_tile
        )));
    }
    let experts = model.experts;
    let h = model.hidden;
    let batch = trace.assignments.len() as u64;

    // Token stream: one [1, H] row per token, rank-1 chunks.
    let tokens = g.source(
        moe_token_stream(batch, h),
        StreamShape::fixed(&[batch, 1]),
        ElemKind::tile(1, h),
    )?;
    g.label_last(TOKENS_LABEL);
    let sels: Vec<Selector> = trace
        .assignments
        .iter()
        .map(|experts| Selector::multi(experts))
        .collect();
    let sel = g.selector_source(sels, experts)?;
    g.label_last(ROUTER_LABEL);
    let ports = MoePorts {
        router: g.node_of(&sel),
        tokens: g.node_of(&tokens),
    };
    let routed = g.partition(&tokens, &sel, 1, experts)?;

    // Per-expert row packing.
    let mut packed: Vec<StreamRef> = Vec::with_capacity(experts as usize);
    for rows in &routed {
        packed.push(pack_rows(g, rows, cfg.tiling, h)?);
    }

    let w_bytes = cfg.w_bytes();
    match cfg.regions {
        None => {
            // Fully spatial: a dedicated pipeline and linear weight loads
            // per expert. Weights stream as PT x PT physical tiles with a
            // strip-outer / hidden-chunk-inner view so the compute core's
            // hidden-dimension accumulation lines up.
            let i = model.moe_intermediate;
            let pt = cfg.phys_tile;
            let strips = i / pt;
            let hchunks = h / pt;
            for (e, data) in packed.into_iter().enumerate() {
                let e = e as u64;
                let fk = g.fork(&data, 3)?;
                let trig = g.fork(&fk[0], 3)?;
                // W1/W3 grid is (H/pt rows, I/pt cols); read strip-outer.
                let up_view = LinearLoadCfg::new(layout::W1 + e * w_bytes, (h, i), (pt, pt))
                    .with_view((1, strips), (strips, hchunks));
                let w1 = g.linear_offchip_load(&trig[0], up_view)?;
                let up_view3 = LinearLoadCfg::new(layout::W3 + e * w_bytes, (h, i), (pt, pt))
                    .with_view((1, strips), (strips, hchunks));
                let w3 = g.linear_offchip_load(&trig[1], up_view3)?;
                // W2 grid is (I/pt rows, H/pt cols); read out-chunk-outer.
                let down_view = LinearLoadCfg::new(layout::W2 + e * w_bytes, (i, h), (pt, pt))
                    .with_view((1, hchunks), (hchunks, strips));
                let w2 = g.linear_offchip_load(&trig[2], down_view)?;
                let out = swiglu_core(g, &fk[1], &fk[2], &w1, &w3, &w2, model, pt, cfg.compute_bw)?;
                g.linear_offchip_store(&out, layout::OUT + e * layout::OUT_STRIDE)?;
            }
        }
        Some(regions) => {
            if regions == 0 || !experts.is_multiple_of(regions) {
                return Err(StepError::Config(format!(
                    "regions {regions} must divide experts {experts}"
                )));
            }
            let per = (experts / regions) as usize;
            let pt = cfg.phys_tile;
            let strips = model.moe_intermediate / pt;
            let hchunks = h / pt;
            let up_tiles = strips * hchunks;
            let tile_bytes = pt * pt * DTYPE_BYTES;
            for r in 0..regions as usize {
                let members = &packed[r * per..(r + 1) * per];
                let refs: Vec<&StreamRef> = members.iter().collect();
                let (tiles, sel) = g.eager_merge(&refs)?;
                g.label_last("moe.region-merge");
                let self0 = (r * per) as u64;
                // Weights for time-multiplexed regions are stored
                // pre-swizzled in streaming order (standard practice for
                // streamed weights), so the per-expert tile sequence is
                // linear in memory and the address generator enumerates it
                // directly.
                let sf = g.fork(&sel, 3)?;
                let tf = g.fork(&tiles, 2)?;
                let a1 = g.addr_gen(&sf[0], layout::W1 + self0 * w_bytes, up_tiles, tile_bytes)?;
                let a3 = g.addr_gen(&sf[1], layout::W3 + self0 * w_bytes, up_tiles, tile_bytes)?;
                let a2 = g.addr_gen(&sf[2], layout::W2 + self0 * w_bytes, up_tiles, tile_bytes)?;
                let w1 = g.random_offchip_load(
                    &a1,
                    RandomAccessCfg::new(layout::W1 + self0 * w_bytes, (pt, pt)),
                )?;
                let (w1, _) = g.reshape(&w1, hchunks, None)?;
                let w3 = g.random_offchip_load(
                    &a3,
                    RandomAccessCfg::new(layout::W3 + self0 * w_bytes, (pt, pt)),
                )?;
                let (w3, _) = g.reshape(&w3, hchunks, None)?;
                let w2 = g.random_offchip_load(
                    &a2,
                    RandomAccessCfg::new(layout::W2 + self0 * w_bytes, (pt, pt)),
                )?;
                let (w2, _) = g.reshape(&w2, strips, None)?;
                let out = swiglu_core(g, &tf[0], &tf[1], &w1, &w3, &w2, model, pt, cfg.compute_bw)?;
                g.linear_offchip_store(&out, layout::OUT + (r as u64) * layout::OUT_STRIDE)?;
            }
        }
    }
    Ok(ports)
}

/// Analytic expected weight traffic for a schedule: `Σ_e ⌈D_e/T⌉ · |W_e|`
/// (static) or one reload per active expert (dynamic). Useful for tests
/// and as the §4.2 symbolic prediction specialized to this graph.
pub fn expected_weight_traffic(cfg: &MoeCfg, trace: &RoutingTrace) -> u64 {
    let per_expert_bytes = cfg.model.expert_weight_bytes();
    trace
        .histogram()
        .iter()
        .map(|&d| {
            if d == 0 {
                0
            } else {
                match cfg.tiling {
                    Tiling::Static { tile } => (d as u64).div_ceil(tile) * per_expert_bytes,
                    Tiling::Dynamic => per_expert_bytes,
                }
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use step_sim::{SimConfig, SimPlan};
    use step_traces::{RoutingConfig, expert_routing};

    fn tiny_model() -> ModelConfig {
        ModelConfig {
            name: "tiny",
            hidden: 64,
            moe_intermediate: 128,
            experts: 4,
            top_k: 2,
            q_heads: 4,
            kv_heads: 2,
            head_dim: 16,
            layers: 2,
        }
    }

    fn tiny_trace(batch: usize) -> RoutingTrace {
        expert_routing(&RoutingConfig {
            experts: 4,
            top_k: 2,
            batch,
            skew: 0.8,
            seed: 42,
        })
    }

    fn run(cfg: &MoeCfg, trace: &RoutingTrace) -> step_sim::SimReport {
        SimPlan::new(moe_graph(cfg, trace).unwrap(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn static_weight_traffic_matches_analytic() {
        let trace = tiny_trace(16);
        let cfg = MoeCfg::new(tiny_model(), Tiling::Static { tile: 4 });
        let report = run(&cfg, &trace);
        let expected_w = expected_weight_traffic(&cfg, &trace);
        // Output stores add padded-row writes on top of weight reads.
        assert_eq!(report.offchip_read, expected_w);
        assert!(report.offchip_write > 0);
    }

    #[test]
    fn dynamic_loads_each_active_expert_once() {
        let trace = tiny_trace(16);
        let cfg = MoeCfg::new(tiny_model(), Tiling::Dynamic);
        let report = run(&cfg, &trace);
        assert_eq!(report.offchip_read, expected_weight_traffic(&cfg, &trace));
        // Dynamic stores exactly the routed rows (no padding).
        let routed: u64 = trace.histogram().iter().map(|&d| d as u64).sum();
        assert_eq!(report.offchip_write, routed * 64 * 2);
    }

    #[test]
    fn dynamic_never_exceeds_static_traffic() {
        let trace = tiny_trace(32);
        for tile in [2, 4, 8] {
            let s = expected_weight_traffic(
                &MoeCfg::new(tiny_model(), Tiling::Static { tile }),
                &trace,
            );
            let d = expected_weight_traffic(&MoeCfg::new(tiny_model(), Tiling::Dynamic), &trace);
            assert!(d <= s, "tile {tile}: dynamic {d} > static {s}");
        }
    }

    #[test]
    fn dynamic_uses_less_onchip_memory_than_large_static() {
        let trace = tiny_trace(16);
        let stat = run(
            &MoeCfg::new(tiny_model(), Tiling::Static { tile: 16 }),
            &trace,
        );
        let dy = run(&MoeCfg::new(tiny_model(), Tiling::Dynamic), &trace);
        assert!(dy.onchip_memory < stat.onchip_memory);
        assert!(dy.cycles <= stat.cycles);
    }

    #[test]
    fn time_multiplexing_preserves_traffic_and_cuts_allocated_compute() {
        let trace = tiny_trace(16);
        let spatial = MoeCfg::new(tiny_model(), Tiling::Static { tile: 4 });
        let muxed = MoeCfg::new(tiny_model(), Tiling::Static { tile: 4 }).with_regions(2);
        let rs = run(&spatial, &trace);
        let rm = run(&muxed, &trace);
        assert_eq!(rs.offchip_read, rm.offchip_read);
        assert!(rm.allocated_compute < rs.allocated_compute);
        assert!(rm.compute_utilization() > rs.compute_utilization());
    }

    #[test]
    fn regions_must_divide_experts() {
        let trace = tiny_trace(8);
        let cfg = MoeCfg::new(tiny_model(), Tiling::Dynamic).with_regions(3);
        assert!(moe_graph(&cfg, &trace).is_err());
    }

    #[test]
    fn trace_model_mismatch_rejected() {
        let trace = expert_routing(&RoutingConfig {
            experts: 8,
            top_k: 2,
            batch: 4,
            skew: 0.5,
            seed: 1,
        });
        let cfg = MoeCfg::new(tiny_model(), Tiling::Dynamic);
        assert!(moe_graph(&cfg, &trace).is_err());
    }
}
