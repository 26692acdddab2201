//! The SwiGLU layer (§4.5's validation workload) and a generic dense GEMM
//! subgraph used by QKV generation.
//!
//! `SwiGLU(x) = (silu(x·W1) ⊙ (x·W3)) · W2` with `W1, W3: [H, I]` and
//! `W2: [I, H]`. The schedule tiles the batch dimension by `tile_batch`
//! and the intermediate dimension by `tile_inter`: per batch tile, the
//! three weight matrices are streamed from off-chip in column/row strips,
//! the gate/up products are fused through a `SiluMul` map, and the down
//! projection accumulates partial sums on-chip. Smaller batch tiles
//! reload the weights more often (off-chip traffic ∝ `⌈B/Tb⌉`); larger
//! tiles cost more on-chip memory — the trade-off swept in Fig 8.

use step_core::Result;
use step_core::func::{AccumFn, BinOp, MapFn};
use step_core::graph::{GraphBuilder, NodeId, StreamRef};
use step_core::ops::LinearLoadCfg;

/// Base addresses used by the standalone SwiGLU graph.
pub mod layout {
    /// Input activations.
    pub const X: u64 = 0x0100_0000;
    /// Gate weight `W1`.
    pub const W1: u64 = 0x1000_0000;
    /// Up weight `W3`.
    pub const W3: u64 = 0x2000_0000;
    /// Down weight `W2`.
    pub const W2: u64 = 0x3000_0000;
    /// Output activations.
    pub const OUT: u64 = 0x4000_0000;
}

/// SwiGLU layer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwigluCfg {
    /// Batch (token) dimension.
    pub batch: u64,
    /// Hidden dimension.
    pub hidden: u64,
    /// Intermediate dimension.
    pub inter: u64,
    /// Batch tile size (`Tb`).
    pub tile_batch: u64,
    /// Intermediate tile size (`Ti`).
    pub tile_inter: u64,
    /// Compute bandwidth per matmul map, FLOPs/cycle.
    pub compute_bw: u64,
}

impl SwigluCfg {
    /// The Fig 8 workload: batch 64, hidden 256, intermediate 512.
    pub fn validation(tile_batch: u64, tile_inter: u64) -> SwigluCfg {
        SwigluCfg {
            batch: 64,
            hidden: 256,
            inter: 512,
            tile_batch,
            tile_inter,
            compute_bw: 4096,
        }
    }

    fn check(&self) -> Result<()> {
        use step_core::StepError;
        if !self.batch.is_multiple_of(self.tile_batch) {
            return Err(StepError::Config(format!(
                "batch {} not divisible by tile {}",
                self.batch, self.tile_batch
            )));
        }
        if !self.inter.is_multiple_of(self.tile_inter) {
            return Err(StepError::Config(format!(
                "intermediate {} not divisible by tile {}",
                self.inter, self.tile_inter
            )));
        }
        Ok(())
    }
}

/// Appends the SwiGLU subgraph to `g`, returning the output-store node.
///
/// # Errors
///
/// Returns [`step_core::StepError::Config`] for non-dividing tile sizes.
pub fn build_swiglu(g: &mut GraphBuilder, cfg: &SwigluCfg) -> Result<NodeId> {
    cfg.check()?;
    let (b, h, i) = (cfg.batch, cfg.hidden, cfg.inter);
    let (tb, ti) = (cfg.tile_batch, cfg.tile_inter);
    let strips = i / ti;

    // One trigger reads the whole activation tensor as [Tb, H] tiles.
    let trigger = g.unit_source(1);
    let x = g.linear_offchip_load(&trigger, LinearLoadCfg::new(layout::X, (b, h), (tb, h)))?;
    g.label_last("swiglu.x-load");
    let x = g.flatten(&x, 0, 2)?; // [B/Tb]

    let xf = g.fork(&x, 2)?;
    let wtrig = g.fork(&xf[0], 3)?;

    // Broadcast each activation tile across the intermediate strips.
    let (x1, _) = g.reshape(&xf[1], 1, None)?;
    let bx = g.expand_static(&x1, strips)?; // [B/Tb, I/Ti]
    let bxf = g.fork(&bx, 2)?;

    let w1 = g.linear_offchip_load(&wtrig[0], LinearLoadCfg::new(layout::W1, (h, i), (h, ti)))?;
    g.label_last("swiglu.w1-load");
    let w1 = g.flatten(&w1, 0, 1)?;
    let w3 = g.linear_offchip_load(&wtrig[1], LinearLoadCfg::new(layout::W3, (h, i), (h, ti)))?;
    g.label_last("swiglu.w3-load");
    let w3 = g.flatten(&w3, 0, 1)?;
    let w2 = g.linear_offchip_load(&wtrig[2], LinearLoadCfg::new(layout::W2, (i, h), (ti, h)))?;
    g.label_last("swiglu.w2-load");
    let w2 = g.flatten(&w2, 0, 1)?;

    let gate = g.map2(&bxf[0], &w1, MapFn::Matmul, cfg.compute_bw)?;
    g.label_last("swiglu.gate");
    let up = g.map2(&bxf[1], &w3, MapFn::Matmul, cfg.compute_bw)?;
    g.label_last("swiglu.up");
    let act = g.map2(&gate, &up, MapFn::Binary(BinOp::SiluMul), cfg.compute_bw)?;
    g.label_last("swiglu.silu-mul");
    let part = g.map2(&act, &w2, MapFn::Matmul, cfg.compute_bw)?;
    g.label_last("swiglu.down");
    let out = g.accum(&part, 1, AccumFn::AddTiles, cfg.compute_bw)?;
    g.label_last("swiglu.down-acc");
    let store = g.linear_offchip_store(&out, layout::OUT)?;
    g.label_last("swiglu.out-store");
    Ok(store)
}

/// Builds a standalone SwiGLU graph.
///
/// # Errors
///
/// Propagates [`build_swiglu`] errors.
pub fn swiglu_graph(cfg: &SwigluCfg) -> Result<step_core::Graph> {
    let mut g = GraphBuilder::new();
    build_swiglu(&mut g, cfg)?;
    Ok(g.finish())
}

/// Dense GEMM configuration (`X[B,H] · W[H,N]`, batch-tiled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmCfg {
    /// Rows of X.
    pub batch: u64,
    /// Inner dimension.
    pub hidden: u64,
    /// Columns of W.
    pub n: u64,
    /// Batch tile.
    pub tile_batch: u64,
    /// Column strip width.
    pub tile_n: u64,
    /// X base address.
    pub x_addr: u64,
    /// W base address.
    pub w_addr: u64,
    /// Output base address.
    pub out_addr: u64,
    /// Compute bandwidth per matmul map.
    pub compute_bw: u64,
}

/// Appends a batch-tiled dense GEMM subgraph; the weight is reloaded once
/// per batch tile.
///
/// # Errors
///
/// Returns [`step_core::StepError::Config`] for non-dividing tiles.
pub fn build_gemm(g: &mut GraphBuilder, cfg: &GemmCfg) -> Result<StreamRef> {
    use step_core::StepError;
    if !cfg.batch.is_multiple_of(cfg.tile_batch) || !cfg.n.is_multiple_of(cfg.tile_n) {
        return Err(StepError::Config("gemm tiles must divide dims".into()));
    }
    let strips = cfg.n / cfg.tile_n;
    let trigger = g.unit_source(1);
    let x = g.linear_offchip_load(
        &trigger,
        LinearLoadCfg::new(
            cfg.x_addr,
            (cfg.batch, cfg.hidden),
            (cfg.tile_batch, cfg.hidden),
        ),
    )?;
    let x = g.flatten(&x, 0, 2)?;
    let xf = g.fork(&x, 2)?;
    let (x1, _) = g.reshape(&xf[1], 1, None)?;
    let bx = g.expand_static(&x1, strips)?;
    let w = g.linear_offchip_load(
        &xf[0],
        LinearLoadCfg::new(cfg.w_addr, (cfg.hidden, cfg.n), (cfg.hidden, cfg.tile_n)),
    )?;
    let w = g.flatten(&w, 0, 1)?;
    let out = g.map2(&bx, &w, MapFn::Matmul, cfg.compute_bw)?;
    g.linear_offchip_store(&out, cfg.out_addr)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use step_sim::{SimConfig, SimPlan};

    fn run(cfg: &SwigluCfg) -> step_sim::SimReport {
        SimPlan::new(swiglu_graph(cfg).unwrap(), SimConfig::validation())
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn traffic_matches_analytic_model() {
        let cfg = SwigluCfg::validation(32, 64);
        let report = run(&cfg);
        let reloads = cfg.batch / cfg.tile_batch; // 2
        let w_bytes = 3 * cfg.hidden * cfg.inter * 2;
        let io_bytes = 2 * cfg.batch * cfg.hidden * 2; // X read + OUT write
        assert_eq!(report.offchip_traffic, reloads * w_bytes + io_bytes);
    }

    #[test]
    fn smaller_batch_tiles_cost_more_traffic_and_cycles() {
        let small = run(&SwigluCfg::validation(16, 64));
        let large = run(&SwigluCfg::validation(64, 64));
        assert!(small.offchip_traffic > large.offchip_traffic);
        assert!(small.cycles > large.cycles);
    }

    #[test]
    fn larger_tiles_use_more_onchip_memory() {
        let small = run(&SwigluCfg::validation(16, 16));
        let large = run(&SwigluCfg::validation(64, 256));
        assert!(large.onchip_memory > small.onchip_memory);
    }

    #[test]
    fn flops_match_analytic_model() {
        let cfg = SwigluCfg::validation(32, 128);
        let report = run(&cfg);
        let gemm_flops = 2 * cfg.batch * cfg.hidden * cfg.inter;
        // gate + up + down matmuls, 5 flops/elem SiluMul, and the
        // down-projection accumulator's elementwise adds.
        let expected = 3 * gemm_flops
            + 5 * cfg.batch * cfg.inter
            + cfg.batch * cfg.hidden * (cfg.inter / cfg.tile_inter);
        assert_eq!(report.total_flops, expected);
    }

    #[test]
    fn invalid_tiles_rejected() {
        assert!(swiglu_graph(&SwigluCfg::validation(48, 64)).is_err());
        assert!(swiglu_graph(&SwigluCfg::validation(64, 100)).is_err());
    }

    #[test]
    fn gemm_subgraph_runs() {
        let mut g = GraphBuilder::new();
        build_gemm(
            &mut g,
            &GemmCfg {
                batch: 64,
                hidden: 128,
                n: 256,
                tile_batch: 32,
                tile_n: 64,
                x_addr: 0x10_0000,
                w_addr: 0x20_0000,
                out_addr: 0x30_0000,
                compute_bw: 1024,
            },
        )
        .unwrap();
        let report = SimPlan::new(g.finish(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        // W reloaded twice + X once + OUT once.
        assert_eq!(
            report.offchip_traffic,
            2 * 128 * 256 * 2 + 64 * 128 * 2 + 64 * 256 * 2
        );
    }
}
