//! Fine-grained reference simulator for validating the cycle-approximate
//! STeP simulator (§4.5, Fig 8).
//!
//! The paper validates its simulator against a Bluespec SystemVerilog
//! implementation executed in the cycle-accurate BlueSim: the STeP graph
//! is transformed by *hierarchical tiling* (Appendix B.2, Fig 18) so that
//! every logical tile decomposes into the fabric's 16x16 BF16 physical
//! tiles, every node maps to a dedicated unit with initiation interval 1,
//! and the units are attached to a congestion-free interconnect with an
//! HBM2 subsystem behind them.
//!
//! We cannot run an HDL toolchain here, so this crate implements that
//! *mapped design* directly: a scoreboard simulation at physical-tile
//! granularity (one event per 16x16-tile operation per dedicated unit)
//! of the same SwiGLU workload, with dedicated loader/GEMM/activation/
//! accumulate/store units, per-unit II = 1, scratchpad ports at the
//! validation configuration's 256 B/cycle, and the shared
//! [`step_sim::hbm::Hbm`] timing model. Because the interconnect is
//! congestion-free and every unit is dedicated, completion times follow
//! the classic pipeline recurrence
//! `t[unit][op] = max(deps ready, unit free) + II`, which is exact for
//! this mapping — giving an independent, finer-grained reference to
//! correlate the coarse simulator against (the paper reports Pearson
//! r = 0.99; `fig8` prints ours, and README "Substitutions" records
//! it with the absolute error).

use step_models::swiglu::SwigluCfg;
use step_sim::HbmConfig;
use step_sim::hbm::Hbm;

/// Physical compute-tile edge length (16x16 BF16 tiles, §4.5).
pub const PHYS: u64 = 16;

/// Hardware parameters of the reference design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefConfig {
    /// On-chip memory unit bandwidth in bytes/cycle (256 in §4.5).
    pub onchip_bytes_per_cycle: u64,
    /// HBM2 subsystem timing.
    pub hbm: HbmConfig,
}

impl Default for RefConfig {
    fn default() -> Self {
        RefConfig {
            onchip_bytes_per_cycle: 256,
            hbm: HbmConfig {
                bytes_per_cycle: 256,
                ..HbmConfig::default()
            },
        }
    }
}

/// Result of a reference simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefReport {
    /// Total execution time from first off-chip read to last off-chip
    /// write (the paper's measurement window).
    pub cycles: u64,
    /// Off-chip traffic in bytes.
    pub offchip_bytes: u64,
    /// Physical-tile operations executed.
    pub phys_tile_ops: u64,
}

/// A dedicated pipelined unit with initiation interval `ii`.
#[derive(Debug, Clone, Copy)]
struct Unit {
    free: u64,
    ii: u64,
}

impl Unit {
    fn new(ii: u64) -> Unit {
        Unit { free: 0, ii }
    }

    /// Starts an operation whose operands are ready at `deps`; returns
    /// its completion time.
    fn issue(&mut self, deps: u64) -> u64 {
        let start = self.free.max(deps);
        self.free = start + self.ii;
        self.free
    }
}

/// Simulates the mapped SwiGLU design at physical-tile granularity.
///
/// The schedule mirrors the STeP-level program: for each `[Tb, H]`
/// activation tile, the three weight matrices stream strip by strip; the
/// gate/up GEMMs, the fused SiLU-multiply, and the down-projection GEMM
/// with on-chip accumulation proceed at 16x16 granularity on dedicated
/// units.
///
/// # Panics
///
/// Panics if tile sizes are not multiples of the physical tile edge or do
/// not divide the layer dimensions.
pub fn simulate_swiglu(cfg: &SwigluCfg, hw: &RefConfig) -> RefReport {
    assert!(
        cfg.tile_batch.is_multiple_of(PHYS)
            && cfg.tile_inter.is_multiple_of(PHYS)
            && cfg.hidden.is_multiple_of(PHYS),
        "tile sizes must be multiples of the physical tile edge"
    );
    assert!(
        cfg.batch.is_multiple_of(cfg.tile_batch) && cfg.inter.is_multiple_of(cfg.tile_inter),
        "tiles must divide dims"
    );
    let mut hbm = Hbm::new(hw.hbm.clone());
    let phys_bytes = PHYS * PHYS * step_core::DTYPE_BYTES;
    // Scratchpad port: cycles to move one physical tile.
    let spad = phys_bytes.div_ceil(hw.onchip_bytes_per_cycle.max(1)).max(1);

    // Dedicated units (Fig 18 mapping): loaders stage into scratchpads;
    // GEMM/activation units run at II=1 per physical-tile op.
    let mut x_stage = Unit::new(spad);
    let mut w1_stage = Unit::new(spad);
    let mut w3_stage = Unit::new(spad);
    let mut w2_stage = Unit::new(spad);
    let mut gemm1 = Unit::new(1);
    let mut gemm3 = Unit::new(1);
    let mut act = Unit::new(1);
    let mut gemm2 = Unit::new(1);
    let mut accum = Unit::new(1);
    let mut store_port = Unit::new(spad);

    let (b, h, i) = (cfg.batch, cfg.hidden, cfg.inter);
    let (tb, ti) = (cfg.tile_batch, cfg.tile_inter);
    let (pb, ph, pi) = (tb / PHYS, h / PHYS, ti / PHYS);
    let x_base = 0u64;
    let w1_base = 0x100_0000u64;
    let w3_base = 0x200_0000u64;
    let w2_base = 0x300_0000u64;
    let out_base = 0x400_0000u64;

    let mut ops: u64 = 0;
    let mut first_read_issue = u64::MAX;
    let mut last_write_done = 0u64;
    let mut clock = 0u64; // issue clock for DMA requests
    let mut end = 0u64;

    for bt in 0..(b / tb) {
        // Stream the activation tile: one burst per physical tile.
        let mut x_ready = vec![0u64; (pb * ph) as usize];
        for p in 0..(pb * ph) {
            let addr = x_base + (bt * tb * h + p * PHYS * PHYS) * 2;
            first_read_issue = first_read_issue.min(clock);
            let arrive = hbm.access(addr, phys_bytes, clock, false);
            clock += 1;
            x_ready[p as usize] = x_stage.issue(arrive);
        }
        // Accumulator state per output physical tile of this batch tile.
        let mut acc_ready = vec![0u64; (pb * ph) as usize];
        for strip in 0..(i / ti) {
            // Stream W1/W3 strips [H, Ti] and the W2 strip [Ti, H].
            let mut w1_ready = vec![0u64; (ph * pi) as usize];
            let mut w3_ready = vec![0u64; (ph * pi) as usize];
            let mut w2_ready = vec![0u64; (pi * ph) as usize];
            for p in 0..(ph * pi) {
                let off = (strip * h * ti + p * PHYS * PHYS) * 2;
                let a1 = hbm.access(w1_base + off, phys_bytes, clock, false);
                let a3 = hbm.access(w3_base + off, phys_bytes, clock, false);
                clock += 1;
                w1_ready[p as usize] = w1_stage.issue(a1);
                w3_ready[p as usize] = w3_stage.issue(a3);
            }
            for p in 0..(pi * ph) {
                let off = (strip * ti * h + p * PHYS * PHYS) * 2;
                let a2 = hbm.access(w2_base + off, phys_bytes, clock, false);
                clock += 1;
                w2_ready[p as usize] = w2_stage.issue(a2);
            }
            // Gate/up GEMMs, activation, and down GEMM + accumulation.
            for bi in 0..pb {
                for ji in 0..pi {
                    let mut g1 = 0u64;
                    let mut g3 = 0u64;
                    for k in 0..ph {
                        let xr = x_ready[(bi * ph + k) as usize];
                        let w1r = w1_ready[(k * pi + ji) as usize];
                        let w3r = w3_ready[(k * pi + ji) as usize];
                        g1 = gemm1.issue(xr.max(w1r).max(g1));
                        g3 = gemm3.issue(xr.max(w3r).max(g3));
                        ops += 2;
                    }
                    let h_ready = act.issue(g1.max(g3));
                    ops += 1;
                    // Down projection: this [16,16] activation tile
                    // contributes to every output column tile.
                    for ko in 0..ph {
                        let w2r = w2_ready[(ji * ph + ko) as usize];
                        let partial = gemm2.issue(h_ready.max(w2r));
                        let slot = (bi * ph + ko) as usize;
                        acc_ready[slot] = accum.issue(partial.max(acc_ready[slot]));
                        ops += 2;
                    }
                }
            }
        }
        // Write the finished [Tb, H] output tile.
        for p in 0..(pb * ph) {
            let ready = store_port.issue(acc_ready[p as usize]);
            let addr = out_base + (bt * tb * h + p * PHYS * PHYS) * 2;
            let done = hbm.access(addr, phys_bytes, ready, true);
            last_write_done = last_write_done.max(done);
        }
        end = end.max(last_write_done);
    }

    let start = if first_read_issue == u64::MAX {
        0
    } else {
        first_read_issue
    };
    RefReport {
        cycles: end.saturating_sub(start),
        offchip_bytes: hbm.total_bytes(),
        phys_tile_ops: ops,
    }
}

/// Pearson correlation coefficient between two equally-long series.
///
/// # Panics
///
/// Panics if the series differ in length or are shorter than 2.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must align");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Mean absolute percentage error of `xs` against the reference series
/// `refs`, with the worst point: `(MAPE %, index of the largest error,
/// that error %)`. On ties the first such point is the worst.
///
/// # Panics
///
/// Panics if the series differ in length or are empty.
pub fn mape(xs: &[f64], refs: &[f64]) -> (f64, usize, f64) {
    assert_eq!(xs.len(), refs.len(), "series must align");
    assert!(!xs.is_empty(), "need at least one point");
    let mut sum = 0.0;
    let (mut worst, mut worst_pct) = (0, 0.0);
    for (i, (x, r)) in xs.iter().zip(refs).enumerate() {
        let err = (x - r).abs() / r * 100.0;
        sum += err;
        if err > worst_pct {
            (worst, worst_pct) = (i, err);
        }
    }
    (sum / xs.len() as f64, worst, worst_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_matches_analytic_model() {
        let cfg = SwigluCfg::validation(32, 64);
        let r = simulate_swiglu(&cfg, &RefConfig::default());
        let reloads = cfg.batch / cfg.tile_batch;
        let w_bytes = 3 * cfg.hidden * cfg.inter * 2;
        let io = 2 * cfg.batch * cfg.hidden * 2;
        assert_eq!(r.offchip_bytes, reloads * w_bytes + io);
    }

    #[test]
    fn smaller_batch_tiles_cost_more() {
        let small = simulate_swiglu(&SwigluCfg::validation(16, 64), &RefConfig::default());
        let large = simulate_swiglu(&SwigluCfg::validation(64, 64), &RefConfig::default());
        assert!(small.cycles > large.cycles);
        assert!(small.offchip_bytes > large.offchip_bytes);
    }

    #[test]
    fn phys_ops_match_flop_structure() {
        let cfg = SwigluCfg::validation(64, 256);
        let r = simulate_swiglu(&cfg, &RefConfig::default());
        let macs = (cfg.batch / PHYS) * (cfg.hidden / PHYS) * (cfg.inter / PHYS);
        // gate + up + (down gemm + accum) + activation.
        let expected = 2 * macs + 2 * macs + (cfg.batch / PHYS) * (cfg.inter / PHYS);
        assert_eq!(r.phys_tile_ops, expected);
    }

    #[test]
    fn reference_is_deterministic() {
        let cfg = SwigluCfg::validation(32, 128);
        let a = simulate_swiglu(&cfg, &RefConfig::default());
        let b = simulate_swiglu(&cfg, &RefConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-9);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-9);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn mape_basics() {
        // Errors 10%, 50% and 0% against the reference.
        let (m, worst, worst_pct) = mape(&[110.0, 100.0, 40.0], &[100.0, 200.0, 40.0]);
        assert!((m - 20.0).abs() < 1e-9);
        assert_eq!((worst, worst_pct), (1, 50.0));
        // A 100% overshoot and a 100% undershoot tie: the first is worst.
        assert_eq!(mape(&[20.0, 0.0], &[10.0, 10.0]), (100.0, 0, 100.0));
        assert_eq!(mape(&[5.0], &[5.0]), (0.0, 0, 0.0));
    }

    #[test]
    #[should_panic(expected = "physical tile")]
    fn rejects_sub_physical_tiles() {
        let _ = simulate_swiglu(&SwigluCfg::validation(8, 64), &RefConfig::default());
    }
}
