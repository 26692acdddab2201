//! The simulator's error against the fine-grained `step-hdl` reference
//! over the Fig 8 SwiGLU validation tiles.

use crate::Size;
use step_hdl::{RefConfig, simulate_swiglu};
use step_models::swiglu::{SwigluCfg, swiglu_graph};
use step_sim::{SimConfig, SimPlan};

/// The Fig 8 tiles, as (batch tile, intermediate tile).
pub(crate) fn tiles(size: Size) -> Vec<(u64, u64)> {
    let (batch, inter): (&[u64], &[u64]) = match size {
        Size::Full => (&[16, 32, 64], &[16, 32, 64, 128, 256]),
        Size::Smoke => (&[16, 64], &[256]),
    };
    batch
        .iter()
        .flat_map(|&tb| inter.iter().map(move |&ti| (tb, ti)))
        .collect()
}

/// One tile's simulated cycles; `None` when its simulation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCycles {
    /// (batch tile, intermediate tile).
    pub tile: (u64, u64),
    /// Cycles of the cycle-approximate simulator.
    pub cycles: Option<u64>,
}

/// The validation config of one tile.
pub(crate) fn swiglu_cfg((tb, ti): (u64, u64)) -> SwigluCfg {
    SwigluCfg::validation(tb, ti)
}

/// Simulates each tile on the validation config.
pub(crate) fn step_cycles(tiles: &[(u64, u64)]) -> Vec<TileCycles> {
    tiles
        .iter()
        .map(|&tile| TileCycles {
            tile,
            cycles: swiglu_graph(&swiglu_cfg(tile))
                .and_then(|g| SimPlan::new(g, SimConfig::validation()))
                .and_then(|p| p.run())
                .map(|r| r.cycles)
                .ok(),
        })
        .collect()
}

/// Mean and worst absolute cycle error against the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fidelity {
    /// Mean absolute percentage error over the compared tiles.
    pub mape_pct: f64,
    /// Largest absolute percentage error.
    pub max_pct: f64,
    /// The tile with the largest error, as (batch, hidden, intermediate).
    pub worst: (u64, u64, u64),
    /// Tiles compared.
    pub tiles: usize,
}

impl Fidelity {
    /// The report line.
    pub(crate) fn line(&self) -> String {
        format!(
            "ref_error_pct {:.3} over {} tiles, max {:.3}% at ({},{},{})",
            self.mape_pct, self.tiles, self.max_pct, self.worst.0, self.worst.1, self.worst.2
        )
    }
}

/// Compares simulated cycles with the reference, returning the error
/// and the number of tiles whose simulation failed.
pub(crate) fn compare(tiles: &[TileCycles]) -> (Fidelity, u64) {
    let mut fid = Fidelity {
        mape_pct: 0.0,
        max_pct: 0.0,
        worst: (0, 0, 0),
        tiles: 0,
    };
    let mut failed = 0;
    let mut sum = 0.0;
    for t in tiles {
        let Some(cycles) = t.cycles else {
            failed += 1;
            continue;
        };
        let cfg = swiglu_cfg(t.tile);
        let reference = simulate_swiglu(&cfg, &RefConfig::default()).cycles as f64;
        let err = (cycles as f64 - reference).abs() / reference * 100.0;
        sum += err;
        fid.tiles += 1;
        if err > fid.max_pct {
            fid.max_pct = err;
            fid.worst = (cfg.tile_batch, cfg.hidden, cfg.tile_inter);
        }
    }
    if fid.tiles > 0 {
        fid.mape_pct = sum / fid.tiles as f64;
    }
    (fid, failed)
}
