//! Simulator configuration.

/// Timing parameters of the HBM model, standing in for Ramulator 2.0
/// (README "Substitutions").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbmConfig {
    /// Peak data-bus bandwidth in bytes per cycle. The paper's experiments
    /// use 1024 B/cycle (§5.1), matching recent reconfigurable dataflow
    /// accelerators.
    pub bytes_per_cycle: u64,
    /// Number of banks across the stacked channels.
    pub banks: u64,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u64,
    /// Column access latency in cycles (row hit).
    pub t_cas: u64,
    /// Additional precharge+activate latency on a row miss.
    pub t_row_miss: u64,
}

impl Default for HbmConfig {
    fn default() -> Self {
        HbmConfig {
            bytes_per_cycle: 1024,
            banks: 128, // HBM2, 8 stacks x 16 banks
            row_bytes: 1024,
            t_cas: 14,
            t_row_miss: 30,
        }
    }
}

/// Transit latency of every FIFO, in cycles: a token sent at cycle `t`
/// is visible to its reader at `t + CHANNEL_LATENCY`.
pub const CHANNEL_LATENCY: u64 = 1;

/// Global simulation configuration (§5.1 defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// On-chip memory unit bandwidth in bytes/cycle (64 B/cycle in §5.1).
    pub onchip_bytes_per_cycle: u64,
    /// HBM timing model.
    pub hbm: HbmConfig,
    /// Scheduler wave limit (guards against runaway programs). A wave is
    /// one generation of the engine's wake list; the bound plays the same
    /// watchdog role the round-robin engine's round limit did. An
    /// overrun fails the run with `StepError::RoundLimit` carrying the
    /// round and fire counters at the blow — a non-retryable budget
    /// error, distinct from the per-run deadlines a
    /// `RunBinding::deadline_rounds` arms.
    pub max_rounds: u64,
    /// Width of the conservative execution window in cycles: nodes only
    /// consume tokens ready within the window, keeping host execution
    /// order aligned with simulated time (arrival-order operators are
    /// faithful to within one window).
    pub horizon_step: u64,
    /// Worker threads for sharded execution. Results are **independent of
    /// this knob**: it only maps shards onto workers. Default 1.
    pub threads: usize,
    /// Shard plan: `0` = automatic (partition large graphs, keep small
    /// ones monolithic), `1` = force monolithic, `n > 1` = target `n`
    /// shards regardless of graph size. The plan — and therefore every
    /// reported metric — is a pure function of the graph and this value.
    pub shards: usize,
    /// Accumulate host wall-clock per node fire into
    /// [`crate::stats::NodeStats::wall_ns`] (the `fire_profile`
    /// diagnosis tool). Off by default: the timestamp calls cost more
    /// than a cheap fire, and the measured values are host-dependent —
    /// never part of the determinism contract.
    pub profile_fires: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            onchip_bytes_per_cycle: 64,
            hbm: HbmConfig::default(),
            max_rounds: 50_000_000,
            horizon_step: 64,
            threads: 1,
            shards: 0,
            profile_fires: false,
        }
    }
}

impl SimConfig {
    /// The validation configuration of §4.5: 256 B/cycle on-chip memory
    /// bandwidth paired with a single HBM2 subsystem (256 B/cycle peak),
    /// making the SwiGLU workload memory-bound as in the paper.
    pub fn validation() -> SimConfig {
        SimConfig {
            onchip_bytes_per_cycle: 256,
            hbm: HbmConfig {
                bytes_per_cycle: 256,
                ..HbmConfig::default()
            },
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_5_1() {
        let c = SimConfig::default();
        assert_eq!(c.onchip_bytes_per_cycle, 64);
        assert_eq!(c.hbm.bytes_per_cycle, 1024);
    }

    #[test]
    fn validation_config_uses_wider_onchip_ports() {
        assert_eq!(SimConfig::validation().onchip_bytes_per_cycle, 256);
    }
}
