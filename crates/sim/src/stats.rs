//! Per-node execution statistics and engine scheduling counters.

/// Counters for the sharded engine's coordination work: how many global
/// barriers ran, how much of the schedule they carried, and how much work
/// the barrier-elision / wake-dedup machinery saved. All are pure
/// functions of `(graph, SimConfig minus threads)`, so whole-report
/// comparisons across thread counts include them: unlike wall-clock,
/// they can never flake.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Coordination barriers executed (sub-rounds of the sharded engine;
    /// zero for monolithic plans).
    pub sub_rounds: u64,
    /// Shard quiescence runs dispatched across all sub-rounds.
    pub shard_runs: u64,
    /// Sub-rounds with exactly one runnable shard that took the off-chip
    /// fast path (immediate HBM commit, no barrier waits).
    pub solo_runs: u64,
    /// Shard runs dispatched with an elided horizon — an effective
    /// horizon beyond the global one, granted by cut-channel floor slack.
    pub elided_runs: u64,
    /// Wakes absorbed by the generation-stamped ready set (a node already
    /// scheduled for the next wave was woken again).
    pub wake_dedup: u64,
}

/// Statistics collected by each node during simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Value tokens processed (per primary input).
    pub values_in: u64,
    /// Value tokens emitted (per primary output).
    pub values_out: u64,
    /// FLOPs executed (higher-order operators only).
    pub flops: u64,
    /// Cycles this node spent busy (processing, not blocked).
    pub busy_cycles: u64,
    /// Local clock at completion.
    pub finish_time: u64,
    /// Measured on-chip memory requirement in bytes, per the §4.2
    /// equations with dynamic quantities observed at runtime.
    pub onchip_bytes: u64,
    /// Times the scheduler invoked this node's `fire`. The shard-summed
    /// total also rides in `StepError::RoundLimit` when a run blows its
    /// `SimConfig::max_rounds` budget.
    pub fires: u64,
    /// Fires that made no progress (wasted polls; the event-driven
    /// scheduler keeps this near zero).
    pub idle_fires: u64,
    /// Host wall-clock spent inside this node's `fire`, in nanoseconds.
    /// Zero unless the run enabled `SimConfig::profile_fires`; host-
    /// dependent by nature and excluded from every determinism check.
    pub wall_ns: u64,
}

impl NodeStats {
    /// Merges peak-style fields and accumulates counters (used when a node
    /// reports incrementally).
    pub fn absorb(&mut self, other: &NodeStats) {
        self.values_in += other.values_in;
        self.values_out += other.values_out;
        self.flops += other.flops;
        self.busy_cycles += other.busy_cycles;
        self.finish_time = self.finish_time.max(other.finish_time);
        self.onchip_bytes = self.onchip_bytes.max(other.onchip_bytes);
        self.fires += other.fires;
        self.idle_fires += other.idle_fires;
        self.wall_ns += other.wall_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_mixes_counters_and_peaks() {
        let mut a = NodeStats {
            values_in: 1,
            flops: 10,
            onchip_bytes: 100,
            finish_time: 5,
            ..NodeStats::default()
        };
        let b = NodeStats {
            values_in: 2,
            flops: 5,
            onchip_bytes: 50,
            finish_time: 9,
            ..NodeStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.values_in, 3);
        assert_eq!(a.flops, 15);
        assert_eq!(a.onchip_bytes, 100);
        assert_eq!(a.finish_time, 9);
    }
}
