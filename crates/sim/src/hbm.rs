//! The HBM timing node.
//!
//! The paper's simulator wires off-chip operators to a node emulating
//! Ramulator 2.0 with an 8-stack HBM2 configuration. We model the
//! first-order DRAM timing effects the experiments are sensitive to:
//!
//! - a shared data bus with a peak bandwidth (bytes/cycle), modeled as a
//!   **windowed capacity ledger**: simulated time is divided into
//!   fixed-size windows each holding `window x bytes_per_cycle` bytes of
//!   transfer capacity; a request consumes capacity from the windows at
//!   and after its start time, so concurrent streams share the bus and a
//!   saturated bus pushes completions into later windows;
//! - per-bank row buffers: a request to an open row pays CAS latency, a
//!   row miss additionally pays precharge+activate.
//!
//! The ledger (unlike a simple `bus_free` ratchet) is robust to requests
//! arriving out of order in *host* execution order, which the
//! conservative round-robin scheduler produces: a request stamped early
//! in simulated time correctly uses leftover early capacity even when
//! issued late. The README's "Substitutions" section gives the
//! argument for this model in place of Ramulator.

use crate::config::HbmConfig;

/// Bus-ledger window size in cycles.
const WINDOW: u64 = 64;

/// Skip-chain sentinel: window has no skip pointer.
const NO_SKIP: u64 = u64::MAX;

/// One queued off-chip access, issued by a node during a shard sub-round
/// and committed by the engine at the next barrier.
///
/// Ledger outcomes depend on commitment order, so the sharded engine
/// commits each barrier's batch in `(time, node, seq)` order — a total
/// order that is a pure function of the simulation plan, never of worker
/// interleaving. Single-shard plans keep the legacy immediate-commit
/// path, which is the same thing with batches of one; a sharded
/// sub-round with exactly one runnable shard also commits immediately
/// (the off-chip fast path) — the sole accessor's host order is itself
/// a pure function of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmRequest {
    /// Issue time (the requesting node's local clock).
    pub time: u64,
    /// Requesting node (global id; sort tiebreak and response routing).
    pub node: u32,
    /// Per-node issue sequence number (ties requests to responses).
    pub seq: u64,
    /// Byte address.
    pub addr: u64,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Write (`true`) or read.
    pub write: bool,
}

/// The shared off-chip memory timing model.
#[derive(Debug)]
pub struct Hbm {
    cfg: HbmConfig,
    /// Remaining transfer capacity (bytes) per time window, directly
    /// indexed by `window - win_base` (windows outside the vector are
    /// untouched and hold full capacity). Traffic is dense around the
    /// touched span, so a flat vector beats hashing on the hottest path
    /// of the whole simulator (one lookup per access); the base offset
    /// keeps a run whose first access lands at a late simulated time
    /// from materializing every window since zero.
    windows: Vec<u64>,
    /// Skip pointers past exhausted windows (`w -> first window >= w that
    /// may still have capacity`, [`NO_SKIP`] = none), path-compressed and
    /// holding *absolute* window numbers, indexed like `windows`. A
    /// window never regains capacity, so a saturated stretch is crossed
    /// in amortized O(1) instead of rescanned by every access.
    skip: Vec<u64>,
    /// Absolute window number of `windows[0]`/`skip[0]`; set on first
    /// touch, lowered (with a front fill) if an earlier-stamped request
    /// arrives later.
    win_base: u64,
    open_rows: Vec<Option<u64>>,
    /// `log2(row_bytes)` when it is a power of two: replaces the row
    /// division on the hottest arithmetic in the simulator.
    row_shift: Option<u32>,
    /// `banks - 1` when `banks` is a power of two (mask instead of mod).
    bank_mask: Option<u64>,
    /// `log2(bytes_per_cycle)` when it is a power of two.
    bpc_shift: Option<u32>,
    total_bytes: u64,
    read_bytes: u64,
    write_bytes: u64,
    busy_cycles: u64,
    last_completion: u64,
    accesses: u64,
    row_hits: u64,
}

impl Hbm {
    /// Creates the HBM node.
    pub fn new(cfg: HbmConfig) -> Hbm {
        // A zero in the config models as one, here and in every access.
        let banks = cfg.banks.max(1);
        let pow2 = |v: u64| (v > 0 && v.is_power_of_two()).then(|| v.trailing_zeros());
        let row_shift = pow2(cfg.row_bytes.max(1));
        let bank_mask = banks.is_power_of_two().then(|| banks - 1);
        let bpc_shift = pow2(cfg.bytes_per_cycle.max(1));
        Hbm {
            cfg,
            windows: Vec::new(),
            skip: Vec::new(),
            win_base: u64::MAX,
            open_rows: vec![None; banks as usize],
            row_shift,
            bank_mask,
            bpc_shift,
            total_bytes: 0,
            read_bytes: 0,
            write_bytes: 0,
            busy_cycles: 0,
            last_completion: 0,
            accesses: 0,
            row_hits: 0,
        }
    }

    /// Resets the ledger to its just-built state in place, keeping the
    /// window and skip vectors' capacity (the run-state pool's
    /// alloc-free rerun contract).
    pub fn reset(&mut self) {
        self.windows.clear();
        self.skip.clear();
        self.win_base = u64::MAX;
        self.open_rows.fill(None);
        self.total_bytes = 0;
        self.read_bytes = 0;
        self.write_bytes = 0;
        self.busy_cycles = 0;
        self.last_completion = 0;
        self.accesses = 0;
        self.row_hits = 0;
    }

    fn window_capacity(&self) -> u64 {
        WINDOW * self.cfg.bytes_per_cycle.max(1)
    }

    /// Index of window `w`, growing (or front-filling) the vectors so it
    /// is valid. Untouched windows materialize at full capacity.
    fn index_of(&mut self, w: u64) -> usize {
        let cap = self.window_capacity();
        if self.win_base == u64::MAX {
            self.win_base = w;
        }
        if w < self.win_base {
            // An earlier-stamped request arrived later (host order is
            // not simulated order): extend downwards. Rare — the base is
            // set by the first access and clocks mostly advance.
            let grow = (self.win_base - w) as usize;
            self.windows.splice(0..0, std::iter::repeat_n(cap, grow));
            self.skip.splice(0..0, std::iter::repeat_n(NO_SKIP, grow));
            self.win_base = w;
        }
        let idx = (w - self.win_base) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, cap);
            self.skip.resize(idx + 1, NO_SKIP);
        }
        idx
    }

    /// Remaining capacity slot for `w`.
    fn window_mut(&mut self, w: u64) -> &mut u64 {
        let idx = self.index_of(w);
        &mut self.windows[idx]
    }

    /// Records that `w` is exhausted: searches resume at `w + 1`.
    fn mark_skip(&mut self, w: u64) {
        let idx = self.index_of(w);
        self.skip[idx] = w + 1;
    }

    /// The skip target of `w`, if one is recorded (no materialization).
    fn skip_of(&self, w: u64) -> Option<u64> {
        if self.win_base == u64::MAX || w < self.win_base {
            return None;
        }
        match self.skip.get((w - self.win_base) as usize) {
            Some(&nxt) if nxt != NO_SKIP => Some(nxt),
            _ => None,
        }
    }

    /// First window at or after `w` that may still hold capacity,
    /// following (and compressing) the skip chain over exhausted windows.
    fn first_open(&mut self, start: u64) -> u64 {
        let mut w = start;
        while let Some(nxt) = self.skip_of(w) {
            w = nxt;
        }
        // Path compression: point the whole chain at the open window.
        let mut c = start;
        while c != w {
            let idx = (c - self.win_base) as usize;
            let nxt = self.skip[idx];
            self.skip[idx] = w;
            c = nxt;
        }
        w
    }

    /// Issues an access of `bytes` at `addr` at time `now`, returning the
    /// completion time. `write` selects the direction for the statistics.
    pub fn access(&mut self, addr: u64, bytes: u64, now: u64, write: bool) -> u64 {
        let bytes = bytes.max(1);
        let row = match self.row_shift {
            Some(s) => addr >> s,
            None => addr / self.cfg.row_bytes.max(1),
        };
        let bank = match self.bank_mask {
            Some(m) => (row & m) as usize,
            None => (row % self.cfg.banks.max(1)) as usize,
        };
        let hit = self.open_rows[bank] == Some(row);
        let latency = if hit {
            self.row_hits += 1;
            self.cfg.t_cas
        } else {
            self.cfg.t_cas + self.cfg.t_row_miss
        };
        self.open_rows[bank] = Some(row);

        let start = now + latency;
        let bpc = self.cfg.bytes_per_cycle.max(1);
        let bpc_shift = self.bpc_shift;
        let div_ceil_bpc = move |v: u64| match bpc_shift {
            Some(s) => (v + bpc - 1) >> s,
            None => v.div_ceil(bpc),
        };
        let cap = self.window_capacity();
        let mut w = self.first_open(start / WINDOW);
        let mut remaining = bytes;
        let mut done = start;
        loop {
            let avail = self.window_mut(w);
            if *avail == 0 {
                self.mark_skip(w);
                w = self.first_open(w + 1);
                continue;
            }
            let take = remaining.min(*avail);
            *avail -= take;
            remaining -= take;
            // Completion within this window: proportional to the capacity
            // already handed out.
            let used = cap - *avail;
            let exhausted = *avail == 0;
            let within = w * WINDOW + div_ceil_bpc(used);
            done = done.max(within.min((w + 1) * WINDOW));
            if remaining == 0 {
                if exhausted {
                    self.mark_skip(w);
                }
                break;
            }
            self.mark_skip(w);
            w = self.first_open(w + 1);
        }
        done = done.max(start + div_ceil_bpc(bytes));

        self.busy_cycles += div_ceil_bpc(bytes);
        self.total_bytes += bytes;
        if write {
            self.write_bytes += bytes;
        } else {
            self.read_bytes += bytes;
        }
        self.accesses += 1;
        self.last_completion = self.last_completion.max(done);
        done
    }

    /// Commits a barrier batch of queued requests in deterministic
    /// `(time, node, seq)` order, returning `(node, seq, completion)` per
    /// request in that order.
    pub fn service_batch(&mut self, batch: Vec<HbmRequest>) -> Vec<(u32, u64, u64)> {
        sort_order(&batch)
            .into_iter()
            .map(|i| {
                let r = batch[i as usize];
                let done = self.access(r.addr, r.bytes, r.time, r.write);
                (r.node, r.seq, done)
            })
            .collect()
    }

    /// Total bytes transferred.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes read from off-chip memory.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Bytes written to off-chip memory.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Cycles' worth of bus transfer performed.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Completion time of the latest access.
    pub fn last_completion(&self) -> u64 {
        self.last_completion
    }

    /// Number of accesses issued.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// The modeled peak bandwidth in bytes/cycle: the configured value,
    /// with zero modeled as one like every transfer the ledger times.
    pub fn peak_bytes_per_cycle(&self) -> u64 {
        self.cfg.bytes_per_cycle.max(1)
    }
}

/// Sorts a barrier batch into `(time, node, seq)` order. Keys are unique
/// per request (`(node, seq)` alone is), so any correct sort yields the
/// one total order.
///
/// Issue times inside a barrier window are *dense* — the window bounds
/// the time span while the batch grows with traffic, so large batches
/// average a handful of requests per distinct cycle. When the span is
/// comparable to the batch size this runs as a counting sort over time
/// buckets (two linear passes) followed by tiny per-bucket `(node, seq)`
/// sorts, instead of paying a full comparison sort on the largest
/// transient allocation in the engine; sparse or small batches fall back
/// to the comparison sort.
fn sort_order(batch: &[HbmRequest]) -> Vec<u32> {
    let n = batch.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    let fallback = |order: &mut [u32]| {
        order.sort_unstable_by_key(|&i| {
            let r = &batch[i as usize];
            (r.time, r.node, r.seq)
        });
    };
    if n < 2048 {
        fallback(&mut order);
        return order;
    }
    let (mut lo, mut hi, mut max_node) = (u64::MAX, 0u64, 0u32);
    for r in batch {
        lo = lo.min(r.time);
        hi = hi.max(r.time);
        max_node = max_node.max(r.node);
    }
    let span = (hi - lo) as usize + 1;
    let nodes = max_node as usize + 1;
    if span > 4 * n || nodes > n {
        fallback(&mut order);
        return order;
    }
    // Producers append each node's requests in increasing `seq` order
    // (`hbm_seq` is a per-node counter and every node lives on exactly one
    // shard), so a stable counting sort by node alone yields (node, seq)
    // order. Verify the invariant with a linear pass rather than trusting
    // it: a violation downgrades to the comparison sort, never misorders.
    let mut last = vec![u64::MAX; nodes];
    for r in batch {
        let l = &mut last[r.node as usize];
        if *l != u64::MAX && r.seq <= *l {
            fallback(&mut order);
            return order;
        }
        *l = r.seq;
    }
    // Pass 1 — stable counting sort by node: `counts[k+1]` accumulates
    // bucket sizes, the prefix sum turns them into scatter cursors.
    let mut counts = vec![0u32; nodes + 1];
    for r in batch {
        counts[r.node as usize + 1] += 1;
    }
    for i in 1..=nodes {
        counts[i] += counts[i - 1];
    }
    let mut by_node = vec![0u32; n];
    for (i, r) in batch.iter().enumerate() {
        let c = &mut counts[r.node as usize];
        by_node[*c as usize] = i as u32;
        *c += 1;
    }
    // Pass 2 — stable counting sort by time over the (node, seq)-ordered
    // indices: equal-time ties keep their (node, seq) order, producing the
    // full (time, node, seq) key without any comparison sort.
    let mut counts = vec![0u32; span + 1];
    for r in batch {
        counts[(r.time - lo) as usize + 1] += 1;
    }
    for i in 1..=span {
        counts[i] += counts[i - 1];
    }
    for &i in &by_node {
        let c = &mut counts[(batch[i as usize].time - lo) as usize];
        order[*c as usize] = i;
        *c += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_order_matches_comparison_sort() {
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let sorted_by = |batch: &[HbmRequest]| {
            let mut want: Vec<u32> = (0..batch.len() as u32).collect();
            want.sort_unstable_by_key(|&i| {
                let r = &batch[i as usize];
                (r.time, r.node, r.seq)
            });
            want
        };

        // Dense times with globally increasing seq (hence per-node
        // increasing): takes the two-pass radix path, with plenty of
        // duplicate times to exercise the stability tie-break.
        let dense: Vec<HbmRequest> = (0..4096)
            .map(|i| HbmRequest {
                time: 1000 + next() % 2048,
                node: (next() % 37) as u32,
                seq: i,
                addr: next(),
                bytes: 64,
                write: i % 3 == 0,
            })
            .collect();
        assert_eq!(sort_order(&dense), sorted_by(&dense));

        // Sparse times overflow the span bound: comparison-sort fallback.
        let sparse: Vec<HbmRequest> = (0..4096)
            .map(|i| HbmRequest {
                time: next() << 20,
                node: (next() % 7) as u32,
                seq: i,
                addr: next(),
                bytes: 64,
                write: false,
            })
            .collect();
        assert_eq!(sort_order(&sparse), sorted_by(&sparse));

        // Scrambled (but unique) seq breaks the per-node monotonicity the
        // radix path depends on: the verify pass must catch it and fall
        // back rather than misorder.
        let scrambled: Vec<HbmRequest> = (0..4096u64)
            .map(|i| HbmRequest {
                time: 500 + next() % 1024,
                node: (next() % 5) as u32,
                seq: (i * 2654435761) % 4096,
                addr: next(),
                bytes: 64,
                write: false,
            })
            .collect();
        assert_eq!(sort_order(&scrambled), sorted_by(&scrambled));
    }

    fn hbm() -> Hbm {
        Hbm::new(HbmConfig {
            bytes_per_cycle: 64,
            banks: 4,
            row_bytes: 1024,
            t_cas: 10,
            t_row_miss: 20,
        })
    }

    #[test]
    fn single_access_pays_latency_plus_transfer() {
        let mut h = hbm();
        let done = h.access(0, 64, 0, false);
        // t_cas + t_row_miss + 1 transfer cycle.
        assert_eq!(done, 31);
        assert_eq!(h.total_bytes(), 64);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut h = hbm();
        let d1 = h.access(0, 64, 1000, false);
        let d2 = h.access(64, 64, 2000, false);
        // Same row: CAS only.
        assert_eq!(d2 - 2000, d1 - 1000 - 20);
        assert!(h.row_hit_rate() > 0.4);
    }

    #[test]
    fn saturated_bus_pushes_completions_out() {
        let mut h = hbm();
        // 100 requests of a full window's capacity each, all at t=0: the
        // last must finish no earlier than total/bandwidth.
        let cap = 64 * WINDOW;
        let mut last = 0;
        for i in 0..100u64 {
            last = last.max(h.access(i * 4096, cap, 0, false));
        }
        assert!(last >= 100 * WINDOW, "last={last}");
        assert_eq!(h.busy_cycles(), 100 * WINDOW);
    }

    #[test]
    fn late_first_access_does_not_materialize_early_windows() {
        // The ledger's flat window vectors are base-offset: a run whose
        // first off-chip access lands deep into simulated time touches
        // O(1) windows, not one per window since zero.
        let mut h = hbm();
        let far = 1 << 40;
        let d = h.access(0, 64, far, false);
        assert!(d >= far);
        assert!(h.windows.len() < 8, "windows: {}", h.windows.len());
        // An earlier-stamped access arriving later extends downwards
        // (memory stays O(access-time span / window), never O(absolute
        // time)) and still lands in its own window's capacity.
        let d_early = h.access(4096, 64, far - 100_000, false);
        assert!(d_early <= far - 100_000 + 64, "d_early={d_early}");
        assert!(h.windows.len() < 100_000 / 64 + 8);
        assert_eq!(h.total_bytes(), 128);
    }

    #[test]
    fn late_fired_early_request_uses_leftover_capacity() {
        let mut h = hbm();
        // A request issued (host-order) late but stamped early must not
        // be pushed behind one stamped much later.
        let d_late_time = h.access(0, 64, 100_000, false);
        let d_early_time = h.access(4096, 64, 0, false);
        assert!(d_early_time < d_late_time);
        assert!(d_early_time <= 64);
    }

    #[test]
    fn concurrent_streams_share_bandwidth() {
        let mut h = hbm();
        // Two interleaved streams at the same times: joint completion is
        // bounded by aggregate bytes / bandwidth.
        let mut last = 0;
        for k in 0..64u64 {
            last = last.max(h.access(k * 8192, 2048, k * 16, false));
            last = last.max(h.access(1 << 20 | (k * 8192), 2048, k * 16, false));
        }
        let total_bytes = 64 * 2 * 2048u64;
        assert!(last >= total_bytes / 64, "last={last}");
        // ...but not pathologically serialized (within 2x of ideal).
        assert!(last <= 2 * (total_bytes / 64) + 200, "last={last}");
    }

    #[test]
    fn batch_service_is_order_independent() {
        // The same request multiset in two different arrival orders must
        // produce identical completion times per (node, seq).
        let reqs = |shuffle: bool| {
            let mut v = vec![
                HbmRequest {
                    time: 0,
                    node: 2,
                    seq: 0,
                    addr: 0,
                    bytes: 4096,
                    write: false,
                },
                HbmRequest {
                    time: 0,
                    node: 1,
                    seq: 0,
                    addr: 8192,
                    bytes: 4096,
                    write: false,
                },
                HbmRequest {
                    time: 5,
                    node: 1,
                    seq: 1,
                    addr: 16384,
                    bytes: 2048,
                    write: true,
                },
            ];
            if shuffle {
                v.reverse();
            }
            v
        };
        let mut h1 = hbm();
        let mut out1 = h1.service_batch(reqs(false));
        let mut h2 = hbm();
        let mut out2 = h2.service_batch(reqs(true));
        out1.sort();
        out2.sort();
        assert_eq!(out1, out2);
        assert_eq!(h1.total_bytes(), h2.total_bytes());
        assert_eq!(h1.last_completion(), h2.last_completion());
    }

    #[test]
    fn read_write_split_tracked() {
        let mut h = hbm();
        h.access(0, 100, 0, false);
        h.access(0, 50, 0, true);
        assert_eq!(h.read_bytes(), 100);
        assert_eq!(h.write_bytes(), 50);
        assert_eq!(h.total_bytes(), 150);
    }
}
