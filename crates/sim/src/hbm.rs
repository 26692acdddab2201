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
//!
//! Ledger outcomes depend on commitment order. Monolithic plans, and a
//! sharded sub-round with exactly one runnable shard (the off-chip fast
//! path), commit each access as it is issued: the sole accessor's host
//! order is itself a pure function of the plan. Other sharded sub-rounds
//! queue each node's requests as [`ReqRun`]s, and the engine commits them
//! at the next barrier by merging the nodes' queues in `(time, node, seq)`
//! order — a total order that is a pure function of the simulation plan,
//! never of worker interleaving.

use crate::config::HbmConfig;
use crate::run::TimeRun;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// Bus-ledger window size in cycles.
const WINDOW: u64 = 64;

/// Tag bit of an exhausted window's ledger slot. A window never regains
/// capacity, so its slot holds a skip pointer instead: `EXHAUSTED |
/// next`, where `next` is the first window at or after it that may still
/// hold capacity.
const EXHAUSTED: u64 = 1 << 63;

/// A run of one node's queued off-chip requests: requests `seq0..seq0 +
/// time.count`, issued at the (arithmetic) times `time` to the addresses
/// `addr, addr + addr_stride, …`, each moving `bytes` in one direction.
/// Requests coalesce into runs as they queue, the way completions
/// coalesce into [`RespRun`](crate::nodes::RespRun)s, so a pipelined
/// burst of tile reads costs one queue entry instead of one per request.
#[derive(Debug, Clone, Copy)]
pub struct ReqRun {
    /// First request sequence number covered.
    seq0: u64,
    /// Issue times (the requesting node's local clock), one per request.
    time: TimeRun,
    /// Address of the first request.
    addr: u64,
    /// Address increment between consecutive requests, wrapping (a
    /// descending run has a stride past `2^63`).
    addr_stride: u64,
    /// Transfer size of every request in bytes.
    bytes: u64,
    /// Write (`true`) or read, for every request.
    write: bool,
}

/// Appends request `seq` to a node's queue, extending the tail run when
/// the sequence, size, direction, address stride and time stride all
/// continue.
pub(crate) fn push_request(
    q: &mut VecDeque<ReqRun>,
    seq: u64,
    addr: u64,
    bytes: u64,
    time: u64,
    write: bool,
) {
    // The barrier commit merges per-node queues, which yields `(time,
    // node, seq)` order only if each queue is in time order.
    debug_assert!(
        q.back().is_none_or(|r| r.time.last() <= time),
        "off-chip request {seq} issued at {time}, before the node's last queued request"
    );
    if let Some(b) = q.back_mut()
        && b.seq0 + b.time.count == seq
        && b.bytes == bytes
        && b.write == write
    {
        let last = b
            .addr
            .wrapping_add((b.time.count - 1).wrapping_mul(b.addr_stride));
        let step = addr.wrapping_sub(last);
        if (b.time.count == 1 || step == b.addr_stride) && b.time.try_extend(TimeRun::single(time))
        {
            b.addr_stride = step;
            return;
        }
    }
    q.push_back(ReqRun {
        seq0: seq,
        time: TimeRun::single(time),
        addr,
        addr_stride: 0,
        bytes,
        write,
    });
}

/// A barrier commit: a K-way merge over the heads of the nodes' request
/// queues, keyed `(time, node)` with the node's global id. Each queue is
/// already in `(time, seq)` order (a node's issue clock is monotone), so
/// the merge commits exactly the `(time, node, seq)` order a sort of
/// every request would, with no batch, index or result vector. `S` is
/// the caller's handle to a queue.
pub(crate) struct Merge<S> {
    heads: BinaryHeap<Reverse<(u64, u32, S)>>,
}

impl<S: Copy + Ord> Merge<S> {
    /// An empty merge.
    pub(crate) fn new() -> Merge<S> {
        Merge {
            heads: BinaryHeap::new(),
        }
    }

    /// Adds node `node`'s queue `q`, which `slot` addresses; an empty
    /// queue is skipped. Add each queue at most once.
    pub(crate) fn add(&mut self, node: u32, slot: S, q: &VecDeque<ReqRun>) {
        if let Some(head) = q.front() {
            self.heads.push(Reverse((head.time.start, node, slot)));
        }
    }

    /// Services every request of the added queues against `hbm` in
    /// `(time, node, seq)` order, leaving the queues empty. `queue`
    /// resolves a slot to its queue in `cx`; each completion goes to
    /// `complete(cx, slot, seq, done)` as soon as it is serviced.
    pub(crate) fn commit<C: ?Sized>(
        mut self,
        hbm: &mut Hbm,
        cx: &mut C,
        queue: impl Fn(&mut C, S) -> &mut VecDeque<ReqRun>,
        mut complete: impl FnMut(&mut C, S, u64, u64),
    ) {
        while let Some(mut top) = self.heads.peek_mut() {
            let Reverse((time, _, slot)) = *top;
            let q = queue(cx, slot);
            let run = q.front_mut().expect("a merge head is a queued request");
            let seq = run.seq0;
            let done = hbm.access(run.addr, run.bytes, time, run.write);
            let next = if run.time.count > 1 {
                run.seq0 += 1;
                run.time = run.time.advance(1);
                run.addr = run.addr.wrapping_add(run.addr_stride);
                Some(run.time.start)
            } else {
                q.pop_front();
                q.front().map(|r| r.time.start)
            };
            match next {
                Some(t) => top.0.0 = t,
                None => {
                    PeekMut::pop(top);
                }
            }
            complete(cx, slot, seq, done);
        }
    }
}

/// The shared off-chip memory timing model.
#[derive(Debug)]
pub struct Hbm {
    cfg: HbmConfig,
    /// One slot per time window, directly indexed by `window - win_base`
    /// (windows outside the vector are untouched and hold full
    /// capacity): the remaining transfer capacity in bytes, or, once the
    /// window is exhausted, a skip pointer `EXHAUSTED | next` to the first
    /// window at or after it that may still hold capacity. Skip pointers
    /// hold *absolute* window numbers and are path-compressed, so a
    /// saturated stretch is crossed in amortized O(1) instead of rescanned
    /// by every access. Traffic is dense around the touched span, so a
    /// flat vector beats hashing on the hottest path of the whole
    /// simulator (one lookup per access); the base offset keeps a run
    /// whose first access lands at a late simulated time from
    /// materializing every window since zero.
    windows: Vec<u64>,
    /// Absolute window number of `windows[0]`; set on first touch,
    /// lowered (with a front fill) if an earlier-stamped request arrives
    /// later.
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
    /// window vector's capacity (the run-state pool's alloc-free rerun
    /// contract).
    pub fn reset(&mut self) {
        self.windows.clear();
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

    /// A window's transfer capacity in bytes, kept below the
    /// [`EXHAUSTED`] tag.
    fn window_capacity(&self) -> u64 {
        WINDOW
            .saturating_mul(self.cfg.bytes_per_cycle.max(1))
            .min(EXHAUSTED - 1)
    }

    /// Index of window `w`, growing (or front-filling) the vector so it
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
            self.win_base = w;
        }
        let idx = (w - self.win_base) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, cap);
        }
        idx
    }

    /// The skip target of `w`, if it is exhausted (no materialization).
    fn skip_of(&self, w: u64) -> Option<u64> {
        if self.win_base == u64::MAX || w < self.win_base {
            return None;
        }
        match self.windows.get((w - self.win_base) as usize) {
            Some(&slot) if slot & EXHAUSTED != 0 => Some(slot & !EXHAUSTED),
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
            let slot = &mut self.windows[(c - self.win_base) as usize];
            c = *slot & !EXHAUSTED;
            *slot = EXHAUSTED | w;
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
            let idx = self.index_of(w);
            let avail = &mut self.windows[idx];
            // An open window holds capacity: an exhausted one is tagged
            // the moment it runs dry.
            debug_assert!(*avail != 0 && *avail & EXHAUSTED == 0);
            let take = remaining.min(*avail);
            *avail -= take;
            remaining -= take;
            // Completion within this window: proportional to the capacity
            // already handed out.
            let used = cap - *avail;
            let within = w * WINDOW + div_ceil_bpc(used);
            done = done.max(within.min((w + 1) * WINDOW));
            if *avail == 0 {
                *avail = EXHAUSTED | (w + 1);
            }
            if remaining == 0 {
                break;
            }
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A seeded LCG: the merge test's only randomness.
    fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut s = seed;
        move |below| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) % below
        }
    }

    fn shuffle<T>(v: &mut [T], next: &mut impl FnMut(u64) -> u64) {
        for i in (1..v.len()).rev() {
            v.swap(i, next(i as u64 + 1) as usize);
        }
    }

    #[test]
    fn merge_commits_exactly_the_sorted_request_order() {
        let mut next = lcg(0x9e3779b97f4a7c15);
        let (mut requests, mut queues, mut runs, mut ties) = (0, 0, 0, 0);
        for _ in 0..64 {
            // Global node ids spread over shards in shuffled order, so
            // neither shard nor local index follows the id.
            let shard_count = 1 + next(5) as usize;
            let mut ids: Vec<u32> = (0..2 + next(24) as u32).collect();
            shuffle(&mut ids, &mut next);
            let mut shards: Vec<Vec<(u32, VecDeque<ReqRun>)>> = vec![Vec::new(); shard_count];
            for id in ids {
                shards[next(shard_count as u64) as usize].push((id, VecDeque::new()));
            }
            // Per-node queues with monotone issue times that start close
            // together (heads share times across nodes), broken now and
            // then on bytes, direction, address stride or time stride.
            let mut flat = Vec::new();
            for (node, q) in shards.iter_mut().flatten() {
                let (mut time, mut addr) = (next(8), next(4096) * 64);
                let (mut bytes, mut write, mut stride, mut tstride) = (64, false, 64u64, 1);
                for seq in 0..next(48) {
                    match next(20) {
                        0 => bytes = 32 << next(3),
                        1 => write = !write,
                        2 => stride = next(5).wrapping_sub(2).wrapping_mul(64),
                        3 => tstride = next(3),
                        _ => {}
                    }
                    push_request(q, seq, addr, bytes, time, write);
                    flat.push((time, *node, seq, addr, bytes, write));
                    addr = addr.wrapping_add(stride);
                    time += tstride;
                }
                queues += usize::from(!q.is_empty());
                runs += q.len();
            }
            requests += flat.len();

            // The reference: expand, sort by (time, node, seq), service
            // one by one.
            flat.sort_unstable_by_key(|&(time, node, seq, ..)| (time, node, seq));
            ties += flat
                .windows(2)
                .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
                .count();
            let mut want_hbm = hbm();
            let want: Vec<(u32, u64, u64)> = flat
                .iter()
                .map(|&(time, node, seq, addr, bytes, write)| {
                    (node, seq, want_hbm.access(addr, bytes, time, write))
                })
                .collect();

            let mut slots: Vec<(usize, usize)> = (0..shard_count)
                .flat_map(|s| (0..shards[s].len()).map(move |l| (s, l)))
                .collect();
            shuffle(&mut slots, &mut next);
            let mut merge = Merge::new();
            for &(s, l) in &slots {
                let (node, q) = &shards[s][l];
                merge.add(*node, (s, l), q);
            }
            let mut got_hbm = hbm();
            let mut got = Vec::new();
            merge.commit(
                &mut got_hbm,
                &mut shards,
                |sh, (s, l)| &mut sh[s][l].1,
                |sh, (s, l), seq, done| got.push((sh[s][l].0, seq, done)),
            );
            assert_eq!(got, want);
            assert!(shards.iter().flatten().all(|(_, q)| q.is_empty()));
        }
        // The cases must exercise what they claim: runs that coalesce and
        // break, and equal-time heads from different nodes.
        assert!(
            runs * 3 < requests && runs > 2 * queues,
            "{requests} requests in {runs} runs over {queues} queues"
        );
        assert!(
            ties > 1000,
            "{ties} equal-time neighbours from different nodes"
        );
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
