//! The simulation engine: an immutable, reusable execution plan
//! ([`SimPlan`]) driving sharded event-driven scheduling over per-run
//! mutable state, with deterministic parallel execution, termination,
//! and reporting.
//!
//! # Plan / run lifecycle
//!
//! Building a simulation is two phases with very different costs and
//! mutability:
//!
//! - [`SimPlan::new`] does everything that depends only on `(graph,
//!   SimConfig)`: it rejects inexecutable operators, partitions the
//!   graph into shards ([`step_core::partition`], with cut metadata),
//!   lays out every shard's channel topology (local channel table,
//!   channel → edge table, reader/writer indices, flat port table,
//!   cross-shard halves), and freezes the configuration. Every table is
//!   linear in the graph's size. The resulting plan is **immutable** —
//!   it can be wrapped in an `Arc` and run from many threads at once.
//! - [`SimPlan::run_with`] materializes the cheap mutable state for one
//!   execution — node executors lowered from the graph, channel queues,
//!   scratchpad arenas, scheduler ready-sets, the HBM ledger — or resets
//!   the state parked in a [`RunPool`] in place, runs it to completion,
//!   and returns the [`SimReport`]. Every run of the same plan with the
//!   same binding is bit-identical, pooled or fresh, and equal to
//!   `SimPlan::new(graph, cfg)?.run()` of a freshly built plan.
//!   [`SimPlan::run`] is the one-shot shorthand: the empty binding on
//!   fresh state.
//!
//! [`RunBinding`] supplies the per-run inputs: replacement token streams
//! for `Source` nodes (**source rebinding** — drive one plan with many
//! trace iterations without re-partitioning), dense off-chip preloads
//! for functional runs, and deterministic cycle and round deadlines
//! ([`RunBinding::deadline_cycles`], [`RunBinding::deadline_rounds`]).
//!
//! # Execution model
//!
//! The graph is split into connected **shards** by
//! [`step_core::partition`] (cut at high-slack channels; single shard for
//! small graphs or `SimConfig::shards == 1`). Each shard runs the
//! event-driven wake-list scheduler over its own nodes: a node fires only
//! when one of its channels signals that progress may be possible, waves
//! fire in node-index order, and tokens are visible only within the
//! shard's effective execution horizon.
//!
//! Shards synchronize at **barriers**. Between barriers a shard sees no
//! external mutation: cross-shard channels are split into a writer half
//! (send credits + in-flight mailbox) and a reader half (the receiving
//! FIFO), and the coordinator shuttles tokens, freed-slot credits, close
//! and finish flags between the halves at each barrier in edge-id order.
//! Off-chip accesses are issued as requests during a sub-round, queued
//! per node as runs in issue order, and committed against the HBM ledger
//! at the barrier by a K-way merge over the nodes' queue heads, in
//! `(time, node, seq)` order; each completion lands in its node's
//! response queue as it is serviced. When the whole system is quiescent
//! the coordinator advances the horizon to the earliest pending channel
//! event, exactly like the monolithic engine.
//!
//! Three optimizations keep the barrier protocol off the hot path; none
//! can be observed through the thread count:
//!
//! - **Barrier elision**: each shard owns an *effective horizon* `eff ≥`
//!   the global horizon. At every barrier the coordinator raises it to
//!   the *cut-slack allowance* — one cycle below the minimum time floor
//!   of the shard's incoming cut channels, the earliest instant a
//!   cross-shard token could still arrive (channels whose producer
//!   finished or whose reader closed no longer constrain it). Until
//!   simulated time reaches that bound the shard's execution is a pure
//!   local function, so it runs windows back-to-back without
//!   coordination; shards with no unfinished incoming cuts run dark until
//!   credits or off-chip responses stall them. The global horizon still
//!   advances by `horizon_step` at full quiescence, so arrival-order
//!   faithfulness is never *worse* than barrier-stepped execution —
//!   within the allowance it is exact.
//! - **Wake deduplication**: sharded shards schedule with a
//!   generation-stamped ready set (`cur`/`nxt` + per-node wave stamps)
//!   instead of the monolithic engine's round-robin-faithful wake lists.
//!   Every wake targets the next wave and a node is queued at most once
//!   per wave no matter how many channel events it receives — the
//!   absorbed wakes are reported as
//!   [`step::stats::SchedCounters::wake_dedup`](crate::stats::SchedCounters).
//! - **Off-chip fast path**: when a sub-round's schedule has exactly one
//!   runnable shard, that shard is the sole accessor of the HBM ledger in
//!   the window. The coordinator runs it inline with the monolithic
//!   engine's immediate-commit sink — request/response collapses back to
//!   single-fire, and the two worker barrier waits are skipped entirely
//!   (helper threads stay parked).
//!
//! Every sharded plan runs through one drive loop, at any
//! `SimConfig::threads`: the calling thread coordinates and runs shards
//! alongside `threads - 1` scoped helpers. At one thread it spawns
//! nothing and waits on no barrier, running the active shards itself in
//! the order the helpers' cursor would hand them out. A node panic
//! surfaces as a typed [`StepError::Exec`] at every thread count.
//!
//! # Determinism contract
//!
//! Every reported metric is a pure function of `(graph, SimConfig minus
//! threads, RunBinding)`. A shard's sub-round execution depends only on
//! its own state plus what previous barriers delivered; every barrier
//! action is ordered by stable keys (edge id, request `(time, node,
//! seq)`); and the elision allowance, solo-shard schedule, and wake
//! stamps are all computed from barrier-time shard state in the
//! coordinator's exclusive window. So `threads` — and host scheduling
//! generally — can never change the committed execution order. Parallel
//! runs are bit-identical to running the same plan on one thread, and
//! re-running a plan is bit-identical to rebuilding it from scratch:
//! the plan is read-only during execution, every piece of mutable state
//! lives in the per-run `RunState`. Single-shard plans take the legacy
//! immediate-commitment path, which the sharded path generalizes.

use crate::arena::{Arena, ArenaEvent, SharedStore, peak_of_events};
use crate::channel::{Channel, event};
use crate::config::{CHANNEL_LATENCY, SimConfig};
use crate::fingerprint::Fingerprint;
use crate::hbm::{Hbm, Merge, ReqRun};
use crate::nodes::{self, Chans, CompiledNode, Ctx, HbmPort, HbmSink, SimNode};
use crate::run::TimeRun;
use crate::stats::{NodeStats, SchedCounters};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};
use step_core::error::{DeadlineKind, Result, StepError};
use step_core::graph::{EdgeId, Graph, NodeId};
use step_core::ops::OpKind;
use step_core::partition::{Partition, PartitionCfg, partition};
use step_core::sync::{get_mut, lock, panic_message};
use step_core::token::{self, Token};

/// The outcome of a simulation run.
///
/// `PartialEq` compares every field — the differential suites' "bit
/// identical" is literal. (`NodeStats::wall_ns` is all zero unless
/// `SimConfig::profile_fires` was on, which no determinism check uses.)
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total execution time in cycles (latest node completion or HBM
    /// transfer).
    pub cycles: u64,
    /// Total off-chip traffic in bytes (measured at the HBM node).
    pub offchip_traffic: u64,
    /// Off-chip bytes read.
    pub offchip_read: u64,
    /// Off-chip bytes written.
    pub offchip_write: u64,
    /// Measured on-chip memory requirement in bytes (per-node §4.2
    /// equations with runtime-observed dynamic quantities).
    pub onchip_memory: u64,
    /// Peak bytes resident in the buffer arenas, merged across shards in
    /// simulated-time order.
    pub arena_peak: u64,
    /// Total FLOPs executed by higher-order operators.
    pub total_flops: u64,
    /// Total compute bandwidth allocated across compute nodes
    /// (FLOPs/cycle).
    pub allocated_compute: u64,
    /// Peak off-chip bandwidth (bytes/cycle) for utilization.
    pub offchip_peak_bw: u64,
    /// Scheduler waves executed, summed across shards (generations of the
    /// wake lists).
    pub rounds: u64,
    /// Tokens ever enqueued across all channels (the transported volume).
    pub chan_tokens: u64,
    /// Run entries ever enqueued across all channels — the bulk channel
    /// operations actually performed. `chan_tokens / chan_runs` is the
    /// run-length transport compression ratio.
    pub chan_runs: u64,
    /// Shards the graph was partitioned into.
    pub shards: usize,
    /// Coordination counters of the sharded engine (all zero for
    /// monolithic plans).
    pub sched: SchedCounters,
    /// Fresh run-state materializations this run performed: 1 when the
    /// state was built from scratch, 0 when a pooled state was reused.
    /// Host-side bookkeeping, never part of the simulated results — CI
    /// guards the alloc-free steady state with this counter instead of
    /// wall time.
    pub run_allocs: u64,
    /// In-place pool resets this run performed (1 on a pooled rerun).
    pub pool_resets: u64,
    /// Per-node statistics, indexed like `graph.nodes()`.
    pub node_stats: Vec<NodeStats>,
    /// Recorded token streams per recording sink.
    pub sinks: BTreeMap<NodeId, Vec<Token>>,
}

impl SimReport {
    /// Fraction of allocated compute actually used:
    /// `FLOPs / (allocated FLOPs/cycle × cycles)` (Fig 12).
    pub fn compute_utilization(&self) -> f64 {
        if self.allocated_compute == 0 || self.cycles == 0 {
            0.0
        } else {
            self.total_flops as f64 / (self.allocated_compute as f64 * self.cycles as f64)
        }
    }

    /// Total `fire` invocations across all nodes — the work the scheduler
    /// actually did. Round-robin polling made this O(nodes × rounds);
    /// event-driven scheduling keeps it proportional to progress.
    pub fn total_fires(&self) -> u64 {
        self.node_stats.iter().map(|s| s.fires).sum()
    }

    /// Total fires that made no progress (wasted polls).
    pub fn idle_fires(&self) -> u64 {
        self.node_stats.iter().map(|s| s.idle_fires).sum()
    }

    /// Fraction of peak off-chip bandwidth used (Fig 13).
    pub fn offchip_bw_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.offchip_traffic as f64 / (self.offchip_peak_bw as f64 * self.cycles as f64)
        }
    }

    /// The recorded tokens of the sink created by
    /// [`step_core::graph::GraphBuilder::sink`].
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Exec`] if the node did not record.
    pub fn sink_tokens(&self, id: NodeId) -> Result<&[Token]> {
        self.sinks
            .get(&id)
            .map(|v| v.as_slice())
            .ok_or_else(|| StepError::Exec(format!("node {id:?} is not a recording sink")))
    }
}

/// A shard's wake-list scheduler state.
enum Sched {
    /// The monolithic engine's wake lists, kept bit-for-bit for
    /// single-shard plans (the legacy PR-1 schedule): a wake ahead of the
    /// sweep joins the *current* wave (round-robin would reach it later
    /// this round), one behind joins the next. The wave is a bitset
    /// swept in ascending node order — the exact order the old binary
    /// heap popped, at a fraction of the per-fire cost (wakes within a
    /// wave always target indices ahead of the sweep cursor).
    Legacy {
        /// Current-wave membership, one bit per local node.
        bits: Vec<u64>,
        /// Set-bit count (the wave's pending size).
        ready: usize,
        /// Sweep position: all set bits of the running wave are >= this.
        cursor: usize,
        next: Vec<usize>,
        in_next: Vec<bool>,
    },
    /// Generation-stamped ready set for sharded plans: all wakes target
    /// the next wave (`nxt`), a node is queued at most once per wave
    /// (`stamp[j] == wave_gen` means already queued), and each wave is sorted
    /// into node-index order before firing.
    Dedup {
        cur: Vec<usize>,
        nxt: Vec<usize>,
        stamp: Vec<u64>,
        wave_gen: u64,
        dedup_hits: u64,
    },
}

impl Default for Sched {
    fn default() -> Sched {
        Sched::Legacy {
            bits: Vec::new(),
            ready: 0,
            cursor: 0,
            next: Vec::new(),
            in_next: Vec::new(),
        }
    }
}

/// Finds the lowest set bit at index >= `from`, or `None`.
fn bits_next(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    if w >= bits.len() {
        return None;
    }
    let mut word = bits[w] & (u64::MAX << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w >= bits.len() {
            return None;
        }
        word = bits[w];
    }
}

impl Sched {
    fn legacy(m: usize) -> Sched {
        let mut bits = vec![u64::MAX; m.div_ceil(64)];
        if !m.is_multiple_of(64)
            && let Some(last) = bits.last_mut()
        {
            *last = (1u64 << (m % 64)) - 1;
        }
        if m == 0 {
            bits.clear();
        }
        Sched::Legacy {
            bits,
            ready: m,
            cursor: 0,
            next: Vec::new(),
            in_next: vec![false; m],
        }
    }

    fn dedup(m: usize) -> Sched {
        Sched::Dedup {
            cur: Vec::new(),
            nxt: (0..m).collect(),
            stamp: vec![0; m],
            wave_gen: 0,
            dedup_hits: 0,
        }
    }

    /// Restores the just-built all-ready state in place, keeping the
    /// allocations (pooled run reset). `m` must match the shard's node
    /// count the scheduler was built with.
    fn reset(&mut self, m: usize) {
        match self {
            Sched::Legacy {
                bits,
                ready,
                cursor,
                next,
                in_next,
            } => {
                bits.fill(u64::MAX);
                if !m.is_multiple_of(64)
                    && let Some(last) = bits.last_mut()
                {
                    *last = (1u64 << (m % 64)) - 1;
                }
                *ready = m;
                *cursor = 0;
                next.clear();
                in_next.iter_mut().for_each(|b| *b = false);
            }
            Sched::Dedup {
                cur,
                nxt,
                stamp,
                wave_gen,
                dedup_hits,
            } => {
                cur.clear();
                nxt.clear();
                nxt.extend(0..m);
                stamp.iter_mut().for_each(|s| *s = 0);
                *wave_gen = 0;
                *dedup_hits = 0;
            }
        }
    }
}

/// The immutable topology of one shard: which nodes it owns, which
/// graph edge each local channel carries, and which channels are the
/// reader halves of incoming cut edges. Shared by every run of the plan;
/// every table is linear in the shard's own nodes and channels.
struct ShardPlan {
    /// Global node ids, ascending; local index ↔ position here.
    node_ids: Vec<u32>,
    /// Local channel → graph edge id (a cut edge's writer and reader
    /// halves both name their edge), which gives the channel's capacity.
    edge_of: Vec<u32>,
    /// Local channel → local reader/writer node (`u32::MAX` = remote).
    /// Only the reader half of a cut edge has no local writer.
    reader_of: Vec<u32>,
    writer_of: Vec<u32>,
    /// Every local node's ports as local channel indices, inputs then
    /// outputs in the graph's port order, flattened: node `i`'s inputs
    /// are `ports[port_off[2i]..port_off[2i + 1]]` and its outputs
    /// `ports[port_off[2i + 1]..port_off[2i + 2]]`.
    ports: Vec<u32>,
    port_off: Vec<u32>,
    /// Reader halves of this shard's incoming cut edges (local channel
    /// indices): the only channels that can carry tokens in from outside,
    /// whose time floors bound the barrier-elision allowance.
    cut_ins: Vec<u32>,
}

impl ShardPlan {
    /// Local node `i`'s input then output channels.
    fn ports(&self, i: usize) -> &[u32] {
        &self.ports[self.port_off[2 * i] as usize..self.port_off[2 * i + 2] as usize]
    }

    /// Local node `i`'s output channels.
    fn outs(&self, i: usize) -> &[u32] {
        &self.ports[self.port_off[2 * i + 1] as usize..self.port_off[2 * i + 2] as usize]
    }

    /// Translates a blocked marker carrying a shard-local channel index
    /// back to its graph edge id (diagnostics only).
    fn unmap_blocked(&self, b: nodes::Blocked) -> nodes::Blocked {
        let unmap = |e: EdgeId| EdgeId(self.edge_of[e.0 as usize]);
        match b {
            nodes::Blocked::Input(e) => nodes::Blocked::Input(unmap(e)),
            nodes::Blocked::Output(e) => nodes::Blocked::Output(unmap(e)),
            nodes::Blocked::Hbm => nodes::Blocked::Hbm,
        }
    }

    /// Local channel `c`'s capacity, and whether it is the reader half of
    /// a cut edge.
    fn chan_spec(&self, graph: &Graph, c: usize) -> (usize, bool) {
        let capacity = graph.edges()[self.edge_of[c] as usize].capacity;
        (capacity, self.writer_of[c] == u32::MAX)
    }
}

/// One shard's mutable execution state: node executors, channel queues,
/// scratchpad arena, wake lists, and time calendar. A shard's sub-round
/// execution is a pure function of this state plus the (immutable)
/// [`ShardPlan`] — it touches nothing outside itself except the
/// (lock-free for timing runs) backing store.
struct Shard {
    nodes: Vec<CompiledNode>,
    channels: Vec<Channel>,
    arena: Arena,
    sched: Sched,
    /// Host nanoseconds per local node's fires (only filled under
    /// `SimConfig::profile_fires`).
    fire_ns: Vec<u64>,
    /// Effective execution horizon: the global horizon, possibly raised
    /// by the cut-slack allowance (barrier elision). Monotone; set by the
    /// coordinator in its exclusive window.
    eff: u64,
    /// `(ready_time, local channel)` for heads beyond the horizon.
    calendar: BinaryHeap<Reverse<(u64, usize)>>,
    undone: usize,
    rounds: u64,
    // Off-chip request plumbing (per local node).
    hbm_seq: Vec<u64>,
    hbm_reqs: Vec<VecDeque<ReqRun>>,
    hbm_resp: Vec<VecDeque<nodes::RespRun>>,
    /// Local nodes whose request queue filled since the last barrier
    /// commit, which empties every queue.
    hbm_queued: Vec<u32>,
    /// The last fired node's wakes: the local nodes its channel events
    /// woke (`u32::MAX` for remote endpoints), in event order. Kept
    /// across fires, windows and pooled runs, so the wave loops
    /// allocate nothing.
    wakes: Vec<u32>,
}

impl Shard {
    /// Wakes local node `j` into the pending wave (barrier-time wakes:
    /// the engine is between sub-rounds). Done nodes are never woken — a
    /// stale entry would read as pending work and stall the global
    /// horizon.
    fn wake(&mut self, j: u32) {
        let j = j as usize;
        if j == u32::MAX as usize || self.nodes[j].done() {
            return;
        }
        match &mut self.sched {
            Sched::Legacy {
                bits,
                ready,
                cursor,
                ..
            } => {
                if bits[j / 64] & (1 << (j % 64)) == 0 {
                    bits[j / 64] |= 1 << (j % 64);
                    *ready += 1;
                    *cursor = (*cursor).min(j);
                }
            }
            Sched::Dedup {
                nxt,
                stamp,
                wave_gen,
                dedup_hits,
                ..
            } => {
                if stamp[j] == *wave_gen {
                    *dedup_hits += 1;
                } else {
                    stamp[j] = *wave_gen;
                    nxt.push(j);
                }
            }
        }
    }

    /// Whether any node is queued to fire in the next sub-round.
    fn has_ready(&self) -> bool {
        match &self.sched {
            Sched::Legacy { ready, .. } => *ready > 0,
            Sched::Dedup { nxt, .. } => !nxt.is_empty(),
        }
    }

    /// One cycle below the earliest simulated time at which a token
    /// could still arrive on an incoming cut channel — how far this
    /// shard may run ahead of the global horizon with no barrier (its
    /// execution up to the bound is a pure local function). Channels
    /// whose producer finished or whose reader closed carry nothing
    /// further and do not constrain the bound.
    fn allowance(&self, plan: &ShardPlan) -> u64 {
        let mut bound = u64::MAX;
        for &c in &plan.cut_ins {
            let ch = &self.channels[c as usize];
            if ch.src_finished() || ch.is_closed() {
                continue;
            }
            bound = bound.min(ch.time_floor());
        }
        bound.saturating_sub(1)
    }

    /// Raises the effective horizon to `new` (if higher), waking readers
    /// of heads that became visible.
    fn raise_eff(&mut self, plan: &ShardPlan, new: u64) {
        if new > self.eff {
            let old = self.eff;
            self.eff = new;
            self.wake_visible(plan, old, new);
        }
    }

    /// Pops stale calendar entries and returns the earliest live
    /// beyond-horizon event time, leaving the live entry queued.
    fn next_event(&mut self, horizon: u64) -> Option<u64> {
        while let Some(&Reverse((t, idx))) = self.calendar.peek() {
            let live = self.channels[idx]
                .peek()
                .is_some_and(|(ready, _)| ready == t && ready > horizon);
            if live {
                return Some(t);
            }
            self.calendar.pop();
        }
        None
    }

    /// Wakes the readers of every head that became visible when the
    /// horizon advanced from `old` to `new` (the monolithic engine's
    /// calendar drain).
    fn wake_visible(&mut self, plan: &ShardPlan, old: u64, new: u64) {
        while let Some(&Reverse((t, idx))) = self.calendar.peek() {
            if t > new {
                break;
            }
            self.calendar.pop();
            let live = self.channels[idx]
                .peek()
                .is_some_and(|(ready, _)| ready == t && ready > old);
            if live {
                let j = plan.reader_of[idx];
                self.wake(j);
            }
        }
    }

    /// Diagnostic lines for this shard's blocked nodes. Executors report
    /// shard-local edge indices; unmap them back to global edge ids so
    /// the message matches the graph (cold path).
    fn blocked_lines(&self, plan: &ShardPlan, graph: &Graph, out: &mut Vec<(u32, String)>) {
        for (i, nd) in self.nodes.iter().enumerate() {
            if nd.done() {
                continue;
            }
            let gid = plan.node_ids[i];
            let g = &graph.nodes()[gid as usize];
            let why = nd
                .blocked_on()
                .map_or_else(String::new, |b| format!(" ({})", plan.unmap_blocked(b)));
            out.push((
                gid,
                format!("{gid}:{} t={}{why}", g.op.name(), nd.local_time()),
            ));
        }
    }

    /// Fires local node `i` under horizon `eff`, raises the floors of its
    /// outputs on progress, and drains its channel events into
    /// `self.wakes`, replacing the last fire's. Returns whether the node
    /// made progress.
    #[allow(clippy::too_many_arguments)]
    fn fire_node(
        &mut self,
        plan: &ShardPlan,
        i: usize,
        eff: u64,
        cfg: &SimConfig,
        store: &SharedStore,
        graph: &Graph,
        hbm: &mut Option<&mut Hbm>,
    ) -> Result<bool> {
        let was_empty = self.hbm_reqs[i].is_empty();
        let sink = match hbm {
            Some(h) => HbmSink::Immediate(h),
            None => HbmSink::Queued(&mut self.hbm_reqs[i]),
        };
        // Executors carry shard-local channel indices, rewritten when
        // the run lowered them, so channel access needs no edge
        // translation.
        let mut ctx = Ctx {
            chans: Chans::new(&mut self.channels),
            hbm: HbmPort::new(sink, &mut self.hbm_seq[i], &mut self.hbm_resp[i]),
            arena: &mut self.arena,
            store,
            cfg,
            horizon: eff,
        };
        let t0 = cfg.profile_fires.then(std::time::Instant::now);
        let p = self.nodes[i].fire(&mut ctx).map_err(|e| {
            let gid = plan.node_ids[i] as usize;
            let g = &graph.nodes()[gid];
            let label = if g.label.is_empty() {
                g.op.name().to_string()
            } else {
                format!("{} ({})", g.op.name(), g.label)
            };
            StepError::Exec(format!("node {gid} [{label}]: {e}"))
        })?;
        if let Some(t0) = t0 {
            self.fire_ns[i] += t0.elapsed().as_nanos() as u64;
        }
        if was_empty && !self.hbm_reqs[i].is_empty() {
            self.hbm_queued.push(i as u32);
        }
        if p {
            // Publish a conservative lower bound on this node's future
            // token times so arrival-order merges can commit safely.
            let t = self.nodes[i].local_time();
            for &c in plan.outs(i) {
                self.channels[c as usize].raise_floor(t);
            }
        }
        // Drain this node's channel events into wakes. Remote endpoints
        // (u32::MAX) are handled by the barrier coordinator.
        self.wakes.clear();
        for &c in plan.ports(i) {
            let idx = c as usize;
            let ev = self.channels[idx].take_events();
            if ev == 0 {
                continue;
            }
            if ev & (event::FREED | event::CLOSED) != 0 {
                self.wakes.push(plan.writer_of[idx]);
            }
            if ev & event::SRC_FINISHED != 0 {
                self.wakes.push(plan.reader_of[idx]);
            }
            if ev & (event::ENQUEUED | event::FREED) != 0 {
                // A new head may have appeared (token enqueued on an
                // empty queue, or the old head popped). Wake the reader
                // if it is visible in the current window; otherwise file
                // it in the calendar for the horizon advance.
                if let Some((ready, _)) = self.channels[idx].peek() {
                    if ready <= eff {
                        if ev & event::ENQUEUED != 0 {
                            self.wakes.push(plan.reader_of[idx]);
                        }
                    } else {
                        self.calendar.push(Reverse((ready, idx)));
                    }
                }
            }
        }
        Ok(p)
    }

    /// Runs this shard's wave scheduler to quiescence under `eff`.
    /// `hbm` is the immediate ledger for single-shard plans and the
    /// solo-shard fast path; otherwise requests queue for the barrier
    /// commit.
    fn run_to_quiescence(
        &mut self,
        plan: &ShardPlan,
        eff: u64,
        cfg: &SimConfig,
        store: &SharedStore,
        graph: &Graph,
        hbm: Option<&mut Hbm>,
    ) -> Result<()> {
        let mut sched = std::mem::take(&mut self.sched);
        let result = match &mut sched {
            Sched::Legacy {
                bits,
                ready,
                cursor,
                next,
                in_next,
            } => self.run_legacy(
                plan, bits, ready, cursor, next, in_next, eff, cfg, store, graph, hbm,
            ),
            Sched::Dedup {
                cur,
                nxt,
                stamp,
                wave_gen,
                dedup_hits,
            } => self.run_dedup(
                plan, cur, nxt, stamp, wave_gen, dedup_hits, eff, cfg, store, graph, hbm,
            ),
        };
        self.sched = sched;
        result
    }

    /// The legacy (PR 1) wave loop, bit-for-bit: ahead-of-sweep wakes
    /// join the current wave, a node can re-fire within a wave. The wave
    /// bitset is swept in ascending node order — exactly the order the
    /// old min-heap popped, since in-wave wakes always target indices
    /// ahead of the sweep.
    #[allow(clippy::too_many_arguments)]
    fn run_legacy(
        &mut self,
        plan: &ShardPlan,
        bits: &mut [u64],
        ready: &mut usize,
        cursor: &mut usize,
        next: &mut Vec<usize>,
        in_next: &mut [bool],
        eff: u64,
        cfg: &SimConfig,
        store: &SharedStore,
        graph: &Graph,
        mut hbm: Option<&mut Hbm>,
    ) -> Result<()> {
        while self.undone > 0 && *ready > 0 {
            self.rounds += 1;
            if self.rounds > cfg.max_rounds {
                return Err(self.round_limit_error(cfg));
            }
            while let Some(i) = bits_next(bits, *cursor) {
                bits[i / 64] &= !(1 << (i % 64));
                *ready -= 1;
                *cursor = i + 1;
                if self.nodes[i].done() {
                    continue;
                }
                let p = self.fire_node(plan, i, eff, cfg, store, graph, &mut hbm)?;
                for &j in &self.wakes {
                    let j = j as usize;
                    if j == u32::MAX as usize {
                        continue;
                    }
                    if j > i {
                        if bits[j / 64] & (1 << (j % 64)) == 0 {
                            bits[j / 64] |= 1 << (j % 64);
                            *ready += 1;
                        }
                    } else if !in_next[j] {
                        in_next[j] = true;
                        next.push(j);
                    }
                }
                if self.nodes[i].done() {
                    self.undone -= 1;
                    if self.undone == 0 {
                        break;
                    }
                } else if p && !in_next[i] {
                    // Progress with work possibly remaining (budget cap,
                    // more queued input): poll again next wave.
                    in_next[i] = true;
                    next.push(i);
                }
            }
            for j in next.drain(..) {
                in_next[j] = false;
                if bits[j / 64] & (1 << (j % 64)) == 0 {
                    bits[j / 64] |= 1 << (j % 64);
                    *ready += 1;
                }
            }
            *cursor = 0;
        }
        if self.undone == 0 {
            // A finished shard must read as quiescent: stale wave entries
            // for done nodes would stall the global horizon forever.
            bits.fill(0);
            *ready = 0;
            *cursor = 0;
            for j in next.drain(..) {
                in_next[j] = false;
            }
        }
        Ok(())
    }

    /// The deduplicated wave loop for sharded plans: each wave is the
    /// sorted generation-stamped ready set, and every wake (including a
    /// node's own progress re-poll) targets the next wave at most once.
    #[allow(clippy::too_many_arguments)]
    fn run_dedup(
        &mut self,
        plan: &ShardPlan,
        cur: &mut Vec<usize>,
        nxt: &mut Vec<usize>,
        stamp: &mut [u64],
        wave_gen: &mut u64,
        dedup_hits: &mut u64,
        eff: u64,
        cfg: &SimConfig,
        store: &SharedStore,
        graph: &Graph,
        mut hbm: Option<&mut Hbm>,
    ) -> Result<()> {
        while self.undone > 0 && !nxt.is_empty() {
            self.rounds += 1;
            if self.rounds > cfg.max_rounds {
                return Err(self.round_limit_error(cfg));
            }
            std::mem::swap(cur, nxt);
            *wave_gen += 1;
            cur.sort_unstable();
            for &i in cur.iter() {
                if self.nodes[i].done() {
                    continue;
                }
                let p = self.fire_node(plan, i, eff, cfg, store, graph, &mut hbm)?;
                let mut enqueue = |j: usize| {
                    if stamp[j] == *wave_gen {
                        *dedup_hits += 1;
                    } else {
                        stamp[j] = *wave_gen;
                        nxt.push(j);
                    }
                };
                for &j in &self.wakes {
                    let j = j as usize;
                    if j != u32::MAX as usize && !self.nodes[j].done() {
                        enqueue(j);
                    }
                }
                if self.nodes[i].done() {
                    self.undone -= 1;
                    if self.undone == 0 {
                        break;
                    }
                } else if p {
                    enqueue(i);
                }
            }
            cur.clear();
        }
        if self.undone == 0 {
            nxt.clear();
        }
        Ok(())
    }

    /// The typed `max_rounds` overrun error, carrying the counters at
    /// the blow so callers classify the budget blow as non-retryable
    /// and tests can match on it.
    fn round_limit_error(&self, cfg: &SimConfig) -> StepError {
        StepError::RoundLimit {
            limit: cfg.max_rounds,
            rounds: self.rounds,
            fires: self.nodes.iter().map(|n| n.stats().fires).sum(),
        }
    }
}

/// A cross-shard edge: writer half `w_ch` in shard `w_shard`, reader half
/// `r_ch` in shard `r_shard`.
struct CrossEdge {
    w_shard: u32,
    w_ch: u32,
    r_shard: u32,
    r_ch: u32,
}

/// Per-run inputs for [`SimPlan::run_with`]: replacement token streams
/// for `Source` nodes, dense off-chip preloads, and cycle and round
/// deadlines ([`RunBinding::deadline_cycles`],
/// [`RunBinding::deadline_rounds`]).
///
/// Source rebinding is what makes one plan serve many trace iterations:
/// a decode loop binds each iteration's grown KV-request stream and
/// re-sampled expert routing onto the same partitioned topology instead
/// of rebuilding graph + partition + channels per iteration. Bound
/// streams are validated against the source's declared stream rank at
/// run start; an empty binding reproduces the plan's baked-in streams
/// bit for bit.
#[derive(Debug, Clone, Default)]
pub struct RunBinding {
    sources: BTreeMap<NodeId, Vec<Token>>,
    preloads: Vec<(u64, usize, usize, Vec<f32>)>,
    limits: RunLimits,
}

/// Per-run execution limits carried by a [`RunBinding`]: a cycle and a
/// round deadline.
///
/// Both are **deterministic**: they are checked only at points the
/// determinism contract already orders (the monolithic window advance
/// and the coordinator's exclusive barrier window), so a run that blows
/// a deadline fails with the identical [`StepError::Deadline`] at any
/// thread or worker count, and its outcome stays a pure function of
/// `(plan, binding)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunLimits {
    deadline_cycles: Option<u64>,
    deadline_rounds: Option<u64>,
}

impl RunLimits {
    fn is_empty(&self) -> bool {
        self.deadline_cycles.is_none() && self.deadline_rounds.is_none()
    }

    /// The deterministic round-deadline check, run where `rounds` is a
    /// pure function of the schedule (never mid-wave).
    fn check_rounds(&self, rounds: u64) -> Result<()> {
        if let Some(limit) = self.deadline_rounds
            && rounds > limit
        {
            return Err(StepError::Deadline {
                kind: DeadlineKind::Rounds,
                limit,
                at: rounds,
            });
        }
        Ok(())
    }

    /// The deterministic cycle-deadline check, run when the global
    /// horizon is about to advance past `t0` (the earliest pending
    /// event): a run whose next event lies beyond the deadline can
    /// never finish within it.
    fn check_cycles(&self, t0: u64) -> Result<()> {
        if let Some(limit) = self.deadline_cycles
            && t0 > limit
        {
            return Err(StepError::Deadline {
                kind: DeadlineKind::Cycles,
                limit,
                at: t0,
            });
        }
        Ok(())
    }

    /// The authoritative deadline check on a finished run: a report
    /// whose final cycle or round count exceeds its budget fails even
    /// when the run completed without crossing a window boundary (small
    /// graphs can quiesce in one pass). The mid-run checks are early
    /// exits consistent with this one — a window trip at `t0 > limit`
    /// implies the finished run would have blown the budget too.
    fn check_final(&self, report: &SimReport) -> Result<()> {
        self.check_cycles(report.cycles)?;
        self.check_rounds(report.rounds)
    }
}

impl RunBinding {
    /// An empty binding: the plan's baked-in source streams play as-is.
    pub fn new() -> RunBinding {
        RunBinding::default()
    }

    /// Replaces the token stream of `Source` node `id` for this run
    /// (include the trailing `Done`). Validated against the source's
    /// declared rank when the run starts.
    pub fn bind_source(&mut self, id: NodeId, tokens: Vec<Token>) -> &mut Self {
        self.sources.insert(id, tokens);
        self
    }

    /// Registers a dense tensor in off-chip memory so loads return real
    /// data (functional runs). `data` must hold `rows * cols` values;
    /// the run rejects it with [`StepError::Config`] otherwise.
    pub fn preload(
        &mut self,
        base_addr: u64,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    ) -> &mut Self {
        self.preloads.push((base_addr, rows, cols, data));
        self
    }

    /// Fails the run with [`StepError::Deadline`] (`Cycles`) once the
    /// conservative horizon would advance past `limit` simulated cycles
    /// with work still pending. Deterministic at any thread count.
    pub fn deadline_cycles(&mut self, limit: u64) -> &mut Self {
        self.limits.deadline_cycles = Some(limit);
        self
    }

    /// Fails the run with [`StepError::Deadline`] (`Rounds`) once the
    /// scheduler has executed more than `limit` rounds with work still
    /// pending. Deterministic at any thread count. (Monolithic plans
    /// count waves; sharded plans count summed shard waves at each
    /// coordination barrier.)
    pub fn deadline_rounds(&mut self, limit: u64) -> &mut Self {
        self.limits.deadline_rounds = Some(limit);
        self
    }

    /// Whether the binding carries no overrides.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty() && self.preloads.is_empty() && self.limits.is_empty()
    }

    /// The content identity of this binding for report-cache keys: a
    /// seeded [`crate::Fingerprint`] folding every bound source's node
    /// id and token stream (in node-id order — `sources` is a
    /// `BTreeMap`, so insertion order cannot leak in), every preload
    /// (address, shape, and data bits), and the limits (cycle and round
    /// deadlines change a run's outcome, so they are part of its
    /// identity).
    ///
    /// Tokens fold structurally ([`crate::Fingerprint::push_token`]):
    /// a tag per token and element variant, then the stop level, tile
    /// rows, cols and phantom-or-dense value bits, selector targets,
    /// buffer id and dims, address, bool, or tuple elements, with every
    /// variable-length part length-prefixed. No token is formatted, so
    /// a cache hit costs one pass over the binding's bytes.
    ///
    /// Two bindings with equal fingerprints drive a given plan to
    /// bit-identical reports (minus the host-side `run_allocs` /
    /// `pool_resets` bookkeeping); any single-field, ordering, or
    /// preload perturbation changes the fingerprint
    /// (`crates/sim/tests/report_cache.rs` holds both directions over
    /// seeded generators and every element variant).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new("RunBinding");
        fp.push_u64(self.sources.len() as u64);
        for (id, tokens) in &self.sources {
            fp.push_u32(id.0).push_u64(tokens.len() as u64);
            for token in tokens {
                fp.push_token(token);
            }
        }
        fp.push_u64(self.preloads.len() as u64);
        for (base, rows, cols, data) in &self.preloads {
            fp.push_u64(*base)
                .push_u64(*rows as u64)
                .push_u64(*cols as u64)
                .push_u64(data.len() as u64);
            for v in data {
                fp.push_u64(u64::from(v.to_bits()));
            }
        }
        for limit in [self.limits.deadline_cycles, self.limits.deadline_rounds] {
            fp.push_bool(limit.is_some()).push_u64(limit.unwrap_or(0));
        }
        fp.finish()
    }
}

/// The mutable state of one run of a [`SimPlan`]: node executors,
/// channel queues, arenas, scheduler state, the HBM ledger, and the
/// functional backing store. Built per run, or parked in a [`RunPool`]
/// between runs and reset in place.
struct RunState {
    shards: Vec<Mutex<Shard>>,
    hbm: Hbm,
    store: SharedStore,
    counters: SchedCounters,
}

/// Parks one run's state between runs of the same plan, so steady-state
/// reruns and sweep points allocate no run state: every channel queue,
/// outbox, ready set, ledger vector, and scratch buffer keeps its
/// capacity and is reset in place by the next [`SimPlan::run_with`]
/// handed this pool. The values a run computes (such as the tuples
/// `Zip` emits) still allocate.
///
/// The pool remembers which plan its state belongs to; handing it to a
/// different plan releases that state and builds (and re-parks) fresh
/// state, so one pool can trail a sweep across plans holding one run
/// state at a time. A run that fails mid-flight
/// drops its state instead of parking it — a poisoned half-run state
/// must never leak into the next run.
#[derive(Default)]
pub struct RunPool {
    /// Identity of the plan the parked state was built from.
    plan_id: u64,
    state: Option<RunState>,
}

impl RunPool {
    /// An empty pool; the first pooled run builds and parks its state.
    pub fn new() -> RunPool {
        RunPool::default()
    }
}

/// Process-unique plan identities for [`RunPool`] matching.
static PLAN_IDS: AtomicU64 = AtomicU64::new(1);

/// An immutable, reusable execution plan for one STeP graph: the graph,
/// the frozen [`SimConfig`], the shard partition (with cut metadata),
/// and every shard's channel topology.
///
/// Build once with [`SimPlan::new`], run many times with
/// [`SimPlan::run_with`]. The plan is read-only during execution, so
/// `Arc<SimPlan>` can be shared across threads and run concurrently;
/// each run owns its `RunState`, built fresh or reset from a
/// [`RunPool`]. Every run of the same plan with the same binding is
/// bit-identical — to other runs of the plan and to a run of a freshly
/// built plan.
///
/// Beyond its graph, a plan holds only tables linear in the graph's
/// size (per-shard node, channel and port arrays, plus the cut edges),
/// so a cache holding many plans costs about what their graphs cost.
/// It keeps no executors: each fresh run lowers them from the graph.
pub struct SimPlan {
    graph: Graph,
    cfg: SimConfig,
    plans: Vec<ShardPlan>,
    cross: Vec<CrossEdge>,
    /// Process-unique identity for [`RunPool`] matching.
    id: u64,
}

impl SimPlan {
    /// Partitions `graph` and lays out the shard/channel topology.
    ///
    /// The partition is derived from the graph and
    /// [`SimConfig::shards`] only — never from `threads` — so reported
    /// results are independent of worker count.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] if an operator cannot be executed.
    pub fn new(graph: Graph, cfg: SimConfig) -> Result<SimPlan> {
        // Surface inexecutable operators at plan time, not first run.
        for node in graph.nodes() {
            nodes::check_executable(&node.op)?;
        }
        let plan = match cfg.shards {
            1 => Partition::monolithic(&graph),
            0 => partition(&graph, &PartitionCfg::default()),
            n => partition(
                &graph,
                &PartitionCfg {
                    target_shards: n,
                    min_nodes: 0,
                    ..PartitionCfg::default()
                },
            ),
        };
        let k = plan.shards;
        let n = graph.nodes().len();

        // Local node ids per shard, ascending.
        let mut node_ids: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut local_node = vec![u32::MAX; n];
        for (i, &s) in plan.shard_of.iter().enumerate() {
            local_node[i] = node_ids[s as usize].len() as u32;
            node_ids[s as usize].push(i as u32);
        }

        // Channels: intra-shard edges get one channel in their shard;
        // cut edges get a writer half and a reader half. `halves` holds
        // each edge's (writer, reader) local channel — the same channel
        // twice for an intra-shard edge — while the port tables are laid
        // out; the plan keeps only the per-shard tables.
        let mut edge_of: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut reader_of: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut writer_of: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut halves: Vec<(u32, u32)> = Vec::with_capacity(graph.edges().len());
        let mut cross = Vec::new();
        for (ei, edge) in graph.edges().iter().enumerate() {
            let src = edge.src.0.0 as usize;
            let dst = edge
                .dst
                .expect("finished graphs have no dangling edges")
                .0
                .0 as usize;
            let (ws, rs) = (plan.shard_of[src] as usize, plan.shard_of[dst] as usize);
            // Adds a channel carrying this edge to shard `s`.
            let mut add = |s: usize, writer: u32, reader: u32| {
                edge_of[s].push(ei as u32);
                writer_of[s].push(writer);
                reader_of[s].push(reader);
                edge_of[s].len() as u32 - 1
            };
            if ws == rs {
                let c = add(ws, local_node[src], local_node[dst]);
                halves.push((c, c));
            } else {
                let w_ch = add(ws, local_node[src], u32::MAX);
                let r_ch = add(rs, u32::MAX, local_node[dst]);
                halves.push((w_ch, r_ch));
                cross.push(CrossEdge {
                    w_shard: ws as u32,
                    w_ch,
                    r_shard: rs as u32,
                    r_ch,
                });
            }
        }

        let mut shard_plans = Vec::with_capacity(k);
        for s in 0..k {
            let ids = std::mem::take(&mut node_ids[s]);
            // Inputs read reader halves, outputs write writer halves.
            let mut ports = Vec::new();
            let mut port_off = Vec::with_capacity(2 * ids.len() + 1);
            port_off.push(0);
            for &gid in &ids {
                let node = &graph.nodes()[gid as usize];
                ports.extend(node.inputs.iter().map(|e| halves[e.0 as usize].1));
                port_off.push(ports.len() as u32);
                ports.extend(node.outputs.iter().map(|e| halves[e.0 as usize].0));
                port_off.push(ports.len() as u32);
            }
            let cut_ins = plan.cut_ins_of[s]
                .iter()
                .map(|e| halves[e.0 as usize].1)
                .collect();
            shard_plans.push(ShardPlan {
                node_ids: frozen(ids),
                edge_of: frozen(std::mem::take(&mut edge_of[s])),
                reader_of: frozen(std::mem::take(&mut reader_of[s])),
                writer_of: frozen(std::mem::take(&mut writer_of[s])),
                ports: frozen(ports),
                port_off,
                cut_ins,
            });
        }
        Ok(SimPlan {
            graph,
            cfg,
            plans: shard_plans,
            cross: frozen(cross),
            id: PLAN_IDS.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The planned graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The frozen configuration.
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// Shards in the plan.
    pub fn shards(&self) -> usize {
        self.plans.len()
    }

    /// Runs the plan once with its baked-in source streams on fresh
    /// state: `run_with(&RunBinding::default(), None)`.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Deadlock`] if the graph stops making progress
    /// before finishing, or the first functional error raised by a node.
    pub fn run(&self) -> Result<SimReport> {
        self.run_with(&RunBinding::default(), None)
    }

    /// Runs the plan once under `binding` (per-run source streams,
    /// preloads and limits).
    ///
    /// Takes `&self`: the plan is never mutated, so an `Arc<SimPlan>`
    /// may run concurrently from many threads, each run with its own
    /// state and bit-identical results. Single-shard plans run the wave
    /// scheduler inline with immediate off-chip commitment. Sharded
    /// plans run sub-rounds over the shards on `SimConfig::threads`
    /// workers — one drive loop for every thread count, the calling
    /// thread alone at one — separated by deterministic coordination
    /// barriers; see the module docs for the determinism contract.
    ///
    /// With `Some(pool)`, the run reuses the state parked in `pool` when
    /// it belongs to this plan — channels, outboxes, ready sets, ledgers
    /// and counters are reset in place, so steady-state reruns allocate
    /// nothing beyond what the workload itself grows — and parks its
    /// state there afterwards. With `None` it builds fresh state and
    /// drops it. The report's [`SimReport::run_allocs`] /
    /// [`SimReport::pool_resets`] say which path was taken; the
    /// simulated results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Config`] for a binding that targets a
    /// non-`Source` node, violates the source's stream rank, or preloads
    /// a tensor whose data length is not `rows * cols`;
    /// [`StepError::Deadline`] when a limit trips; plus the run errors
    /// of [`SimPlan::run`]. A failed run drops its state instead of
    /// parking it.
    pub fn run_with(&self, binding: &RunBinding, pool: Option<&mut RunPool>) -> Result<SimReport> {
        // Validate before taking the parked state: a rejected binding
        // must not cost the pool its buffers.
        self.validate_binding(binding)?;
        let mut scratch = RunPool::new();
        let pool = pool.unwrap_or(&mut scratch);
        // Another plan's parked state is released before the rebuild, so
        // the new state can reuse its memory.
        let parked = pool.state.take().filter(|_| pool.plan_id == self.id);
        let reused = parked.is_some();
        let mut state = match parked {
            Some(mut st) => {
                self.reset_state(&mut st, binding);
                st
            }
            None => self.build_state(binding),
        };
        self.drive(&mut state, &binding.limits)?;
        let report = self.build_report(&mut state, reused);
        // A deadline blow is a failed run: state drops instead of
        // parking, like every other error path.
        binding.limits.check_final(&report)?;
        pool.plan_id = self.id;
        pool.state = Some(state);
        Ok(report)
    }

    /// Drives a materialized run state to completion.
    fn drive(&self, state: &mut RunState, limits: &RunLimits) -> Result<()> {
        if self.plans.len() == 1 {
            self.run_single(state, limits)
        } else {
            self.run_sharded(state, self.cfg.threads.clamp(1, self.plans.len()), limits)
        }
    }

    /// Rejects bindings that target a non-`Source` node, violate the
    /// source's stream rank, or preload a tensor whose data length is
    /// not `rows * cols`.
    fn validate_binding(&self, binding: &RunBinding) -> Result<()> {
        for (base, rows, cols, data) in &binding.preloads {
            if rows.checked_mul(*cols) != Some(data.len()) {
                return Err(StepError::Config(format!(
                    "preload at {base:#x}: {} values do not fill a {rows}x{cols} tensor",
                    data.len()
                )));
            }
        }
        for (id, toks) in &binding.sources {
            let Some(node) = self.graph.nodes().get(id.0 as usize) else {
                return Err(StepError::Config(format!(
                    "bound source {id:?} is not in the graph"
                )));
            };
            if !matches!(node.op, OpKind::Source(_)) {
                return Err(StepError::Config(format!(
                    "bound node {id:?} [{}] is not a Source",
                    node.op.name()
                )));
            }
            let rank = self.graph.edge(node.outputs[0]).shape.rank();
            token::validate(toks, rank)
                .map_err(|e| StepError::Config(format!("bound stream for source {id:?}: {e}")))?;
        }
        Ok(())
    }

    /// Materializes the mutable state for one run: lowers every shard's
    /// nodes from the graph ([`nodes::compile_node`], with `Io` edge ids
    /// rewritten to the shard's local channels through its port table),
    /// binds per-run source streams, and builds channel queues, arenas,
    /// scheduler ready-sets, the HBM ledger, and the preloaded backing
    /// store. The binding must already be validated.
    fn build_state(&self, binding: &RunBinding) -> RunState {
        let sharded = self.plans.len() > 1;
        let mut shards = Vec::with_capacity(self.plans.len());
        for sp in &self.plans {
            let mut nodes = Vec::with_capacity(sp.node_ids.len());
            for (i, &gid) in sp.node_ids.iter().enumerate() {
                let mut node = nodes::compile_node(&self.graph, gid as usize);
                let io = node.io_mut();
                let ports = sp.ports(i);
                debug_assert_eq!(io.ins.len() + io.outs.len(), ports.len());
                for (e, &c) in io.ins.iter_mut().chain(io.outs.iter_mut()).zip(ports) {
                    *e = EdgeId(c);
                }
                if let Some(toks) = binding.sources.get(&NodeId(gid)) {
                    node.bind_source(toks.clone());
                }
                nodes.push(node);
            }
            let m = sp.node_ids.len();
            let channels = (0..sp.edge_of.len())
                .map(|c| match sp.chan_spec(&self.graph, c) {
                    (capacity, true) => Channel::cross_reader(capacity, CHANNEL_LATENCY),
                    (capacity, false) => Channel::new(capacity, CHANNEL_LATENCY),
                })
                .collect();
            let undone = nodes.iter().filter(|nd| !nd.done()).count();
            shards.push(Mutex::new(Shard {
                nodes,
                channels,
                arena: if sharded {
                    Arena::with_event_log()
                } else {
                    Arena::new()
                },
                sched: if sharded {
                    Sched::dedup(m)
                } else {
                    Sched::legacy(m)
                },
                eff: self.cfg.horizon_step,
                fire_ns: vec![0; m],
                calendar: BinaryHeap::new(),
                undone,
                rounds: 0,
                hbm_seq: vec![0; m],
                hbm_reqs: vec![VecDeque::new(); m],
                hbm_resp: vec![VecDeque::new(); m],
                hbm_queued: Vec::new(),
                wakes: Vec::new(),
            }));
        }
        let store = SharedStore::new();
        for (base, rows, cols, data) in &binding.preloads {
            store.register(*base, *rows, *cols, data.clone());
        }
        RunState {
            shards,
            hbm: Hbm::new(self.cfg.hbm.clone()),
            store,
            counters: SchedCounters::default(),
        }
    }

    /// Resets a parked run state in place for its next run: every node,
    /// channel, arena, ready-set, calendar, ledger, the HBM model, the
    /// backing store, and the scheduler counters return to their
    /// just-built values without releasing their buffers. The result is
    /// indistinguishable from [`SimPlan::build_state`] output — the
    /// conformance suite holds the two to bit-identical reports.
    fn reset_state(&self, state: &mut RunState, binding: &RunBinding) {
        for (sp, s) in self.plans.iter().zip(state.shards.iter_mut()) {
            let s = get_mut(s);
            let m = sp.node_ids.len();
            for (i, node) in s.nodes.iter_mut().enumerate() {
                node.reset();
                if let Some(toks) = binding.sources.get(&NodeId(sp.node_ids[i])) {
                    node.bind_source(toks.clone());
                }
            }
            for (c, ch) in s.channels.iter_mut().enumerate() {
                let (capacity, cross_reader) = sp.chan_spec(&self.graph, c);
                ch.reset(capacity, cross_reader);
            }
            s.arena.reset();
            s.sched.reset(m);
            s.eff = self.cfg.horizon_step;
            s.fire_ns.fill(0);
            s.calendar.clear();
            s.undone = s.nodes.iter().filter(|nd| !nd.done()).count();
            s.rounds = 0;
            s.hbm_seq.fill(0);
            for q in &mut s.hbm_reqs {
                q.clear();
            }
            for resp in &mut s.hbm_resp {
                resp.clear();
            }
            s.hbm_queued.clear();
        }
        state.hbm.reset();
        state.store.reset();
        for (base, rows, cols, data) in &binding.preloads {
            state.store.register(*base, *rows, *cols, data.clone());
        }
        state.counters = SchedCounters::default();
    }

    /// Monolithic execution: one shard, immediate HBM commitment.
    fn run_single(&self, state: &mut RunState, limits: &RunLimits) -> Result<()> {
        let mut horizon = self.cfg.horizon_step;
        let plan = &self.plans[0];
        let shard = get_mut(&mut state.shards[0]);
        loop {
            shard.run_to_quiescence(
                plan,
                horizon,
                &self.cfg,
                &state.store,
                &self.graph,
                Some(&mut state.hbm),
            )?;
            if shard.undone == 0 {
                return Ok(());
            }
            // Deterministic deadline checks sit at the window boundary:
            // a finished run never trips them, and `rounds` here is a
            // pure function of the schedule.
            limits.check_rounds(shard.rounds)?;
            // Quiescent within the current window: advance the horizon to
            // the next pending channel event and wake the readers whose
            // heads became visible.
            let Some(t0) = shard.next_event(horizon) else {
                let mut lines = Vec::new();
                shard.blocked_lines(plan, &self.graph, &mut lines);
                return Err(deadlock_error(lines));
            };
            limits.check_cycles(t0)?;
            let new_horizon = t0 + self.cfg.horizon_step;
            shard.wake_visible(plan, horizon, new_horizon);
            horizon = new_horizon;
        }
    }

    /// Sharded execution on `threads` workers: the calling thread (the
    /// coordinator) and `threads - 1` scoped helpers take quiescence runs
    /// of whole shards off a shared cursor between two barriers per
    /// sub-round. The coordinator coordinates in the exclusive window
    /// between sub-rounds, and runs solo-shard sub-rounds itself without
    /// waking the helpers. With one worker it runs every active shard
    /// itself in cursor order, spawns no thread and waits on no barrier.
    /// Which worker runs a shard can never affect the result, so every
    /// `threads` value yields the same report.
    fn run_sharded(&self, state: &mut RunState, threads: usize, limits: &RunLimits) -> Result<()> {
        let barrier = Barrier::new(threads);
        // The coordinator's barrier wait; alone, it has nobody to meet.
        let sync = || {
            if threads > 1 {
                barrier.wait();
            }
        };
        let stop = AtomicBool::new(false);
        let cursor = AtomicUsize::new(0);
        let active: Mutex<Vec<u32>> = Mutex::new((0..state.shards.len() as u32).collect());
        let failure: Mutex<Option<StepError>> = Mutex::new(None);

        let RunState {
            shards,
            hbm,
            store,
            counters,
        } = state;
        let shards: &[Mutex<Shard>] = shards;
        let store: &SharedStore = store;
        counters.shard_runs += shards.len() as u64;

        // Every fallible step — including panics, which would otherwise
        // leave the other threads waiting at a barrier forever — funnels
        // into `failure`, so a crash surfaces as the same typed error at
        // every thread count, never a hang or an unwind.
        let work = || {
            let body = || -> Result<()> {
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let id = {
                        let a = lock(&active);
                        match a.get(k) {
                            Some(&id) => id as usize,
                            None => return Ok(()),
                        }
                    };
                    let mut shard = lock(&shards[id]);
                    let eff = shard.eff;
                    shard.run_to_quiescence(
                        &self.plans[id],
                        eff,
                        &self.cfg,
                        store,
                        &self.graph,
                        None,
                    )?;
                }
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
                .unwrap_or_else(|p| {
                    Err(StepError::Exec(format!(
                        "worker panicked: {}",
                        panic_message(&p)
                    )))
                });
            if let Err(e) = result {
                lock(&failure).get_or_insert(e);
            }
        };

        let mut outcome: Result<()> = Ok(());
        std::thread::scope(|sc| {
            for _ in 1..threads {
                let work = &work;
                let (barrier, stop) = (&barrier, &stop);
                sc.spawn(move || {
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        work();
                        barrier.wait();
                    }
                });
            }
            // Coordinator loop on this thread. Between the second barrier
            // of one sub-round and the first barrier of the next, helpers
            // are parked, so coordination has exclusive access. Solo
            // sub-rounds never touch the barrier at all — the helpers
            // stay parked and the coordinator runs the shard with the
            // immediate-commit sink.
            let mut horizon = self.cfg.horizon_step;
            let mut step = CoordStep::Run;
            let run = loop {
                match step {
                    CoordStep::Done => break Ok(()),
                    CoordStep::Solo(id) => {
                        let solo = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let mut shard = lock(&shards[id as usize]);
                            let eff = shard.eff;
                            shard.run_to_quiescence(
                                &self.plans[id as usize],
                                eff,
                                &self.cfg,
                                store,
                                &self.graph,
                                Some(hbm),
                            )
                        }))
                        .unwrap_or_else(|p| {
                            Err(StepError::Exec(format!(
                                "coordinator panicked: {}",
                                panic_message(&p)
                            )))
                        });
                        if let Err(e) = solo {
                            break Err(e);
                        }
                    }
                    CoordStep::Run => {
                        cursor.store(0, Ordering::Relaxed);
                        sync();
                        work();
                        sync();
                        if let Some(e) = lock(&failure).take() {
                            break Err(e);
                        }
                    }
                }
                let next = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut a = lock(&active);
                    coordinate(self, shards, hbm, &mut horizon, &mut a, counters, limits)
                }))
                .unwrap_or_else(|p| {
                    Err(StepError::Exec(format!(
                        "coordinator panicked: {}",
                        panic_message(&p)
                    )))
                });
                match next {
                    Ok(s) => step = s,
                    Err(e) => break Err(e),
                }
            };
            stop.store(true, Ordering::Release);
            sync();
            outcome = run;
        });
        outcome
    }

    /// Assembles the report of a finished run; `reused` says whether its
    /// state came from a pool reset or a fresh build.
    fn build_report(&self, state: &mut RunState, reused: bool) -> SimReport {
        let n = self.graph.nodes().len();
        let k = state.shards.len();
        let mut node_stats = vec![NodeStats::default(); n];
        let mut sinks = BTreeMap::new();
        let mut rounds = 0;
        let mut arena_events: Vec<ArenaEvent> = Vec::new();
        let mut arena_peak_single = 0;
        let mut counters = state.counters.clone();
        let (mut chan_tokens, mut chan_runs) = (0, 0);
        for (sp, s) in self.plans.iter().zip(state.shards.iter_mut()) {
            let s = get_mut(s);
            rounds += s.rounds;
            if let Sched::Dedup { dedup_hits, .. } = &s.sched {
                counters.wake_dedup += dedup_hits;
            }
            arena_peak_single = arena_peak_single.max(s.arena.peak_bytes());
            arena_events.extend(s.arena.take_events());
            for ch in &s.channels {
                chan_tokens += ch.sent_tokens();
                chan_runs += ch.sent_runs();
            }
            for (i, nd) in s.nodes.iter().enumerate() {
                let gid = sp.node_ids[i] as usize;
                node_stats[gid] = nd.stats().clone();
                node_stats[gid].wall_ns = s.fire_ns[i];
                if let Some(toks) = nd.recorded() {
                    sinks.insert(NodeId(gid as u32), toks.to_vec());
                }
            }
        }
        let arena_peak = if k == 1 {
            arena_peak_single
        } else {
            peak_of_events(arena_events)
        };
        let cycles = node_stats
            .iter()
            .map(|s| s.finish_time)
            .max()
            .unwrap_or(0)
            .max(state.hbm.last_completion());
        let onchip_memory = node_stats.iter().map(|s| s.onchip_bytes).sum();
        let total_flops = node_stats.iter().map(|s| s.flops).sum();
        SimReport {
            cycles,
            offchip_traffic: state.hbm.total_bytes(),
            offchip_read: state.hbm.read_bytes(),
            offchip_write: state.hbm.write_bytes(),
            onchip_memory,
            arena_peak,
            total_flops,
            allocated_compute: self.graph.allocated_compute(),
            offchip_peak_bw: state.hbm.peak_bytes_per_cycle(),
            rounds,
            chan_tokens,
            chan_runs,
            shards: k,
            sched: counters,
            run_allocs: u64::from(!reused),
            pool_resets: u64::from(reused),
            node_stats,
            sinks,
        }
    }
}

/// What the engine should run after a coordination barrier.
enum CoordStep {
    /// Every node is done.
    Done,
    /// Dispatch the active list to the workers.
    Run,
    /// Exactly one shard is runnable: run it on the coordinator with the
    /// immediate-commit HBM sink (off-chip fast path, no barrier waits).
    Solo(u32),
}

/// One coordination barrier: shuttles cross-shard state, commits every
/// queued off-chip request by merging the nodes' request queues, raises
/// each shard's effective horizon to its cut-slack allowance (barrier
/// elision), and — if the system is fully quiescent — advances the
/// global horizon. Fills `active` with the shards to run next.
///
/// Runs with exclusive access between sub-rounds (every shard guard is
/// taken once up front); every action is ordered by stable keys (edge
/// order, request `(time, node, seq)`), so the outcome is a pure
/// function of shard states.
fn coordinate(
    plan: &SimPlan,
    shards: &[Mutex<Shard>],
    hbm: &mut Hbm,
    horizon: &mut u64,
    active: &mut Vec<u32>,
    counters: &mut SchedCounters,
    limits: &RunLimits,
) -> Result<CoordStep> {
    counters.sub_rounds += 1;
    let mut gs: Vec<MutexGuard<'_, Shard>> = shards.iter().map(lock).collect();

    // Cross-shard transfer, in edge order. Idle edges — nothing queued,
    // no credits to return, flags and floor already mirrored — are
    // skipped without mutating either half.
    for x in &plan.cross {
        let (wp, rp) = (
            &plan.plans[x.w_shard as usize],
            &plan.plans[x.r_shard as usize],
        );
        let [ws, rs] = gs
            .get_disjoint_mut([x.w_shard as usize, x.r_shard as usize])
            .expect("cross edge joins two distinct shards");
        let (w_ch, r_ch) = (x.w_ch as usize, x.r_ch as usize);
        {
            let w = &ws.channels[w_ch];
            let r = &rs.channels[r_ch];
            let idle = w.is_empty()
                && !r.has_freed_slots()
                && (!r.is_closed() || w.is_closed())
                && (r.src_finished() || !(w.src_finished() && w.is_empty()))
                && r.floor_raw() >= w.floor_raw();
            if idle {
                continue;
            }
        }
        // Token runs ride with their writer-computed ready times; inject
        // drops them if the reader closed.
        let moved: Vec<(TimeRun, Token)> = ws.channels[w_ch].drain_queue().collect();
        for (ts, tok) in moved {
            rs.channels[r_ch].inject(ts, tok);
        }
        // Freed slots return to the writer as send credits.
        let freed = rs.channels[r_ch].drain_freed_slots();
        if !freed.is_empty() {
            ws.channels[w_ch].grant_slots(freed);
        }
        // Close / finish / floor propagation.
        if rs.channels[r_ch].is_closed() && !ws.channels[w_ch].is_closed() {
            ws.channels[w_ch].close();
        }
        if ws.channels[w_ch].src_finished()
            && !rs.channels[r_ch].src_finished()
            && ws.channels[w_ch].is_empty()
        {
            rs.channels[r_ch].finish_src();
        }
        let floor = ws.channels[w_ch].floor_raw();
        rs.channels[r_ch].raise_floor(floor);
        // Events → wakes, mirroring the in-shard drain.
        let wev = ws.channels[w_ch].take_events();
        if wev & (event::FREED | event::CLOSED) != 0 {
            let j = wp.writer_of[w_ch];
            ws.wake(j);
        }
        let rev = rs.channels[r_ch].take_events();
        if rev & event::SRC_FINISHED != 0 {
            let j = rp.reader_of[r_ch];
            rs.wake(j);
        }
        if rev & (event::ENQUEUED | event::FREED) != 0
            && let Some((ready, _)) = rs.channels[r_ch].peek()
        {
            if ready <= rs.eff {
                if rev & event::ENQUEUED != 0 {
                    let j = rp.reader_of[r_ch];
                    rs.wake(j);
                }
            } else {
                rs.calendar.push(Reverse((ready, r_ch)));
            }
        }
    }

    // Commit the queued off-chip requests in (time, node, seq) order,
    // merging the nodes' queues, and wake each requester once per
    // completion.
    let mut merge = Merge::new();
    for (s, (sp, g)) in plan.plans.iter().zip(gs.iter_mut()).enumerate() {
        let g: &mut Shard = g;
        for l in g.hbm_queued.drain(..) {
            merge.add(sp.node_ids[l as usize], (s, l), &g.hbm_reqs[l as usize]);
        }
    }
    merge.commit(
        hbm,
        &mut gs[..],
        |gs, (s, l)| &mut gs[s].hbm_reqs[l as usize],
        |gs, (s, l), seq, done| {
            let g = &mut gs[s];
            let resp = &mut g.hbm_resp[l as usize];
            // A node's queue is in issue order, so the merge delivers its
            // responses in seq order.
            debug_assert!(resp.back().is_none_or(|r| r.seq0 + r.done.count <= seq));
            nodes::push_response(resp, seq, done);
            g.wake(l);
        },
    );

    let undone: usize = gs.iter().map(|s| s.undone).sum();
    if undone == 0 {
        return Ok(CoordStep::Done);
    }
    // Deterministic round deadline: summed shard waves are a pure
    // function of the schedule, and the coordinator's exclusive window
    // is ordered identically at every worker count. A finished run
    // (checked above) never trips this.
    limits.check_rounds(gs.iter().map(|s| s.rounds).sum())?;

    // Barrier elision: raise each shard's effective horizon to its
    // cut-slack allowance, waking readers of newly visible heads.
    for (sp, s) in plan.plans.iter().zip(gs.iter_mut()) {
        let allow = s.allowance(sp);
        s.raise_eff(sp, allow);
    }

    let fill = |gs: &[MutexGuard<'_, Shard>], active: &mut Vec<u32>| {
        active.clear();
        for (i, s) in gs.iter().enumerate() {
            if s.has_ready() {
                active.push(i as u32);
            }
        }
    };
    fill(&gs, active);
    if active.is_empty() {
        // Fully quiescent: advance the global horizon to the earliest
        // pending channel event across all shards.
        let mut t0: Option<u64> = None;
        for s in gs.iter_mut() {
            let eff = s.eff;
            if let Some(t) = s.next_event(eff) {
                t0 = Some(t0.map_or(t, |cur| cur.min(t)));
            }
        }
        let Some(t0) = t0 else {
            let mut lines = Vec::new();
            for (sp, s) in plan.plans.iter().zip(gs.iter()) {
                s.blocked_lines(sp, &plan.graph, &mut lines);
            }
            return Err(deadlock_error(lines));
        };
        // Deterministic cycle deadline, checked when the global horizon
        // advances (under barrier elision shards may run ahead of it
        // within their slack allowance, so the check is coarse — but
        // t0 is a pure function of shard states, hence reproducible).
        limits.check_cycles(t0)?;
        *horizon = t0 + plan.cfg.horizon_step;
        for (sp, s) in plan.plans.iter().zip(gs.iter_mut()) {
            s.raise_eff(sp, *horizon);
        }
        fill(&gs, active);
    }
    for &id in active.iter() {
        if gs[id as usize].eff > *horizon {
            counters.elided_runs += 1;
        }
    }
    if let [only] = active[..] {
        counters.solo_runs += 1;
        return Ok(CoordStep::Solo(only));
    }
    counters.shard_runs += active.len() as u64;
    Ok(CoordStep::Run)
}

/// Deadlock diagnostics, in global node order.
fn deadlock_error(mut lines: Vec<(u32, String)>) -> StepError {
    lines.sort_by_key(|(gid, _)| *gid);
    let blocked: Vec<String> = lines.into_iter().map(|(_, l)| l).collect();
    StepError::Deadlock(format!(
        "no progress with {} nodes blocked: {}",
        blocked.len(),
        blocked.join(", ")
    ))
}

/// `v` without spare capacity: plan tables live as long as the plan.
fn frozen<T>(mut v: Vec<T>) -> Vec<T> {
    v.shrink_to_fit();
    v
}
