//! Operator executors.
//!
//! Each STeP operator is executed by a node implementing [`SimNode`]:
//! a state machine with a local clock that consumes timed tokens from its
//! input channels, performs the operator's functional semantics (§3.2),
//! charges its timing model (§4.3), and produces timed tokens. The engine
//! fires a node only when one of its channels signals that progress is
//! possible (event-driven wake lists); a node that returns without
//! progress reports the edge that blocked it via [`SimNode::blocked_on`].
//! A plan lowers every node into one [`CompiledNode`] variant, the
//! static-dispatch executor the engine drives.

mod basic;
mod compiled;
mod compute;
mod offchip;
mod onchip;
mod routing;
mod routing_partition;

pub use compiled::{CompiledNode, compiled_kind};

use crate::arena::{Arena, SharedStore};
use crate::channel::Channel;
use crate::config::SimConfig;
use crate::hbm::{self, Hbm, ReqRun};
use crate::run::TimeRun;
use crate::stats::NodeStats;
use std::collections::VecDeque;
use step_core::error::{Result, StepError};
use step_core::graph::{EdgeId, Graph, Node};
use step_core::ops::OpKind;
use step_core::token::Token;

/// A shard's view of its channels. A shard owns only the channels
/// incident to its nodes, plus the writer/reader halves of its
/// cross-shard edges; a compiled node's [`EdgeId`]s were rewritten to
/// these shard-local indices when the plan froze, so they address the
/// slice directly.
pub struct Chans<'a> {
    channels: &'a mut [Channel],
}

impl<'a> Chans<'a> {
    /// A view over a shard's channels, addressed by local index.
    pub fn new(channels: &'a mut [Channel]) -> Chans<'a> {
        Chans { channels }
    }

    /// The channel for edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not visible in this view.
    pub fn get(&self, e: EdgeId) -> &Channel {
        &self.channels[e.0 as usize]
    }

    /// The channel for edge `e`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not visible in this view.
    pub fn get_mut(&mut self, e: EdgeId) -> &mut Channel {
        &mut self.channels[e.0 as usize]
    }

    /// Two distinct channels, mutably (coupled bulk pops, e.g. `Zip`).
    ///
    /// # Panics
    ///
    /// Panics if the edges coincide or are not visible in this view.
    pub fn get2_mut(&mut self, a: EdgeId, b: EdgeId) -> (&mut Channel, &mut Channel) {
        let [ca, cb] = self
            .channels
            .get_disjoint_mut([a.0 as usize, b.0 as usize])
            .expect("distinct edges");
        (ca, cb)
    }
}

/// Where a node's off-chip requests commit: directly against the HBM
/// ledger (monolithic runs and the solo-shard fast path) or into the
/// node's request queue, which the engine merges with every other node's
/// and commits at the next barrier in deterministic `(time, node, seq)`
/// order (sharded runs).
pub enum HbmSink<'a> {
    /// Service immediately; responses are available in the same fire.
    Immediate(&'a mut Hbm),
    /// Queue for the engine's next barrier commit.
    Queued(&'a mut VecDeque<ReqRun>),
}

/// A run of serviced off-chip completions: requests `seq0..seq0 +
/// done.count` completed at the (arithmetic) times `done`. Responses
/// coalesce into runs at delivery, so a pipelined burst of tile reads
/// costs one queue entry instead of one per request.
#[derive(Debug, Clone, Copy)]
pub struct RespRun {
    /// First request sequence number covered.
    pub seq0: u64,
    /// Completion times, one per consecutive sequence number.
    pub done: TimeRun,
}

/// Appends completion `(seq, done)` to a response queue, coalescing with
/// the tail run when the sequence and completion times both continue.
pub(crate) fn push_response(q: &mut VecDeque<RespRun>, seq: u64, done: u64) {
    if let Some(back) = q.back_mut()
        && back.seq0 + back.done.count == seq
        && back.done.try_extend(TimeRun::single(done))
    {
        return;
    }
    q.push_back(RespRun {
        seq0: seq,
        done: TimeRun::single(done),
    });
}

/// A node's port into the off-chip memory subsystem: issue requests, pick
/// up completions in issue order.
pub struct HbmPort<'a> {
    sink: HbmSink<'a>,
    /// Next request sequence number for this node.
    next_seq: &'a mut u64,
    /// Completion runs awaiting pickup, in issue order.
    responses: &'a mut VecDeque<RespRun>,
}

impl<'a> HbmPort<'a> {
    /// Creates the port handed to a node for one fire.
    pub fn new(
        sink: HbmSink<'a>,
        next_seq: &'a mut u64,
        responses: &'a mut VecDeque<RespRun>,
    ) -> HbmPort<'a> {
        HbmPort {
            sink,
            next_seq,
            responses,
        }
    }

    /// Issues an access of `bytes` at `addr` at local time `time`,
    /// returning its sequence number. The completion arrives via
    /// [`HbmPort::take_response`] — in the same fire under an immediate
    /// sink, after the engine's next commit barrier under a queued one.
    /// A node's clock is monotone, so under a queued sink `time` never
    /// precedes the node's last queued request (debug-asserted).
    pub fn request(&mut self, addr: u64, bytes: u64, time: u64, write: bool) -> u64 {
        let seq = *self.next_seq;
        *self.next_seq += 1;
        match &mut self.sink {
            HbmSink::Immediate(hbm) => {
                let done = hbm.access(addr, bytes, time, write);
                push_response(self.responses, seq, done);
            }
            HbmSink::Queued(q) => hbm::push_request(q, seq, addr, bytes, time, write),
        }
        seq
    }

    /// The completion time of request `seq`, if it is the oldest pending
    /// response and has been serviced.
    pub fn take_response(&mut self, seq: u64) -> Option<u64> {
        self.take_response_run(seq, 1).map(|r| r.start)
    }

    /// The completion times of up to `max` requests with consecutive
    /// sequence numbers starting at `seq`, if `seq` is the oldest pending
    /// response and has been serviced. Consumes the returned prefix.
    pub fn take_response_run(&mut self, seq: u64, max: u64) -> Option<TimeRun> {
        let front = self.responses.front_mut()?;
        if front.seq0 != seq || max == 0 {
            return None;
        }
        let k = front.done.count.min(max);
        let out = front.done.prefix(k);
        if k == front.done.count {
            self.responses.pop_front();
        } else {
            front.seq0 += k;
            front.done = front.done.advance(k);
        }
        Some(out)
    }

    /// The oldest serviced completion `(seq, done)`, if any.
    pub fn pop_response(&mut self) -> Option<(u64, u64)> {
        let front = self.responses.front_mut()?;
        let out = (front.seq0, front.done.start);
        if front.done.count == 1 {
            self.responses.pop_front();
        } else {
            front.seq0 += 1;
            front.done = front.done.advance(1);
        }
        Some(out)
    }
}

/// Shared mutable simulation state handed to nodes on every fire.
pub struct Ctx<'a> {
    /// Channels visible to the firing node, addressed by [`EdgeId`].
    pub chans: Chans<'a>,
    /// The node's port into the off-chip memory subsystem.
    pub hbm: HbmPort<'a>,
    /// The (shard-local) on-chip scratchpad arena.
    pub arena: &'a mut Arena,
    /// Dense off-chip contents for functional runs.
    pub store: &'a SharedStore,
    /// Global configuration.
    pub cfg: &'a SimConfig,
    /// Upper bound (inclusive) on token ready times visible this round:
    /// the engine advances this window so that host execution order
    /// tracks simulated time (conservative windowed execution).
    pub horizon: u64,
}

impl Ctx<'_> {
    fn ch(&mut self, e: EdgeId) -> &mut Channel {
        self.chans.get_mut(e)
    }
}

/// Tokens a node may process per `fire` call, bounding per-wave work so
/// the scheduler interleaves nodes fairly. A bulk run step charges its
/// whole token count against the budget, so the fire schedule is
/// identical to per-token execution.
pub(crate) const BUDGET: u64 = 256;

/// What a node was waiting on when its last `fire` made no progress —
/// the readiness surface the event-driven engine and its deadlock
/// diagnostics consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocked {
    /// Waiting for a token (ready within the horizon) on this input edge.
    Input(EdgeId),
    /// Waiting for free space on this output edge's channel.
    Output(EdgeId),
    /// Waiting for an off-chip completion (queued HBM commitment).
    Hbm,
}

impl std::fmt::Display for Blocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Blocked::Input(e) => write!(f, "awaiting input on edge {}", e.0),
            Blocked::Output(e) => write!(f, "output edge {} full", e.0),
            Blocked::Hbm => write!(f, "awaiting off-chip completion"),
        }
    }
}

/// A simulated operator.
pub trait SimNode {
    /// Processes as much as possible (bounded); returns whether any
    /// progress was made.
    ///
    /// # Errors
    ///
    /// Returns [`StepError`] on functional violations (shape mismatches,
    /// selector range errors, malformed streams).
    fn fire(&mut self, ctx: &mut Ctx<'_>) -> Result<bool>;

    /// Whether the node has fully finished.
    fn done(&self) -> bool;

    /// Execution statistics.
    fn stats(&self) -> &NodeStats;

    /// The node's local clock.
    fn local_time(&self) -> u64;

    /// The edge the node's most recent no-progress `fire` was blocked on,
    /// if it recorded one (diagnostics; the wake lists are authoritative
    /// for scheduling).
    fn blocked_on(&self) -> Option<Blocked> {
        None
    }

    /// Recorded tokens, for recording sinks.
    fn recorded(&self) -> Option<&[Token]> {
        None
    }
}

/// Tokens a port may stage beyond its channel before the node stalls —
/// the unit's small internal output register, decoupling ports from each
/// other (a full FIFO on port A must not block traffic for port B).
const PORT_STAGING: u64 = 2;

/// Common I/O harness embedded in every node: input/output edges, local
/// clock, statistics, and per-port run-staged outboxes providing
/// backpressure-correct bulk sends. All per-token timestamp arithmetic
/// is identical to the old one-entry-per-token harness; only the storage
/// granularity changed (one entry per run).
pub(crate) struct Io {
    pub ins: Vec<EdgeId>,
    pub outs: Vec<EdgeId>,
    pub time: u64,
    pub stats: NodeStats,
    outbox: Vec<VecDeque<(TimeRun, Token)>>,
    /// Staged token count per port (sum of outbox run counts).
    staged: Vec<u64>,
    pub finishing: bool,
    pub done: bool,
    /// The last edge a peek or flush found blocking (readiness surface).
    pub blocked: Option<Blocked>,
    /// Dequeue-time pieces of the most recent [`Io::pop_run`], reusable
    /// scratch (runs are `Copy`; index it while pushing outputs).
    pub popped: Vec<TimeRun>,
}

impl Io {
    pub fn new(node: &Node) -> Io {
        Io {
            ins: node.inputs.clone(),
            outs: node.outputs.clone(),
            time: 0,
            stats: NodeStats::default(),
            outbox: vec![VecDeque::new(); node.outputs.len()],
            staged: vec![0; node.outputs.len()],
            finishing: false,
            done: false,
            blocked: None,
            popped: Vec::new(),
        }
    }

    /// Restores the harness to its just-built state in place, keeping
    /// every allocation (edge tables, outbox queues, scratch vectors).
    pub fn reset(&mut self) {
        self.time = 0;
        self.stats = NodeStats::default();
        for q in &mut self.outbox {
            q.clear();
        }
        self.staged.iter_mut().for_each(|s| *s = 0);
        self.finishing = false;
        self.done = false;
        self.blocked = None;
        self.popped.clear();
    }

    /// Queues a token for `port` stamped with the current local time.
    pub fn push(&mut self, port: usize, tok: Token) {
        let t = self.time;
        self.push_at(port, t, tok);
    }

    /// Queues a token for `port` with an explicit production time,
    /// coalescing with the port's staged tail when the token repeats and
    /// the time continues the tail's arithmetic sequence.
    pub fn push_at(&mut self, port: usize, time: u64, tok: Token) {
        self.push_run(port, TimeRun::single(time), tok);
    }

    /// Queues a run: `times.count` copies of `tok` with production times
    /// `times`.
    pub fn push_run(&mut self, port: usize, times: TimeRun, tok: Token) {
        if let Token::Val(_) = &tok {
            self.stats.values_out += times.count;
        }
        self.staged[port] += times.count;
        if let Some((ts, tail)) = self.outbox[port].back_mut()
            && tail.coalesces_with(&tok)
            && ts.try_extend(times)
        {
            return;
        }
        self.outbox[port].push_back((times, tok));
    }

    /// Queues `Done` on every output port and marks the node finishing.
    pub fn push_done_all(&mut self) {
        for port in 0..self.outs.len() {
            let t = self.time;
            self.staged[port] += 1;
            self.outbox[port].push_back((TimeRun::single(t), Token::Done));
        }
        self.finishing = true;
    }

    /// How many more tokens this node may stage for `port` before the
    /// per-token fire loop would have stalled on the staging gate: the
    /// channel's free slots plus the staging allowance, minus what is
    /// already staged. Bulk steps cap their token count here so the
    /// schedule (which fire consumes which token) is bit-identical to
    /// per-token execution.
    pub fn out_allowance(&self, ctx: &Ctx<'_>, port: usize) -> u64 {
        let free = ctx.chans.get(self.outs[port]).free_slots();
        free.saturating_add(PORT_STAGING + 1)
            .saturating_sub(self.staged[port])
    }

    /// Attempts to drain every port's outbox (ports never block each
    /// other). Returns `(made_progress, may_step)` where `may_step`
    /// allows further input processing only while every port is within
    /// its staging allowance.
    pub fn flush(&mut self, ctx: &mut Ctx<'_>) -> (bool, bool) {
        let mut progress = false;
        let mut may_step = true;
        for (port, q) in self.outbox.iter_mut().enumerate() {
            while let Some((times, tok)) = q.front_mut() {
                let ch = ctx.chans.get_mut(self.outs[port]);
                let free = ch.free_slots();
                if free == 0 {
                    self.blocked = Some(Blocked::Output(self.outs[port]));
                    break;
                }
                if free >= times.count {
                    let (times, tok) = q.pop_front().expect("front exists");
                    let ch = ctx.chans.get_mut(self.outs[port]);
                    ch.send_run(times, tok);
                    self.staged[port] -= times.count;
                    progress = true;
                } else {
                    // Partial: send what fits, keep the tail staged.
                    let head = times.prefix(free);
                    *times = times.advance(free);
                    let tok = tok.clone();
                    let ch = ctx.chans.get_mut(self.outs[port]);
                    ch.send_run(head, tok);
                    self.staged[port] -= free;
                    progress = true;
                }
            }
            if self.staged[port] > PORT_STAGING {
                may_step = false;
            }
        }
        if may_step && self.finishing && !self.done {
            // Finish only once everything is delivered.
            if self.staged.iter().all(|&s| s == 0) {
                self.finish(ctx);
                progress = true;
            } else {
                may_step = false;
            }
        }
        (progress, may_step)
    }

    /// Closes all inputs, marks outputs finished, and flags the node done.
    pub fn finish(&mut self, ctx: &mut Ctx<'_>) {
        for e in &self.ins {
            ctx.chans.get_mut(*e).close();
        }
        for e in &self.outs {
            ctx.chans.get_mut(*e).finish_src();
        }
        self.stats.finish_time = self.time;
        self.done = true;
    }

    /// Peeks input `port`'s head token, if it is ready within the
    /// engine's current time horizon. A miss records the port as the
    /// node's blocker.
    pub fn peek<'c>(&mut self, ctx: &'c Ctx<'_>, port: usize) -> Option<(u64, &'c Token)> {
        let head = ctx
            .chans
            .get(self.ins[port])
            .peek()
            .filter(|(ready, _)| *ready <= ctx.horizon);
        if head.is_none() {
            self.blocked = Some(Blocked::Input(self.ins[port]));
        }
        head
    }

    /// Pops input `port`, advancing the local clock to the dequeue time
    /// and counting values.
    ///
    /// # Panics
    ///
    /// Panics if the channel is empty; peek first.
    pub fn pop(&mut self, ctx: &mut Ctx<'_>, port: usize) -> Token {
        let (t, tok) = ctx.ch(self.ins[port]).pop(self.time);
        self.time = self.time.max(t);
        if tok.is_val() {
            self.stats.values_in += 1;
        }
        tok
    }

    /// Bulk pop: consumes up to `max` copies of input `port`'s head run
    /// (visible within the horizon), for a consumer whose clock advances
    /// by `pace` cycles after each token. Advances the local clock to the
    /// last dequeue time (the caller adds its trailing `pace`), counts
    /// values, and leaves the dequeue-time pieces in [`Io::popped`].
    /// Returns `None` — recording the port as the blocker — when nothing
    /// is visible.
    pub fn pop_run(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: usize,
        pace: u64,
        max: u64,
    ) -> Option<(Token, u64)> {
        self.popped.clear();
        let horizon = ctx.horizon;
        let ch = ctx.ch(self.ins[port]);
        match ch.pop_run(self.time, pace, horizon, max, &mut self.popped) {
            Some((tok, k)) => {
                let last = self.popped.last().expect("non-empty pop").last();
                self.time = self.time.max(last);
                if tok.is_val() {
                    self.stats.values_in += k;
                }
                Some((tok, k))
            }
            None => {
                self.blocked = Some(Blocked::Input(self.ins[port]));
                None
            }
        }
    }

    /// Charges `cycles` of busy processing time.
    pub fn busy(&mut self, cycles: u64) {
        self.time += cycles;
        self.stats.busy_cycles += cycles;
    }

    /// Charges the trailing per-token cost of a bulk step: `count` tokens
    /// of `cycles` each were processed, with all but the last already
    /// folded into the dequeue pacing — the clock advances by one
    /// `cycles`, the busy counter by `count * cycles`.
    pub fn busy_run(&mut self, count: u64, cycles: u64) {
        self.time += cycles;
        self.stats.busy_cycles += count * cycles;
    }
}

/// Cost of moving `bytes` through an on-chip memory port (§4.3 roofline
/// memory terms), at least one cycle.
pub(crate) fn mem_cycles(bytes: u64, cfg: &SimConfig) -> u64 {
    bytes.div_ceil(cfg.onchip_bytes_per_cycle.max(1)).max(1)
}

/// Roofline compute cost for `flops` at `compute_bw` FLOPs/cycle, at
/// least one cycle per element (II = 1).
pub(crate) fn compute_cycles(flops: u64, compute_bw: u64) -> u64 {
    flops.div_ceil(compute_bw.max(1)).max(1)
}

/// Emits separator stops between consecutive blocks and shifts incoming
/// stops by the added rank — the shared structural rule of every
/// block-expanding operator (`LinearOffChipLoad`, `Streamify`, `FlatMap`,
/// `AddrGen`).
#[derive(Debug, Default, Clone)]
pub(crate) struct BlockEmitter {
    pending: bool,
}

impl BlockEmitter {
    /// Restores the just-built state (pooled run reset).
    pub fn reset(&mut self) {
        self.pending = false;
    }

    /// Call before emitting a new block: flushes the pending separator.
    pub fn before_block(&mut self, io: &mut Io, port: usize, added_rank: u8) {
        if self.pending {
            io.push(port, Token::Stop(added_rank));
        }
        self.pending = true;
    }

    /// Call on an incoming stop: emits the shifted stop, absorbing any
    /// pending separator.
    pub fn on_stop(&mut self, io: &mut Io, port: usize, level: u8, added_rank: u8) {
        io.push(port, Token::Stop(level + added_rank));
        self.pending = false;
    }

    /// Call on `Done`: closes the final block if one is pending.
    pub fn on_done(&mut self, io: &mut Io, port: usize, added_rank: u8) {
        if self.pending {
            io.push(port, Token::Stop(added_rank));
            self.pending = false;
        }
    }
}

/// Rejects an operator whose configuration cannot be executed — the
/// only way lowering can fail, checked once when a plan freezes.
///
/// # Errors
///
/// Returns [`StepError::Config`] for a reshape below the innermost level.
pub(crate) fn check_executable(op: &OpKind) -> Result<()> {
    match op {
        OpKind::Reshape { level, .. } if *level != 0 => Err(StepError::Config(
            "only innermost (level 0) reshape is executable".into(),
        )),
        _ => Ok(()),
    }
}

/// Lowers a graph node into its [`CompiledNode`] variant. The operator
/// must have passed [`check_executable`].
pub(crate) fn compile_node(graph: &Graph, index: usize) -> CompiledNode {
    let node = &graph.nodes()[index];
    let rank_of = |e: EdgeId| graph.edge(e).shape.rank();
    match &node.op {
        OpKind::Source(cfg) => CompiledNode::Source(basic::SourceNode::new(node, cfg.clone())),
        OpKind::Sink(cfg) => CompiledNode::Sink(basic::SinkNode::new(node, cfg.record)),
        OpKind::Fork { .. } => CompiledNode::Fork(basic::ForkNode::new(node)),
        OpKind::Zip => CompiledNode::Zip(basic::ZipNode::new(node)),
        OpKind::Flatten { min, max } => {
            CompiledNode::Flatten(basic::FlattenNode::new(node, *min, *max))
        }
        OpKind::Promote => {
            let rank = rank_of(node.inputs[0]);
            CompiledNode::Promote(basic::PromoteNode::new(node, rank))
        }
        OpKind::ExpandStatic { factor } => {
            CompiledNode::ExpandStatic(basic::ExpandStaticNode::new(node, *factor))
        }
        OpKind::Expand { level } => CompiledNode::Expand(basic::ExpandNode::new(node, *level)),
        OpKind::Reshape { chunk, pad, .. } => {
            CompiledNode::Reshape(basic::ReshapeNode::new(node, *chunk, pad.clone()))
        }
        OpKind::LinearLoad(cfg) => {
            CompiledNode::LinearLoad(offchip::LinearLoadNode::new(node, cfg.clone()))
        }
        OpKind::LinearStore { base_addr } => {
            CompiledNode::LinearStore(offchip::LinearStoreNode::new(node, *base_addr))
        }
        OpKind::RandomLoad(cfg) => {
            CompiledNode::RandomLoad(offchip::RandomLoadNode::new(node, cfg.clone()))
        }
        OpKind::RandomStore(cfg) => {
            CompiledNode::RandomStore(offchip::RandomStoreNode::new(node, cfg.clone()))
        }
        OpKind::Bufferize { rank } => {
            CompiledNode::Bufferize(onchip::BufferizeNode::new(node, *rank))
        }
        OpKind::Streamify(cfg) => {
            let buf_rank = rank_of(node.inputs[0]);
            let ref_rank = rank_of(node.inputs[1]);
            CompiledNode::Streamify(onchip::StreamifyNode::new(
                node,
                cfg.clone(),
                ref_rank - buf_rank,
            ))
        }
        OpKind::Partition {
            rank,
            num_consumers,
        } => CompiledNode::Partition(routing_partition::PartitionNode::new(
            node,
            *rank,
            *num_consumers,
        )),
        OpKind::Reassemble {
            rank,
            num_producers,
        } => CompiledNode::Reassemble(routing::ReassembleNode::new(node, *rank, *num_producers)),
        OpKind::EagerMerge { num_producers } => {
            let rank = rank_of(node.inputs[0]);
            CompiledNode::EagerMerge(routing::EagerMergeNode::new(node, *num_producers, rank))
        }
        OpKind::Map { func, compute_bw } => {
            CompiledNode::Map(compute::MapNode::new(node, *func, *compute_bw))
        }
        OpKind::Accum {
            rank,
            func,
            compute_bw,
        } => CompiledNode::Accum(compute::AccumNode::new(node, *rank, *func, *compute_bw)),
        OpKind::Scan {
            rank,
            func,
            compute_bw,
        } => CompiledNode::Scan(compute::ScanNode::new(node, *rank, *func, *compute_bw)),
        OpKind::FlatMap { func } => CompiledNode::FlatMap(compute::FlatMapNode::new(node, *func)),
        OpKind::AddrGen {
            count,
            stride,
            base,
        } => CompiledNode::AddrGen(compute::AddrGenNode::new(node, *count, *stride, *base)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hbm::Hbm;
    use step_core::elem::Elem;
    use step_core::graph::EdgeId;
    use step_core::ops::OpKind;

    /// Test fixture owning everything a `Ctx` borrows.
    pub(crate) struct Fixture {
        pub channels: Vec<Channel>,
        pub hbm: Hbm,
        pub arena: Arena,
        pub store: SharedStore,
        pub cfg: SimConfig,
        pub seq: u64,
        pub responses: VecDeque<RespRun>,
    }

    impl Fixture {
        pub fn new(capacities: &[usize]) -> Fixture {
            let cfg = SimConfig::default();
            Fixture {
                channels: capacities.iter().map(|&c| Channel::new(c, 0)).collect(),
                hbm: Hbm::new(cfg.hbm.clone()),
                arena: Arena::new(),
                store: SharedStore::new(),
                cfg,
                seq: 0,
                responses: VecDeque::new(),
            }
        }

        pub fn ctx(&mut self, horizon: u64) -> Ctx<'_> {
            Ctx {
                chans: Chans::new(&mut self.channels),
                hbm: HbmPort::new(
                    HbmSink::Immediate(&mut self.hbm),
                    &mut self.seq,
                    &mut self.responses,
                ),
                arena: &mut self.arena,
                store: &self.store,
                cfg: &self.cfg,
                horizon,
            }
        }
    }

    fn out_node(ports: u32) -> Node {
        Node {
            op: OpKind::Zip,
            inputs: vec![],
            outputs: (0..ports).map(EdgeId).collect(),
            label: String::new(),
        }
    }

    fn val(x: u64) -> Token {
        Token::Val(Elem::Addr(x))
    }

    #[test]
    fn full_port_does_not_block_other_ports() {
        // Port 0's channel holds one token; port 1's holds plenty. Port 1
        // must drain fully even while port 0 is backed up.
        let mut fx = Fixture::new(&[1, 8]);
        let mut io = Io::new(&out_node(2));
        for k in 0..5 {
            io.push(0, val(k));
            io.push(1, val(k));
        }
        let mut ctx = fx.ctx(u64::MAX);
        let (progress, may_step) = io.flush(&mut ctx);
        assert!(progress);
        // Port 0 staged 4 tokens, beyond PORT_STAGING: the node stalls.
        assert!(!may_step);
        assert_eq!(fx.channels[0].len(), 1);
        assert_eq!(fx.channels[1].len(), 5);
        assert_eq!(io.blocked, Some(Blocked::Output(EdgeId(0))));
    }

    #[test]
    fn staging_allowance_lets_a_port_run_slightly_ahead() {
        // With exactly PORT_STAGING tokens staged beyond the channel, the
        // node may still step; one more and it stalls.
        let mut fx = Fixture::new(&[1]);
        let mut io = Io::new(&out_node(1));
        for k in 0..(1 + PORT_STAGING) {
            io.push(0, val(k));
        }
        let mut ctx = fx.ctx(u64::MAX);
        let (_, may_step) = io.flush(&mut ctx);
        assert!(may_step, "PORT_STAGING staged tokens must not stall");
        io.push(0, val(99));
        let (_, may_step) = io.flush(&mut ctx);
        assert!(!may_step, "beyond the staging allowance the node stalls");
        // Draining the channel lets the staged tokens through again.
        fx.channels[0].pop(0);
        let mut ctx = fx.ctx(u64::MAX);
        let (progress, _) = io.flush(&mut ctx);
        assert!(progress);
        assert_eq!(fx.channels[0].len(), 1);
    }

    #[test]
    fn allowance_mirrors_the_staging_gate() {
        // out_allowance = free slots + staging allowance + 1: exactly the
        // number of tokens the per-token loop would process before the
        // post-flush staging gate stalls the node.
        let mut fx = Fixture::new(&[4]);
        let mut io = Io::new(&out_node(1));
        let ctx = fx.ctx(u64::MAX);
        assert_eq!(io.out_allowance(&ctx, 0), 4 + PORT_STAGING + 1);
        io.push(0, val(1));
        let ctx = fx.ctx(u64::MAX);
        assert_eq!(io.out_allowance(&ctx, 0), 4 + PORT_STAGING);
    }

    #[test]
    fn identical_pushes_stage_as_one_run() {
        // A burst of the same token at one local time stages as a single
        // run entry; flushing sends it as one bulk channel op that the
        // port rule spreads over consecutive cycles.
        let mut fx = Fixture::new(&[8]);
        let mut io = Io::new(&out_node(1));
        io.push_run(0, TimeRun::new(0, 0, 5), val(7));
        assert_eq!(io.stats.values_out, 5);
        let mut ctx = fx.ctx(u64::MAX);
        let (progress, may_step) = io.flush(&mut ctx);
        assert!(progress && may_step);
        assert_eq!(fx.channels[0].len(), 5);
        assert_eq!(fx.channels[0].runs(), 1);
        assert_eq!(fx.channels[0].sent_runs(), 1);
    }

    #[test]
    fn pop_run_advances_clock_and_counts_values() {
        let node = Node {
            op: OpKind::Zip,
            inputs: vec![EdgeId(0)],
            outputs: vec![],
            label: String::new(),
        };
        let mut io = Io::new(&node);
        let mut fx = Fixture::new(&[8]);
        fx.channels[0].send_run(TimeRun::new(3, 0, 4), val(1)); // ready 3..6
        let mut ctx = fx.ctx(u64::MAX);
        let (tok, k) = io.pop_run(&mut ctx, 0, 0, 16).unwrap();
        assert_eq!((tok, k), (val(1), 4));
        assert_eq!(io.popped, vec![TimeRun::new(3, 1, 4)]);
        assert_eq!(io.time, 6);
        assert_eq!(io.stats.values_in, 4);
    }

    #[test]
    fn peek_records_the_blocking_edge() {
        let node = Node {
            op: OpKind::Zip,
            inputs: vec![EdgeId(0), EdgeId(1)],
            outputs: vec![],
            label: String::new(),
        };
        let mut io = Io::new(&node);
        let mut fx = Fixture::new(&[2, 2]);
        // A token beyond the horizon is invisible and counts as blocking.
        fx.channels[1].send(500, val(1));
        let ctx = fx.ctx(64);
        assert!(io.peek(&ctx, 0).is_none());
        assert_eq!(io.blocked, Some(Blocked::Input(EdgeId(0))));
        assert!(io.peek(&ctx, 1).is_none(), "head beyond horizon");
        assert_eq!(io.blocked, Some(Blocked::Input(EdgeId(1))));
    }

    #[test]
    fn only_innermost_reshape_is_executable() {
        let reshape = |level| OpKind::Reshape {
            level,
            chunk: 4,
            pad: None,
        };
        assert!(check_executable(&reshape(0)).is_ok());
        assert!(matches!(
            check_executable(&reshape(1)),
            Err(StepError::Config(msg)) if msg.contains("level 0")
        ));
    }
}
