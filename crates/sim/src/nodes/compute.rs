//! Higher-order operators (Table 5) with the roofline timing model of
//! §4.3: each element costs `max(1, ⌈FLOPs / compute_bw⌉)` cycles; memory
//! terms are charged by the on-chip operators that own the scratchpad
//! ports.
//!
//! Runs of repeated inputs are processed in bulk: the function is applied
//! once, FLOPs/busy-cycle statistics scale by the run length, and the
//! per-token clock evolution (dequeue at `t_i`, busy `c`, emit at
//! `t_i + c`) is folded into the channel's pop pacing.

use super::basic::impl_simnode_common;
use super::{BUDGET, BlockEmitter, Ctx, Io, SimNode, compute_cycles};
use crate::run::TimeRun;
use crate::stats::NodeStats;
use step_core::error::{Result, StepError};
use step_core::func::{AccumFn, FlatMapFn, MapFn};
use step_core::graph::Node;
use step_core::tile::Tile;
use step_core::token::Token;
use step_core::{DTYPE_BYTES, Elem};

/// `Map`: elementwise application of a hardware function.
pub struct MapNode {
    io: Io,
    func: MapFn,
    compute_bw: u64,
}

impl MapNode {
    pub fn new(node: &Node, func: MapFn, compute_bw: u64) -> MapNode {
        MapNode {
            io: Io::new(node),
            func,
            compute_bw,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
    }

    fn track_memory(&mut self, e: &Elem) {
        if matches!(self.func, MapFn::Matmul | MapFn::MatmulBt)
            && let Ok(pair) = e.as_tuple()
            && let (Ok(a), Ok(b)) = (pair[0].as_tile(), pair[1].as_tile())
        {
            // 16 * in_tile_col * bytes + |weight tile| (§4.2).
            let mem = 16 * a.cols() as u64 * DTYPE_BYTES + b.bytes();
            self.io.stats.onchip_bytes = self.io.stats.onchip_bytes.max(mem);
        }
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let cost = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, Token::Val(e))) => {
                let flops = self.func.flops(e);
                Some((flops, compute_cycles(flops, self.compute_bw)))
            }
            Some(_) => None,
        };
        if let Some((flops, c)) = cost {
            let allow = self.io.out_allowance(ctx, 0).min(budget);
            let (tok, k) = self.io.pop_run(ctx, 0, c, allow).expect("visible head");
            let e = tok.into_val()?;
            let out = Token::Val(self.func.apply(&e)?);
            self.track_memory(&e);
            self.io.stats.flops += k * flops;
            self.io.busy_run(k, c);
            for pi in 0..self.io.popped.len() {
                let piece = self.io.popped[pi];
                self.io.push_run(0, piece.offset(c), out.clone());
            }
            return Ok(k);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(_) => unreachable!("head checked above"),
            Token::Stop(s) => self.io.push(0, Token::Stop(s)),
            Token::Done => self.io.push_done_all(),
        }
        Ok(1)
    }
}

impl_simnode_common!(MapNode);

/// `Accum`: folds the `rank` innermost dims; the accumulator may be
/// dynamically sized (dynamic tiling, §5.2).
pub struct AccumNode {
    io: Io,
    rank: u8,
    func: AccumFn,
    compute_bw: u64,
    acc: Option<Tile>,
}

impl AccumNode {
    pub fn new(node: &Node, rank: u8, func: AccumFn, compute_bw: u64) -> AccumNode {
        AccumNode {
            io: Io::new(node),
            rank,
            func,
            compute_bw,
            acc: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.acc = None;
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let cost = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, Token::Val(e))) => {
                let flops = self.func.flops(e);
                Some((flops, compute_cycles(flops, self.compute_bw)))
            }
            Some(_) => None,
        };
        if let Some((flops, c)) = cost {
            // No output per value: only the fire budget bounds the run.
            let (tok, k) = self.io.pop_run(ctx, 0, c, budget).expect("visible head");
            let e = tok.into_val()?;
            let mut applied = 0;
            while applied < k {
                let prev = self.acc.clone(); // O(1): phantom or shared payload
                let acc = self.func.update(self.acc.take(), &e)?;
                self.io.stats.onchip_bytes = self.io.stats.onchip_bytes.max(acc.bytes());
                applied += 1;
                // Fixed point: `update` is pure, so once the state maps
                // to itself (phantom reductions) every remaining update
                // of this run is the identity.
                let fixed = prev.as_ref() == Some(&acc);
                self.acc = Some(acc);
                if fixed {
                    break;
                }
            }
            self.io.stats.flops += k * flops;
            self.io.busy_run(k, c);
            return Ok(k);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(_) => unreachable!("head checked above"),
            Token::Stop(s) if s < self.rank => {}
            Token::Stop(s) => {
                if let Some(acc) = self.acc.take() {
                    self.io.push(0, Token::Val(Elem::Tile(acc)));
                }
                if s > self.rank {
                    self.io.push(0, Token::Stop(s - self.rank));
                }
            }
            Token::Done => {
                if self.acc.is_some() {
                    return Err(StepError::Malformed(
                        "accum input ended without closing stop".into(),
                    ));
                }
                self.io.push_done_all();
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(AccumNode);

/// `Scan`: like `Accum` but emits the running state per element. The
/// running state changes token to token, so emission stays per-token
/// (the outbox still coalesces shape-stable phantom states into runs).
pub struct ScanNode {
    io: Io,
    rank: u8,
    func: AccumFn,
    compute_bw: u64,
    acc: Option<Tile>,
}

impl ScanNode {
    pub fn new(node: &Node, rank: u8, func: AccumFn, compute_bw: u64) -> ScanNode {
        ScanNode {
            io: Io::new(node),
            rank,
            func,
            compute_bw,
            acc: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.acc = None;
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        if self.io.peek(ctx, 0).is_none() {
            return Ok(0);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(e) => {
                let flops = self.func.flops(&e);
                let acc = self.func.update(self.acc.take(), &e)?;
                self.io.stats.onchip_bytes = self.io.stats.onchip_bytes.max(acc.bytes());
                self.io.stats.flops += flops;
                self.io.busy(compute_cycles(flops, self.compute_bw));
                self.io.push(0, Token::Val(Elem::Tile(acc.clone())));
                self.acc = Some(acc);
            }
            Token::Stop(s) => {
                if s >= self.rank {
                    self.acc = None;
                }
                self.io.push(0, Token::Stop(s));
            }
            Token::Done => self.io.push_done_all(),
        }
        Ok(1)
    }
}

impl_simnode_common!(ScanNode);

/// `FlatMap`: expands each element into a rank-1 block; blocks
/// concatenate (Table 5). One input token per step (the block is the
/// step granularity); the emitted block's equal elements leave as
/// consecutive-cycle runs.
pub struct FlatMapNode {
    io: Io,
    func: FlatMapFn,
    emitter: BlockEmitter,
    /// Memoized expansion of the most recent input: repeated inputs
    /// (broadcast tiles split into chunks) re-emit the cached block
    /// instead of re-running the function. Interchangeable inputs
    /// (`Elem::coalesces_with`) expand identically, so this is purely a
    /// cost optimization.
    cached: Option<(Elem, Vec<Vec<Elem>>)>,
}

impl FlatMapNode {
    pub fn new(node: &Node, func: FlatMapFn) -> FlatMapNode {
        FlatMapNode {
            io: Io::new(node),
            func,
            emitter: BlockEmitter::default(),
            cached: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.emitter.reset();
        self.cached = None;
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        if self.io.peek(ctx, 0).is_none() {
            return Ok(0);
        }
        let b = self.func.block_rank();
        match self.io.pop(ctx, 0) {
            Token::Val(e) => {
                if !self
                    .cached
                    .as_ref()
                    .is_some_and(|(prev, _)| prev.coalesces_with(&e))
                {
                    let tensors = self.func.expand(&e)?;
                    self.cached = Some((e, tensors));
                }
                let cached = self.cached.take().expect("cached above");
                for tensor in &cached.1 {
                    self.emitter.before_block(&mut self.io, 0, b);
                    // Per element: one busy cycle, then emit — a stretch
                    // of equal elements forms one consecutive-cycle run.
                    let mut pending: Option<(&Elem, u64)> = None;
                    for elem in tensor {
                        match &mut pending {
                            Some((p, n)) if p.coalesces_with(elem) => *n += 1,
                            _ => {
                                if let Some((p, n)) = pending.take() {
                                    let start = self.io.time + 1;
                                    self.io.busy(n);
                                    self.io.push_run(
                                        0,
                                        TimeRun::new(start, 1, n),
                                        Token::Val(p.clone()),
                                    );
                                }
                                pending = Some((elem, 1));
                            }
                        }
                    }
                    if let Some((p, n)) = pending.take() {
                        let start = self.io.time + 1;
                        self.io.busy(n);
                        self.io
                            .push_run(0, TimeRun::new(start, 1, n), Token::Val(p.clone()));
                    }
                }
                self.cached = Some(cached);
            }
            Token::Stop(s) => self.emitter.on_stop(&mut self.io, 0, s, b),
            Token::Done => {
                self.emitter.on_done(&mut self.io, 0, b);
                self.io.push_done_all();
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(FlatMapNode);

/// Address generator: per target-index element, a rank-1 block of `count`
/// addresses (the `RandomOffChipLoad` feeder under configuration
/// time-multiplexing, Fig 11).
pub struct AddrGenNode {
    io: Io,
    count: u64,
    stride: u64,
    base: u64,
    emitter: BlockEmitter,
}

impl AddrGenNode {
    pub fn new(node: &Node, count: u64, stride: u64, base: u64) -> AddrGenNode {
        AddrGenNode {
            io: Io::new(node),
            count,
            stride,
            base,
            emitter: BlockEmitter::default(),
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.emitter.reset();
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        if self.io.peek(ctx, 0).is_none() {
            return Ok(0);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(e) => {
                let index = match &e {
                    Elem::Sel(s) => *s
                        .targets()
                        .first()
                        .ok_or_else(|| StepError::Exec("addr-gen on empty selector".into()))?
                        as u64,
                    Elem::Addr(a) => *a,
                    other => {
                        return Err(StepError::ElemType(format!(
                            "addr-gen needs selector or address, got {other}"
                        )));
                    }
                };
                self.emitter.before_block(&mut self.io, 0, 1);
                for j in 0..self.count {
                    let addr = self.base + (index * self.count + j) * self.stride;
                    self.io.push(0, Token::Val(Elem::Addr(addr)));
                }
            }
            Token::Stop(s) => self.emitter.on_stop(&mut self.io, 0, s, 1),
            Token::Done => {
                self.emitter.on_done(&mut self.io, 0, 1);
                self.io.push_done_all();
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(AddrGenNode);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::tests::Fixture;
    use step_core::func::EwOp;
    use step_core::graph::EdgeId;
    use step_core::ops::OpKind;

    fn map_node() -> Node {
        Node {
            op: OpKind::Map {
                func: MapFn::Elementwise(EwOp::Relu),
                compute_bw: 4,
            },
            inputs: vec![EdgeId(0)],
            outputs: vec![EdgeId(1)],
            label: String::new(),
        }
    }

    #[test]
    fn map_processes_runs_in_bulk_with_per_token_timing() {
        // A run of identical phantom tiles through Map must produce the
        // same timestamps, stats, and output the per-token loop did:
        // dequeue at t_i (paced by the compute cost), emit at t_i + c.
        let mut fx = Fixture::new(&[8, 16]);
        let tile = Tile::phantom(2, 2);
        let flops = MapFn::Elementwise(EwOp::Relu).flops(&Elem::Tile(tile.clone()));
        let c = compute_cycles(flops, 4);
        fx.channels[0].send_run(TimeRun::new(0, 0, 5), Token::Val(Elem::Tile(tile.clone())));
        let mut node = MapNode::new(&map_node(), MapFn::Elementwise(EwOp::Relu), 4);
        let mut ctx = fx.ctx(u64::MAX);
        assert!(node.fire(&mut ctx).unwrap());
        assert_eq!(node.io.stats.values_in, 5);
        assert_eq!(node.io.stats.values_out, 5);
        assert_eq!(node.io.stats.flops, 5 * flops);
        assert_eq!(node.io.stats.busy_cycles, 5 * c);
        // Ready times 0..4; dequeues at 0, c, 2c, ... (pace dominates);
        // emissions at c, 2c, ...; the output channel holds one run.
        assert_eq!(fx.channels[1].len(), 5);
        assert_eq!(fx.channels[1].runs(), 1);
        let (ts, _) = fx.channels[1].peek_run().unwrap();
        assert_eq!(ts.start, c);
        assert_eq!(ts.stride, c.max(1));
    }
}
