//! Off-chip memory operators (Table 3) wired to the HBM timing node.
//!
//! Every operator is a two-phase state machine: consuming an input token
//! *issues* requests through the node's [`super::HbmPort`], and a FIFO of
//! pending emissions turns *completions* back into timed output tokens in
//! issue order. Under an immediate sink (monolithic runs, and sharded
//! sub-rounds whose sole runnable shard takes the engine's off-chip fast
//! path) completions are available within the same fire, so the operator
//! collapses back to single-fire exactly like the legacy synchronous
//! implementation; under a queued sink (sharded runs) the node parks
//! between issue and completion and the engine wakes it after the
//! barrier commit. Interleaved structural tokens (block separators,
//! pass-through stops) ride the same FIFO so emission order is preserved
//! while requests pipeline.

use super::basic::impl_simnode_common;
use super::{BUDGET, Blocked, Ctx, Io, SimNode};
use crate::arena::SharedStore;
use crate::stats::NodeStats;
use std::collections::VecDeque;
use step_core::Elem;
use step_core::error::{Result, StepError};
use step_core::graph::Node;
use step_core::ops::{LinearLoadCfg, RandomAccessCfg};
use step_core::tile::Tile;
use step_core::token::Token;

/// Soft cap on requests a node keeps in flight under a queued sink: the
/// check runs before consuming an input token, and one input may issue a
/// whole block (`LinearOffChipLoad` issues `nr*nc` requests per
/// reference), so pipelining can overshoot the cap by up to one block.
/// Immediate sinks drain within the fire, so the cap never binds there.
const HBM_PIPELINE: usize = 2 * BUDGET as usize;

/// A pending emission: a *run* of tiles awaiting their completions, or a
/// structural token already stamped at issue time. A whole row of tile
/// requests is one entry (consecutive sequence numbers, tensor indices
/// advancing by `idx_stride`), so the pending FIFO scales with block
/// rows, not tiles.
enum PendingEmit {
    /// Responses `seq0..seq0 + count` carry the completion times;
    /// `idx0 + j * idx_stride` locates tile `j` in the stored tensor
    /// (interpretation is the operator's), and `row_stop_last` appends a
    /// level-1 stop after the final tile.
    Tiles {
        seq0: u64,
        count: u64,
        idx0: u64,
        idx_stride: u64,
        row_stop_last: bool,
    },
    /// A token emitted as-is at a time fixed at issue.
    Mark { time: u64, token: Token },
}

/// The shared drain loop over a node's pending-emission FIFO: marks emit
/// eagerly at their issue-time stamps, tiles wait for their completion
/// (recording [`Blocked::Hbm`] when it has not arrived), and the closure
/// materializes one completed tile — identified by its tensor index —
/// as output tokens.
macro_rules! drain_pending {
    ($self:ident, $ctx:ident, |$done:ident, $idx:ident, $row_stop:ident| $emit:block) => {{
        let mut progress = false;
        loop {
            let Some(front) = $self.pending.front() else {
                break;
            };
            match *front {
                PendingEmit::Mark { time, ref token } => {
                    let token = token.clone();
                    $self.io.push_at(0, time, token);
                    $self.pending.pop_front();
                    $self.on_mark_popped();
                }
                PendingEmit::Tiles {
                    seq0,
                    count,
                    idx0,
                    idx_stride,
                    row_stop_last,
                } => {
                    let Some($done) = $ctx.hbm.take_response(seq0) else {
                        $self.io.blocked = Some(Blocked::Hbm);
                        break;
                    };
                    let $idx = idx0;
                    let $row_stop = row_stop_last && count == 1;
                    $emit
                    if count == 1 {
                        $self.pending.pop_front();
                    } else if let Some(PendingEmit::Tiles {
                        seq0, count, idx0, ..
                    }) = $self.pending.front_mut()
                    {
                        *seq0 += 1;
                        *count -= 1;
                        *idx0 += idx_stride;
                    }
                }
            }
            progress = true;
        }
        progress
    }};
}

/// `LinearOffChipLoad` (Fig 2): per reference element, an affine tiled
/// read of the stored tensor, adding two dimensions to the stream.
pub struct LinearLoadNode {
    io: Io,
    cfg: LinearLoadCfg,
    pending: VecDeque<PendingEmit>,
    /// Pending emissions in flight — tiles *plus* separator marks,
    /// exactly the entry count the per-tile FIFO used to have, so the
    /// pipeline cap stalls at the same point it always did.
    in_flight: u64,
    /// A completed block awaits its separator stop (the block-emitter
    /// rule shared by every block-expanding operator).
    sep_pending: bool,
}

impl LinearLoadNode {
    pub fn new(node: &Node, cfg: LinearLoadCfg) -> LinearLoadNode {
        LinearLoadNode {
            io: Io::new(node),
            cfg,
            pending: VecDeque::new(),
            in_flight: 0,
            sep_pending: false,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.pending.clear();
        self.in_flight = 0;
        self.sep_pending = false;
    }

    /// Mark entries count toward the pipeline cap (macro hook).
    fn on_mark_popped(&mut self) {
        self.in_flight -= 1;
    }

    /// Issues one block of tile requests; emission happens as completions
    /// drain through the FIFO.
    fn issue_block(&mut self, ctx: &mut Ctx<'_>) {
        let (nr, nc) = self.cfg.shape_tiled;
        let (sr, sc) = self.cfg.stride_tiled;
        let tile_bytes = self.cfg.tile_bytes();
        let issue = self.io.time;
        if self.sep_pending {
            self.in_flight += 1;
            self.pending.push_back(PendingEmit::Mark {
                time: issue,
                token: Token::Stop(2),
            });
        }
        self.sep_pending = true;
        let mut k = 0u64;
        for i in 0..nr {
            let mut seq0 = 0;
            for j in 0..nc {
                let idx = i * sr + j * sc;
                let addr = self.cfg.base_addr + idx * tile_bytes;
                // Requests issue pipelined at one per cycle; completions
                // are bounded by the shared HBM bus.
                let seq = ctx.hbm.request(addr, tile_bytes, issue + k, false);
                if j == 0 {
                    seq0 = seq;
                }
                k += 1;
            }
            if nc > 0 {
                self.in_flight += nc;
                // One pending entry per row of tiles.
                self.pending.push_back(PendingEmit::Tiles {
                    seq0,
                    count: nc,
                    idx0: i * sr,
                    idx_stride: sc,
                    row_stop_last: i + 1 < nr,
                });
            }
        }
        self.io.time = issue + k;
        // Double-buffered staging of the tile being transferred (§4.2).
        self.io.stats.onchip_bytes = self.io.stats.onchip_bytes.max(2 * tile_bytes);
    }

    /// Emits every pending entry whose completion has arrived. Timing
    /// runs (no registered tensors) read every tile back as the same
    /// shape-only payload, so a stretch of completed requests emits as
    /// one run: one completion-run pickup, one payload, one outbox entry.
    fn drain(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let (tr, tc) = self.cfg.tile_shape;
        if ctx.store.is_empty() {
            let mut progress = false;
            loop {
                match self.pending.front() {
                    None => break,
                    Some(PendingEmit::Mark { time, token }) => {
                        let (time, token) = (*time, token.clone());
                        self.io.push_at(0, time, token);
                        self.pending.pop_front();
                        self.in_flight -= 1;
                    }
                    Some(&PendingEmit::Tiles {
                        seq0,
                        count,
                        row_stop_last,
                        ..
                    }) => {
                        // All but a trailing row stop emit as one run of
                        // the same shape-only tile.
                        let plain = if row_stop_last { count - 1 } else { count };
                        if plain > 0 {
                            let Some(dones) = ctx.hbm.take_response_run(seq0, plain) else {
                                self.io.blocked = Some(Blocked::Hbm);
                                break;
                            };
                            let k = dones.count;
                            self.in_flight -= k;
                            let tile = Tile::phantom(tr as usize, tc as usize);
                            self.io.push_run(0, dones, Token::Val(Elem::Tile(tile)));
                            if k < count {
                                if let Some(PendingEmit::Tiles { seq0, count, .. }) =
                                    self.pending.front_mut()
                                {
                                    *seq0 += k;
                                    *count -= k;
                                }
                                if k < plain {
                                    // More plain tiles await responses.
                                    progress = true;
                                    continue;
                                }
                            } else {
                                self.pending.pop_front();
                                progress = true;
                                continue;
                            }
                        }
                        // The row-closing tile: emit tile + Stop(1).
                        let Some((seq, _)) = self.pending.front().and_then(|e| match e {
                            &PendingEmit::Tiles { seq0, count, .. } => Some((seq0, count)),
                            _ => None,
                        }) else {
                            break;
                        };
                        let Some(done) = ctx.hbm.take_response(seq) else {
                            self.io.blocked = Some(Blocked::Hbm);
                            break;
                        };
                        self.in_flight -= 1;
                        let tile = Tile::phantom(tr as usize, tc as usize);
                        self.io.push_at(0, done, Token::Val(Elem::Tile(tile)));
                        self.io.push_at(0, done, Token::Stop(1));
                        self.pending.pop_front();
                    }
                }
                progress = true;
            }
            return progress;
        }
        drain_pending!(self, ctx, |done, idx, row_stop| {
            self.in_flight -= 1;
            let grid_cols = self.cfg.grid().1.max(1);
            let (gr, gc) = (idx / grid_cols, idx % grid_cols);
            let tile = ctx.store.read_tile(
                self.cfg.base_addr,
                (gr * tr) as usize,
                (gc * tc) as usize,
                tr as usize,
                tc as usize,
            );
            self.io.push_at(0, done, Token::Val(Elem::Tile(tile)));
            if row_stop {
                self.io.push_at(0, done, Token::Stop(1));
            }
        })
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        // A draining step ends before the next issue so the flush between
        // steps applies output backpressure exactly like the synchronous
        // implementation did (the staging gate must see the emissions
        // before the node consumes further input).
        if self.drain(ctx) {
            return Ok(1);
        }
        if self.in_flight >= HBM_PIPELINE as u64 {
            return Ok(0);
        }
        // Structural reference tokens wait for in-flight blocks so the
        // separator algebra observes emissions in order.
        let head_is_val = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, tok)) => tok.is_val(),
        };
        if !head_is_val && !self.pending.is_empty() {
            self.io.blocked = Some(Blocked::Hbm);
            return Ok(0);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(_) => self.issue_block(ctx),
            Token::Stop(k) => {
                self.io.push(0, Token::Stop(k + 2));
                self.sep_pending = false;
            }
            Token::Done => {
                if self.sep_pending {
                    self.io.push(0, Token::Stop(2));
                    self.sep_pending = false;
                }
                self.io.push_done_all();
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(LinearLoadNode);

/// `LinearOffChipStore`: writes tiles linearly at the base address.
pub struct LinearStoreNode {
    io: Io,
    base_addr: u64,
    offset_bytes: u64,
    row_offset: usize,
    last_done: u64,
    outstanding: usize,
}

impl LinearStoreNode {
    pub fn new(node: &Node, base_addr: u64) -> LinearStoreNode {
        LinearStoreNode {
            io: Io::new(node),
            base_addr,
            offset_bytes: 0,
            row_offset: 0,
            last_done: 0,
            outstanding: 0,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.offset_bytes = 0;
        self.row_offset = 0;
        self.last_done = 0;
        self.outstanding = 0;
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let mut progress = false;
        while let Some((_, done)) = ctx.hbm.pop_response() {
            self.last_done = self.last_done.max(done);
            self.outstanding -= 1;
            progress = true;
        }
        progress
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        let drained = self.drain(ctx) as u64;
        if self.outstanding >= HBM_PIPELINE {
            return Ok(drained);
        }
        let head_is_done = match self.io.peek(ctx, 0) {
            None => return Ok(drained),
            Some((_, tok)) => matches!(tok, Token::Done),
        };
        if head_is_done && self.outstanding > 0 {
            // The finish time folds in every write completion.
            self.io.blocked = Some(Blocked::Hbm);
            return Ok(drained);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(e) => {
                let tile = e.as_tile()?;
                let bytes = tile.bytes();
                ctx.hbm.request(
                    self.base_addr + self.offset_bytes,
                    bytes,
                    self.io.time,
                    true,
                );
                self.outstanding += 1;
                ctx.store
                    .write_tile(self.base_addr, self.row_offset, 0, tile);
                self.row_offset += tile.rows();
                self.offset_bytes += bytes;
                self.io.stats.onchip_bytes = self.io.stats.onchip_bytes.max(2 * bytes);
                self.drain(ctx);
            }
            Token::Stop(_) => {}
            Token::Done => {
                self.io.time = self.io.time.max(self.last_done);
                self.io.push_done_all();
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(LinearStoreNode);

/// The tile `addr` names in a random-access tensor: its offset from the
/// tensor's base in whole tiles. An address below the base, between two
/// tiles, or at a tile whose first row lies past the rows of the tensor
/// the run's store holds at the base names no tile; it is an error, not
/// a read or write of the tile it would truncate or pad to.
fn tile_index(cfg: &RandomAccessCfg, addr: u64, store: &SharedStore) -> Result<u64> {
    let bytes = cfg.tile_bytes().max(1);
    let in_tensor = |idx: u64| {
        store
            .extent(cfg.base_addr)
            .is_none_or(|(rows, _)| idx.saturating_mul(cfg.tile_shape.0) < rows as u64)
    };
    match addr.checked_sub(cfg.base_addr) {
        Some(offset) if offset % bytes == 0 && in_tensor(offset / bytes) => Ok(offset / bytes),
        _ => Err(StepError::Exec(format!(
            "random access address {addr:#x} names no tile of the tensor at base {:#x} \
             with {bytes}-byte tiles",
            cfg.base_addr
        ))),
    }
}

/// `RandomOffChipLoad`: one tile per byte address.
pub struct RandomLoadNode {
    io: Io,
    cfg: RandomAccessCfg,
    pending: VecDeque<PendingEmit>,
}

impl RandomLoadNode {
    pub fn new(node: &Node, cfg: RandomAccessCfg) -> RandomLoadNode {
        RandomLoadNode {
            io: Io::new(node),
            cfg,
            pending: VecDeque::new(),
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.pending.clear();
    }

    /// Pipeline cap counts pending entries directly here (macro hook).
    fn on_mark_popped(&mut self) {}

    fn drain(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let (tr, tc) = self.cfg.tile_shape;
        drain_pending!(self, ctx, |done, idx, _row_stop| {
            // Functional payload: tiles are addressed as a vertical stack
            // below the configured base.
            let tile = ctx.store.read_tile(
                self.cfg.base_addr,
                (idx * tr) as usize,
                0,
                tr as usize,
                tc as usize,
            );
            self.io.push_at(0, done, Token::Val(Elem::Tile(tile)));
        })
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        if self.drain(ctx) {
            return Ok(1);
        }
        if self.pending.len() >= HBM_PIPELINE {
            return Ok(0);
        }
        let head_is_done = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, tok)) => matches!(tok, Token::Done),
        };
        if head_is_done && !self.pending.is_empty() {
            self.io.blocked = Some(Blocked::Hbm);
            return Ok(0);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(e) => {
                let addr = e.as_addr()?;
                let tile_idx = tile_index(&self.cfg, addr, ctx.store)?;
                let bytes = self.cfg.tile_bytes();
                // Issue immediately (the pop above already rate-limits to
                // one address per cycle); the token carries the completion
                // time, and the bounded output channel caps requests in
                // flight.
                let seq = ctx.hbm.request(addr, bytes, self.io.time, false);
                self.pending.push_back(PendingEmit::Tiles {
                    seq0: seq,
                    count: 1,
                    idx0: tile_idx,
                    idx_stride: 0,
                    row_stop_last: false,
                });
                self.io.stats.onchip_bytes = self.io.stats.onchip_bytes.max(2 * bytes);
            }
            Token::Stop(k) => self.pending.push_back(PendingEmit::Mark {
                time: self.io.time,
                token: Token::Stop(k),
            }),
            Token::Done => self.io.push_done_all(),
        }
        Ok(1)
    }
}

impl_simnode_common!(RandomLoadNode);

/// `RandomOffChipStore`: writes data tiles at paired addresses, emitting
/// an acknowledgement stream.
pub struct RandomStoreNode {
    io: Io,
    cfg: RandomAccessCfg,
    pending: VecDeque<PendingEmit>,
}

impl RandomStoreNode {
    pub fn new(node: &Node, cfg: RandomAccessCfg) -> RandomStoreNode {
        RandomStoreNode {
            io: Io::new(node),
            cfg,
            pending: VecDeque::new(),
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.pending.clear();
    }

    /// Pipeline cap counts pending entries directly here (macro hook).
    fn on_mark_popped(&mut self) {}

    fn drain(&mut self, ctx: &mut Ctx<'_>) -> bool {
        drain_pending!(self, ctx, |done, _idx, _row_stop| {
            self.io.push_at(0, done, Token::Val(Elem::Bool(true)));
        })
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        if self.drain(ctx) {
            return Ok(1);
        }
        if self.pending.len() >= HBM_PIPELINE {
            return Ok(0);
        }
        if self.io.peek(ctx, 0).is_none() || self.io.peek(ctx, 1).is_none() {
            return Ok(0);
        }
        let heads_done = matches!(self.io.peek(ctx, 0), Some((_, Token::Done)));
        if heads_done && !self.pending.is_empty() {
            self.io.blocked = Some(Blocked::Hbm);
            return Ok(0);
        }
        let a = self.io.pop(ctx, 0);
        let d = self.io.pop(ctx, 1);
        match (a, d) {
            (Token::Val(a), Token::Val(d)) => {
                let addr = a.as_addr()?;
                let tile = d.as_tile()?;
                let tile_idx = tile_index(&self.cfg, addr, ctx.store)?;
                let bytes = tile.bytes();
                let seq = ctx.hbm.request(addr, bytes, self.io.time, true);
                let (tr, _) = self.cfg.tile_shape;
                ctx.store
                    .write_tile(self.cfg.base_addr, (tile_idx * tr) as usize, 0, tile);
                self.pending.push_back(PendingEmit::Tiles {
                    seq0: seq,
                    count: 1,
                    idx0: 0,
                    idx_stride: 0,
                    row_stop_last: false,
                });
                self.io.stats.onchip_bytes = self.io.stats.onchip_bytes.max(2 * bytes);
            }
            (Token::Stop(s1), Token::Stop(s2)) if s1 == s2 => {
                self.pending.push_back(PendingEmit::Mark {
                    time: self.io.time,
                    token: Token::Stop(s1),
                });
            }
            (Token::Done, Token::Done) => self.io.push_done_all(),
            (x, y) => {
                return Err(StepError::Exec(format!(
                    "random store misalignment: {x} vs {y}"
                )));
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(RandomStoreNode);
