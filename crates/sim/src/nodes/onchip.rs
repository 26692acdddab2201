//! On-chip memory operators (Table 4): `Bufferize` and `Streamify`.
//!
//! Both move whole runs per step: `Bufferize` absorbs a run of repeated
//! elements with one bulk pop (the per-element memory-port cost paces
//! the dequeues), and `Streamify` emits stretches of equal buffered
//! elements as strided runs (one entry per stretch instead of one per
//! element).

use super::basic::impl_simnode_common;
use super::{BUDGET, BlockEmitter, Ctx, Io, SimNode, mem_cycles};
use crate::arena::StoredBuffer;
use crate::run::TimeRun;
use crate::stats::NodeStats;
use step_core::Elem;
use step_core::elem::BufRef;
use step_core::error::{Result, StepError};
use step_core::graph::Node;
use step_core::ops::StreamifyCfg;
use step_core::token::Token;

/// `Bufferize` (Fig 3): captures the `rank` innermost dims into an on-chip
/// buffer, emitting a reference per buffer.
pub struct BufferizeNode {
    io: Io,
    rank: u8,
    elems: Vec<Elem>,
    bytes: u64,
    /// Completed-unit counters per level (index 0 counts values).
    counts: Vec<u64>,
    /// Maximum extent seen per level.
    extents: Vec<u64>,
    max_buffer_bytes: u64,
    max_elem_bytes: u64,
}

impl BufferizeNode {
    pub fn new(node: &Node, rank: u8) -> BufferizeNode {
        BufferizeNode {
            io: Io::new(node),
            rank,
            elems: Vec::new(),
            bytes: 0,
            counts: vec![0; rank as usize + 1],
            extents: vec![0; rank as usize],
            max_buffer_bytes: 0,
            max_elem_bytes: 0,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.elems.clear();
        self.bytes = 0;
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.extents.iter_mut().for_each(|e| *e = 0);
        self.max_buffer_bytes = 0;
        self.max_elem_bytes = 0;
    }

    fn close_levels(&mut self, upto: u8) {
        for l in 1..=(upto.min(self.rank) as usize) {
            self.extents[l - 1] = self.extents[l - 1].max(self.counts[l - 1]);
            self.counts[l - 1] = 0;
            self.counts[l] += 1;
        }
    }

    fn seal_buffer(&mut self, ctx: &mut Ctx<'_>) {
        let dims: Vec<u64> = self.extents.iter().rev().copied().collect();
        let bytes = self.bytes;
        ctx.arena.set_time(self.io.time);
        let id = ctx.arena.alloc(StoredBuffer {
            elems: std::mem::take(&mut self.elems),
            dims: dims.clone(),
            bytes,
        });
        self.max_buffer_bytes = self.max_buffer_bytes.max(bytes);
        self.io.stats.onchip_bytes = self.max_elem_bytes + 2 * self.max_buffer_bytes;
        self.io.push(0, Token::Val(Elem::Buf(BufRef { id, dims })));
        self.bytes = 0;
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.extents.iter_mut().for_each(|e| *e = 0);
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let cost = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, Token::Val(e))) => {
                let bytes = e.bytes();
                Some((bytes, mem_cycles(bytes, ctx.cfg)))
            }
            Some(_) => None,
        };
        if let Some((bytes, cost)) = cost {
            let (tok, k) = self.io.pop_run(ctx, 0, cost, budget).expect("visible head");
            let e = tok.into_val()?;
            self.max_elem_bytes = self.max_elem_bytes.max(bytes);
            self.bytes += k * bytes;
            self.counts[0] += k;
            self.elems.extend(std::iter::repeat_n(e, k as usize));
            self.io.busy_run(k, cost);
            return Ok(k);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(_) => unreachable!("head checked above"),
            Token::Stop(s) => {
                self.close_levels(s);
                if s >= self.rank {
                    self.seal_buffer(ctx);
                    if s > self.rank {
                        self.io.push(0, Token::Stop(s - self.rank));
                    }
                }
            }
            Token::Done => {
                if !self.elems.is_empty() {
                    return Err(StepError::Malformed(
                        "bufferize input ended without closing stop".into(),
                    ));
                }
                self.io.push_done_all();
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(BufferizeNode);

/// `Streamify` (Fig 3): reads buffers back into a stream, once per
/// reference element. Statically-shaped buffers support affine reads;
/// dynamic buffers stream linearly.
pub struct StreamifyNode {
    io: Io,
    cfg: StreamifyCfg,
    /// Extra reference rank relative to the buffer stream: each rank-`c`
    /// reference block consumes one buffer (c = 0 means one reference
    /// value per buffer).
    c: u8,
    current: Option<StoredBuffer>,
    current_id: Option<u64>,
    emitter: BlockEmitter,
    block_rank: u8,
}

/// Accumulates consecutive equal buffered elements into one strided
/// output run: per element, the memory port charges `cost` cycles and
/// emits at the advanced clock, so a stretch of `n` equal elements
/// leaves as `TimeRun { start: t0 + cost, stride: cost, count: n }`.
struct BurstEmit {
    pending: Option<(Elem, u64, u64)>, // (element, cost, count)
}

impl BurstEmit {
    fn new() -> BurstEmit {
        BurstEmit { pending: None }
    }

    fn emit(&mut self, io: &mut Io, elem: &Elem, cost: u64) {
        match &mut self.pending {
            Some((p, c, n)) if *c == cost && p.coalesces_with(elem) => *n += 1,
            _ => {
                self.flush(io);
                self.pending = Some((elem.clone(), cost, 1));
            }
        }
    }

    fn flush(&mut self, io: &mut Io) {
        if let Some((e, cost, n)) = self.pending.take() {
            let start = io.time + cost;
            io.busy(n * cost);
            io.push_run(0, TimeRun::new(start, cost, n), Token::Val(e));
        }
    }
}

impl StreamifyNode {
    pub fn new(node: &Node, cfg: StreamifyCfg, c: u8) -> StreamifyNode {
        StreamifyNode {
            io: Io::new(node),
            cfg,
            c,
            current: None,
            current_id: None,
            emitter: BlockEmitter::default(),
            block_rank: 0,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.current = None;
        self.current_id = None;
        self.emitter.reset();
        self.block_rank = 0;
    }

    fn load_buffer(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        if self.current.is_some() {
            return Ok(true);
        }
        match self.io.peek(ctx, 0) {
            None => Ok(false),
            Some((_, Token::Val(_))) => {
                let tok = self.io.pop(ctx, 0);
                let e = tok.into_val()?;
                let buf = e.as_buf()?;
                // Reuse of the same reference (e.g. after ExpandStatic)
                // keeps the buffer resident.
                if self.current_id != Some(buf.id)
                    && let Some(prev) = self.current_id.take()
                {
                    ctx.arena.set_time(self.io.time);
                    let _ = ctx.arena.free(prev);
                }
                let stored = ctx.arena.get(buf.id)?.clone();
                self.block_rank = if self.cfg.shape.is_some() {
                    2
                } else {
                    stored.dims.len() as u8
                };
                self.current_id = Some(buf.id);
                self.current = Some(stored);
                Ok(true)
            }
            Some((_, other)) => Err(StepError::Exec(format!(
                "streamify: expected buffer ref, got {other}"
            ))),
        }
    }

    fn emit_block(&mut self, ctx: &mut Ctx<'_>) -> Result<()> {
        let buf = self.current.as_ref().expect("buffer loaded").clone();
        let mut burst = BurstEmit::new();
        match (self.cfg.shape, self.cfg.stride) {
            (Some((nr, nc)), stride) => {
                let (sr, sc) = stride.unwrap_or((nc, 1));
                for i in 0..nr {
                    for j in 0..nc {
                        let idx = (i * sr + j * sc) as usize;
                        let e = buf.elems.get(idx).ok_or_else(|| {
                            StepError::Exec(format!(
                                "streamify affine read {idx} out of buffer of {}",
                                buf.elems.len()
                            ))
                        })?;
                        let cost = mem_cycles(e.bytes(), ctx.cfg);
                        burst.emit(&mut self.io, e, cost);
                        if j + 1 == nc && i + 1 < nr {
                            burst.flush(&mut self.io);
                            self.io.push(0, Token::Stop(1));
                        }
                    }
                }
            }
            (None, _) => {
                // Linear stream of the whole buffer, reconstructing the
                // captured dims.
                let dims = &buf.dims;
                let total: u64 = dims.iter().product::<u64>().max(buf.elems.len() as u64);
                let mut run_lengths = Vec::new();
                let mut acc = 1u64;
                for d in dims.iter().rev() {
                    acc *= (*d).max(1);
                    run_lengths.push(acc);
                }
                for (k, e) in buf.elems.iter().enumerate() {
                    let cost = mem_cycles(e.bytes(), ctx.cfg);
                    burst.emit(&mut self.io, e, cost);
                    let pos = (k + 1) as u64;
                    if pos < total {
                        // Highest level whose run completes here.
                        let mut level = 0u8;
                        for (li, rl) in run_lengths.iter().enumerate() {
                            if pos.is_multiple_of(*rl) {
                                level = li as u8 + 1;
                            }
                        }
                        if level > 0 && level < self.block_rank {
                            burst.flush(&mut self.io);
                            self.io.push(0, Token::Stop(level));
                        }
                    }
                }
            }
        }
        burst.flush(&mut self.io);
        Ok(())
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        match self.io.peek(ctx, 1) {
            None => Ok(0),
            Some((_, Token::Val(_))) => {
                if !self.load_buffer(ctx)? {
                    return Ok(0);
                }
                let _ = self.io.pop(ctx, 1);
                self.emitter.before_block(&mut self.io, 0, self.block_rank);
                self.emit_block(ctx)?;
                if self.c == 0 {
                    self.current = None;
                }
                Ok(1)
            }
            Some((_, &Token::Stop(s))) => {
                let _ = self.io.pop(ctx, 1);
                self.emitter.on_stop(&mut self.io, 0, s, self.block_rank);
                if s >= self.c && self.c > 0 {
                    self.current = None;
                    // Consume the aligned buffer-stream stop, if any.
                    if s > self.c {
                        match self.io.peek(ctx, 0) {
                            Some((_, &Token::Stop(bs))) if bs == s - self.c => {
                                let _ = self.io.pop(ctx, 0);
                            }
                            _ => {
                                return Err(StepError::Exec(
                                    "streamify: buffer stream out of sync".into(),
                                ));
                            }
                        }
                    }
                }
                Ok(1)
            }
            Some((_, Token::Done)) => {
                if let Some((_, Token::Done)) = self.io.peek(ctx, 0) {
                    let _ = self.io.pop(ctx, 0);
                }
                if let Some(prev) = self.current_id.take() {
                    ctx.arena.set_time(self.io.time);
                    let _ = ctx.arena.free(prev);
                }
                let _ = self.io.pop(ctx, 1);
                self.emitter.on_done(&mut self.io, 0, self.block_rank);
                self.io.push_done_all();
                Ok(1)
            }
        }
    }
}

impl_simnode_common!(StreamifyNode);
