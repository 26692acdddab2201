//! `Partition` executor (split out of `routing` for readability).

use super::basic::impl_simnode_common;
use super::{BUDGET, Ctx, Io, SimNode};
use crate::stats::NodeStats;
use step_core::error::{Result, StepError};
use step_core::graph::Node;
use step_core::token::Token;

/// `Partition`: routes rank-`rank` chunks to the outputs named by each
/// multi-hot selector element (Table 6).
///
/// Chunk-closing stops are emitted eagerly; when a chunk ends exactly at
/// an outer boundary the incoming stream already carries the absorbed
/// higher-level stop, so a one-token lookahead distinguishes "more chunks
/// follow" from "group/stream ends here". A run of values inside a chunk
/// shares one selector, so it replicates to the selected outputs in bulk.
pub struct PartitionNode {
    io: Io,
    rank: u8,
    num_consumers: u32,
    /// The current chunk's selected outputs, meaningful while `chunk` is
    /// `Open` or `Closing`. Refilled in place from each selector, so a
    /// steady-state run allocates nothing here.
    targets: Vec<u32>,
    chunk: Chunk,
    /// Outputs that produced content since the last outer boundary.
    had_content: Vec<bool>,
}

/// Where a [`PartitionNode`] stands in its current chunk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Chunk {
    /// No selector read for the chunk yet.
    Unselected,
    /// The chunk's selector is read; its values go to `targets`.
    Open,
    /// The chunk ended: `targets` are owed a chunk-closing `Stop(rank)`
    /// pending lookahead.
    Closing,
}

impl PartitionNode {
    pub fn new(node: &Node, rank: u8, num_consumers: u32) -> PartitionNode {
        PartitionNode {
            io: Io::new(node),
            rank,
            num_consumers,
            targets: Vec::new(),
            chunk: Chunk::Unselected,
            had_content: vec![false; num_consumers as usize],
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.chunk = Chunk::Unselected;
        self.had_content.iter_mut().for_each(|h| *h = false);
    }

    fn need_selector(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
        if self.chunk == Chunk::Open {
            return Ok(true);
        }
        match self.io.peek(ctx, 1) {
            None => Ok(false),
            Some((_, Token::Val(_))) => {
                let sel = self.io.pop(ctx, 1).into_val()?;
                let sel = sel.as_sel()?;
                if sel.targets().iter().any(|&t| t >= self.num_consumers) {
                    return Err(StepError::Exec(format!(
                        "partition selector {sel} exceeds {} consumers",
                        self.num_consumers
                    )));
                }
                self.targets.clear();
                self.targets.extend_from_slice(sel.targets());
                self.chunk = Chunk::Open;
                Ok(true)
            }
            Some((_, other)) => Err(StepError::Exec(format!(
                "partition: expected selector value, got {other}"
            ))),
        }
    }

    fn consume_selector_stop(&mut self, ctx: &mut Ctx<'_>, level: u8) -> Result<()> {
        match self.io.peek(ctx, 1) {
            Some((_, &Token::Stop(k))) if k == level => {
                let _ = self.io.pop(ctx, 1);
                Ok(())
            }
            _ => Err(StepError::Exec(
                "partition: selector stream out of sync at outer stop".into(),
            )),
        }
    }

    /// Emits the chunk-closing `Stop(rank)` owed to every target.
    fn close_chunk(&mut self) {
        for &t in &self.targets {
            self.io.push(t as usize, Token::Stop(self.rank));
        }
        self.chunk = Chunk::Unselected;
    }

    fn emit_outer_stop(&mut self, level: u8) {
        for i in 0..self.had_content.len() {
            if std::mem::take(&mut self.had_content[i]) {
                self.io.push(i, Token::Stop(level));
            }
        }
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        // A chunk just ended: look ahead to decide between an eager
        // Stop(rank) and an absorbed higher-level stop.
        if self.chunk == Chunk::Closing {
            match self.io.peek(ctx, 0) {
                None => return Ok(0),
                Some((_, Token::Val(_))) => {
                    self.close_chunk();
                    return Ok(1);
                }
                Some((_, &Token::Stop(s))) => {
                    debug_assert!(s > self.rank, "chunk already closed");
                    let _ = self.io.pop(ctx, 0);
                    self.emit_outer_stop(s);
                    self.consume_selector_stop(ctx, s - self.rank)?;
                    self.chunk = Chunk::Unselected;
                    return Ok(1);
                }
                Some((_, Token::Done)) => {
                    let _ = self.io.pop(ctx, 0);
                    self.close_chunk();
                    self.io.push_done_all();
                    return Ok(1);
                }
            }
        }
        let head_is_val = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, tok)) => tok.is_val(),
        };
        if head_is_val {
            if !self.need_selector(ctx)? {
                return Ok(0);
            }
            let mut allow = budget;
            for &t in &self.targets {
                allow = allow.min(self.io.out_allowance(ctx, t as usize));
            }
            let (tok, k) = self.io.pop_run(ctx, 0, 0, allow).expect("visible head");
            for &t in &self.targets {
                self.had_content[t as usize] = true;
                for pi in 0..self.io.popped.len() {
                    let piece = self.io.popped[pi];
                    self.io.push_run(t as usize, piece, tok.clone());
                }
            }
            return Ok(k);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(_) => unreachable!("head checked above"),
            Token::Stop(s) => {
                if s < self.rank {
                    if self.chunk != Chunk::Open {
                        return Err(StepError::Exec(
                            "partition: chunk-internal stop before selector".into(),
                        ));
                    }
                    for &t in &self.targets {
                        self.io.push(t as usize, Token::Stop(s));
                    }
                } else if s == self.rank {
                    if self.chunk == Chunk::Open {
                        self.chunk = Chunk::Closing;
                    }
                } else {
                    // The chunk's close was absorbed into this outer stop.
                    self.chunk = Chunk::Unselected;
                    self.emit_outer_stop(s);
                    self.consume_selector_stop(ctx, s - self.rank)?;
                }
                Ok(1)
            }
            Token::Done => {
                self.io.push_done_all();
                Ok(1)
            }
        }
    }
}

impl_simnode_common!(PartitionNode);
