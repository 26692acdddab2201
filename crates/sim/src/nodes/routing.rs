//! Dynamic routing and merging operators (Table 6, §3.2.3).
//!
//! The arrival-order picks stay per-token (they compare head timestamps
//! across inputs), but once an input is selected its chunk drains in
//! bulk: a run of repeated values forwards as one channel operation.

use super::basic::impl_simnode_common;
use super::{BUDGET, Ctx, Io, SimNode};
use crate::stats::NodeStats;
use step_core::Elem;
use step_core::elem::Selector;
use step_core::error::{Result, StepError};
use step_core::graph::Node;
use step_core::token::Token;

/// `Reassemble` (Fig 4): per selector element, drains one rank-`rank`
/// tensor from each selected input in arrival order (never interleaving),
/// then raises the stop level, adding a dimension.
pub struct ReassembleNode {
    io: Io,
    rank: u8,
    num_producers: u32,
    remaining: Vec<u32>,
    active: Option<u32>,
    /// A group finished and awaits its closing stop (absorbed into the
    /// selector stream's stops).
    pending_group_stop: bool,
}

impl ReassembleNode {
    pub fn new(node: &Node, rank: u8, num_producers: u32) -> ReassembleNode {
        ReassembleNode {
            io: Io::new(node),
            rank,
            num_producers,
            remaining: Vec::new(),
            active: None,
            pending_group_stop: false,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.remaining.clear();
        self.active = None;
        self.pending_group_stop = false;
    }

    fn sel_port(&self) -> usize {
        self.num_producers as usize
    }

    fn pick_input(&mut self, ctx: &mut Ctx<'_>) -> Option<u32> {
        // Arrival order: among the selected inputs, take the one whose
        // head token is ready earliest (ties broken by index).
        let mut best: Option<(u64, u32)> = None;
        for &i in &self.remaining {
            if let Some((t, _)) = self.io.peek(ctx, i as usize)
                && best.is_none_or(|(bt, bi)| t < bt || (t == bt && i < bi))
            {
                best = Some((t, i));
            }
        }
        best.map(|(_, i)| i)
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        // Drain the active chunk first: never interleave.
        if let Some(i) = self.active {
            let head_is_val = match self.io.peek(ctx, i as usize) {
                None => return Ok(0),
                Some((_, tok)) => tok.is_val(),
            };
            if head_is_val {
                let allow = self.io.out_allowance(ctx, 0).min(budget);
                let (tok, k) = self
                    .io
                    .pop_run(ctx, i as usize, 0, allow)
                    .expect("visible head");
                for pi in 0..self.io.popped.len() {
                    let piece = self.io.popped[pi];
                    self.io.push_run(0, piece, tok.clone());
                }
                return Ok(k);
            }
            match self.io.pop(ctx, i as usize) {
                Token::Val(_) => unreachable!("head checked above"),
                Token::Stop(s) if s < self.rank => self.io.push(0, Token::Stop(s)),
                Token::Stop(s) if s == self.rank => {
                    self.remaining.retain(|&x| x != i);
                    self.active = None;
                    if self.remaining.is_empty() {
                        self.pending_group_stop = true;
                    } else {
                        self.io.push(0, Token::Stop(self.rank));
                    }
                }
                other => {
                    return Err(StepError::Exec(format!(
                        "reassemble: input {i} ended mid-chunk with {other}"
                    )));
                }
            }
            return Ok(1);
        }
        if !self.remaining.is_empty() {
            match self.pick_input(ctx) {
                Some(i) => {
                    self.active = Some(i);
                    return Ok(1);
                }
                None => return Ok(0),
            }
        }
        // Need the next selector token.
        let sp = self.sel_port();
        match self.io.peek(ctx, sp) {
            None => Ok(0),
            Some((_, Token::Val(_))) => {
                let sel = self.io.pop(ctx, sp).into_val()?;
                let sel = sel.as_sel()?.clone();
                if sel.targets().iter().any(|&t| t >= self.num_producers) {
                    return Err(StepError::Exec(format!(
                        "reassemble selector {sel} exceeds {} producers",
                        self.num_producers
                    )));
                }
                if self.pending_group_stop {
                    self.io.push(0, Token::Stop(self.rank + 1));
                    self.pending_group_stop = false;
                }
                self.remaining = sel.targets().to_vec();
                Ok(1)
            }
            Some((_, &Token::Stop(k))) => {
                let _ = self.io.pop(ctx, sp);
                self.io.push(0, Token::Stop(k + self.rank + 1));
                self.pending_group_stop = false;
                Ok(1)
            }
            Some((_, Token::Done)) => {
                let _ = self.io.pop(ctx, sp);
                if self.pending_group_stop {
                    self.io.push(0, Token::Stop(self.rank + 1));
                    self.pending_group_stop = false;
                }
                self.io.push_done_all();
                Ok(1)
            }
        }
    }
}

impl_simnode_common!(ReassembleNode);

/// `EagerMerge`: merges whole rank-`rank` tensors in arrival order,
/// emitting the data plus a selector stream recording provenance.
pub struct EagerMergeNode {
    io: Io,
    num_producers: u32,
    rank: u8,
    active: Option<u32>,
    finished: Vec<bool>,
}

impl EagerMergeNode {
    pub fn new(node: &Node, num_producers: u32, rank: u8) -> EagerMergeNode {
        EagerMergeNode {
            io: Io::new(node),
            num_producers,
            rank,
            active: None,
            finished: vec![false; num_producers as usize],
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.active = None;
        self.finished.iter_mut().for_each(|f| *f = false);
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        if let Some(i) = self.active {
            let head_is_val = match self.io.peek(ctx, i as usize) {
                None => return Ok(0),
                Some((_, tok)) => tok.is_val(),
            };
            if head_is_val && self.rank > 0 {
                // Rank-0 chunks re-enter arrival-order arbitration after
                // every value; only ranked chunks drain in bulk.
                let allow = self.io.out_allowance(ctx, 0).min(budget);
                let (tok, k) = self
                    .io
                    .pop_run(ctx, i as usize, 0, allow)
                    .expect("visible head");
                for pi in 0..self.io.popped.len() {
                    let piece = self.io.popped[pi];
                    self.io.push_run(0, piece, tok.clone());
                }
                return Ok(k);
            }
            match self.io.pop(ctx, i as usize) {
                Token::Val(v) => {
                    self.io.push(0, Token::Val(v));
                    if self.rank == 0 {
                        self.active = None;
                    }
                }
                Token::Stop(s) if s < self.rank => self.io.push(0, Token::Stop(s)),
                Token::Stop(s) if s == self.rank => {
                    self.io.push(0, Token::Stop(s));
                    self.active = None;
                }
                Token::Done => {
                    return Err(StepError::Exec(format!(
                        "eager-merge: input {i} ended mid-chunk"
                    )));
                }
                Token::Stop(s) => {
                    return Err(StepError::Exec(format!(
                        "eager-merge: stop {s} above chunk rank {}",
                        self.rank
                    )));
                }
            }
            return Ok(1);
        }
        // Pick the earliest-ready input head; retire finished inputs.
        // The engine's horizon-windowed execution keeps host order aligned
        // with simulated time, so competing heads coexist within one
        // window and arrival-order picks are faithful to ±window.
        let mut best: Option<(u64, u32)> = None;
        for i in 0..self.num_producers {
            if self.finished[i as usize] {
                continue;
            }
            if let Some((t, tok)) = self.io.peek(ctx, i as usize) {
                if matches!(tok, Token::Done) {
                    let _ = self.io.pop(ctx, i as usize);
                    self.finished[i as usize] = true;
                    return Ok(1);
                }
                if best.is_none_or(|(bt, bi)| t < bt || (t == bt && i < bi)) {
                    best = Some((t, i));
                }
            }
        }
        match best {
            Some((_, i)) => {
                self.active = Some(i);
                self.io.push(1, Token::Val(Elem::Sel(Selector::one(i))));
                Ok(1)
            }
            None => {
                if self.finished.iter().all(|&f| f) {
                    self.io.push_done_all();
                    Ok(1)
                } else {
                    Ok(0)
                }
            }
        }
    }
}

impl_simnode_common!(EagerMergeNode);
