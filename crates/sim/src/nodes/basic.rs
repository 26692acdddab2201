//! Sources, sinks, fan-out, zip, and the shape operators (Table 7).
//!
//! Every fire loop is *bulk*: a run of repeated tokens is consumed and
//! produced with O(1) channel traffic and run arithmetic, while the
//! schedule — which fire consumes which token, bounded by [`BUDGET`] and
//! the staging gate — is bit-identical to per-token execution (bulk
//! steps cap their token count at [`Io::out_allowance`] and charge the
//! whole run against the fire budget).

use super::{BUDGET, Ctx, Io, SimNode};
use crate::run::TimeRun;
use crate::stats::NodeStats;
use step_core::elem::Elem;
use step_core::error::{Result, StepError};
use step_core::graph::Node;
use step_core::ops::SourceCfg;
use step_core::token::Token;

macro_rules! impl_simnode_common {
    ($ty:ty) => {
        impl_simnode_common!($ty,);
    };
    ($ty:ty, $($extra:item)*) => {
        impl $ty {
            /// The embedded I/O harness (edge → local channel remapping
            /// when a run lowers the node).
            pub(crate) fn io_mut(&mut self) -> &mut Io {
                &mut self.io
            }
        }

        impl SimNode for $ty {
            fn fire(&mut self, ctx: &mut Ctx<'_>) -> Result<bool> {
                self.io.stats.fires += 1;
                self.io.blocked = None;
                let mut progress = false;
                let mut budget = BUDGET;
                while budget > 0 {
                    let (sent, drained) = self.io.flush(ctx);
                    progress |= sent;
                    if !drained || self.io.done || self.io.finishing {
                        if !progress {
                            self.io.stats.idle_fires += 1;
                        }
                        return Ok(progress);
                    }
                    let used = self.step(ctx, budget)?;
                    if used == 0 {
                        if !progress {
                            self.io.stats.idle_fires += 1;
                        }
                        return Ok(progress);
                    }
                    progress = true;
                    budget -= used.min(budget);
                }
                Ok(progress)
            }

            fn done(&self) -> bool {
                self.io.done
            }

            fn stats(&self) -> &NodeStats {
                &self.io.stats
            }

            fn local_time(&self) -> u64 {
                self.io.time
            }

            fn blocked_on(&self) -> Option<super::Blocked> {
                self.io.blocked
            }

            $($extra)*
        }
    };
}
pub(crate) use impl_simnode_common;

/// Plays a pre-materialized token stream. The baked stream is kept
/// intact behind a cursor so a pooled rerun replays it without
/// rebuilding the node; a per-run binding overrides the played stream
/// without disturbing the baked one.
pub struct SourceNode {
    io: Io,
    /// The stream frozen with the plan.
    tokens: Vec<Token>,
    /// Per-run override of the baked stream (source rebinding).
    bound: Option<Vec<Token>>,
    /// Next unplayed token in the active stream.
    cursor: usize,
}

impl SourceNode {
    pub fn new(node: &Node, cfg: SourceCfg) -> SourceNode {
        SourceNode {
            io: Io::new(node),
            tokens: cfg.tokens,
            bound: None,
            cursor: 0,
        }
    }

    /// Overrides the played stream for this run (source rebinding).
    pub(crate) fn bind(&mut self, tokens: Vec<Token>) {
        self.bound = Some(tokens);
        self.cursor = 0;
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.bound = None;
        self.cursor = 0;
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let allow = self.io.out_allowance(ctx, 0).min(budget);
        let stream = self.bound.as_deref().unwrap_or(&self.tokens);
        let rest = &stream[self.cursor.min(stream.len())..];
        match rest.first() {
            None => {
                self.io.finishing = true;
                Ok(1)
            }
            Some(Token::Done) => {
                self.cursor += 1;
                self.io.push_done_all();
                Ok(1)
            }
            Some(head) => {
                // A stretch of repeated values plays out as one run, all
                // produced at the source's (never-advancing) local time.
                let mut k = 1u64;
                while k < allow && rest.get(k as usize).is_some_and(|t| t.coalesces_with(head)) {
                    k += 1;
                }
                let tok = head.clone();
                self.cursor += k as usize;
                let t = self.io.time;
                self.io.push_run(0, TimeRun::new(t, 0, k), tok);
                Ok(k)
            }
        }
    }
}

impl_simnode_common!(SourceNode);

/// Consumes a stream, optionally recording it.
pub struct SinkNode {
    io: Io,
    record: bool,
    recorded: Vec<Token>,
}

impl SinkNode {
    pub fn new(node: &Node, record: bool) -> SinkNode {
        SinkNode {
            io: Io::new(node),
            record,
            recorded: Vec::new(),
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.recorded.clear();
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let head_is_val = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, tok)) => tok.is_val(),
        };
        if head_is_val {
            let (tok, k) = self.io.pop_run(ctx, 0, 0, budget).expect("visible head");
            if self.record {
                self.recorded.extend(std::iter::repeat_n(tok, k as usize));
            }
            return Ok(k);
        }
        let tok = self.io.pop(ctx, 0);
        let done = matches!(tok, Token::Done);
        if self.record {
            self.recorded.push(tok);
        }
        if done {
            self.io.finishing = true;
        }
        Ok(1)
    }
}

impl_simnode_common!(
    SinkNode,
    fn recorded(&self) -> Option<&[Token]> {
        self.record.then_some(self.recorded.as_slice())
    }
);

/// Replicates the input stream to every output.
pub struct ForkNode {
    io: Io,
}

impl ForkNode {
    pub fn new(node: &Node) -> ForkNode {
        ForkNode { io: Io::new(node) }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let head_is_val = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, tok)) => tok.is_val(),
        };
        if head_is_val {
            let mut allow = budget;
            for port in 0..self.io.outs.len() {
                allow = allow.min(self.io.out_allowance(ctx, port));
            }
            let (tok, k) = self.io.pop_run(ctx, 0, 0, allow).expect("visible head");
            for port in 0..self.io.outs.len() {
                for pi in 0..self.io.popped.len() {
                    let piece = self.io.popped[pi];
                    self.io.push_run(port, piece, tok.clone());
                }
            }
            return Ok(k);
        }
        match self.io.pop(ctx, 0) {
            Token::Done => self.io.push_done_all(),
            t => {
                for port in 0..self.io.outs.len() {
                    self.io.push(port, t.clone());
                }
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(ForkNode);

/// Groups two equal-shaped streams into tuples.
pub struct ZipNode {
    io: Io,
    /// Scratch for the coupled bulk pop's dequeue-time pieces.
    a_times: Vec<TimeRun>,
    b_times: Vec<TimeRun>,
}

impl ZipNode {
    pub fn new(node: &Node) -> ZipNode {
        ZipNode {
            io: Io::new(node),
            a_times: Vec::new(),
            b_times: Vec::new(),
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.a_times.clear();
        self.b_times.clear();
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let a_val = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, tok)) => tok.is_val(),
        };
        let b_val = match self.io.peek(ctx, 1) {
            None => return Ok(0),
            Some((_, tok)) => tok.is_val(),
        };
        if a_val && b_val {
            // Bulk pairs: the two pops alternate and feed each other's
            // clocks; the closed-form coupled pop resolves the whole run
            // at once.
            let allow = self.io.out_allowance(ctx, 0).min(budget);
            let horizon = ctx.horizon;
            let now = self.io.time;
            self.a_times.clear();
            self.b_times.clear();
            let (ca, cb) = ctx.chans.get2_mut(self.io.ins[0], self.io.ins[1]);
            let (a, b, k) = crate::channel::pop_zip_runs(
                ca,
                cb,
                now,
                horizon,
                allow,
                &mut self.a_times,
                &mut self.b_times,
            )
            .expect("visible heads");
            self.io.time = self.b_times.last().expect("non-empty pop").last();
            self.io.stats.values_in += 2 * k;
            let tup = Token::Val(Elem::Tuple(vec![a.into_val()?, b.into_val()?]));
            for pi in 0..self.b_times.len() {
                let piece = self.b_times[pi];
                self.io.push_run(0, piece, tup.clone());
            }
            return Ok(k);
        }
        let a = self.io.pop(ctx, 0);
        let b = self.io.pop(ctx, 1);
        match (a, b) {
            (Token::Stop(s1), Token::Stop(s2)) if s1 == s2 => {
                self.io.push(0, Token::Stop(s1));
            }
            (Token::Done, Token::Done) => self.io.push_done_all(),
            (x, y) => return Err(StepError::Exec(format!("zip misalignment: {x} vs {y}"))),
        }
        Ok(1)
    }
}

impl_simnode_common!(ZipNode);

/// `Flatten`: merges dims between stop levels `min..=max` (Table 7).
pub struct FlattenNode {
    io: Io,
    min: u8,
    max: u8,
}

impl FlattenNode {
    pub fn new(node: &Node, min: u8, max: u8) -> FlattenNode {
        FlattenNode {
            io: Io::new(node),
            min,
            max,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let head_is_val = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, tok)) => tok.is_val(),
        };
        if head_is_val {
            let allow = self.io.out_allowance(ctx, 0).min(budget);
            let (tok, k) = self.io.pop_run(ctx, 0, 0, allow).expect("visible head");
            for pi in 0..self.io.popped.len() {
                let piece = self.io.popped[pi];
                self.io.push_run(0, piece, tok.clone());
            }
            return Ok(k);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(_) => unreachable!("head checked above"),
            Token::Stop(k) => {
                let width = self.max - self.min;
                if k <= self.min {
                    self.io.push(0, Token::Stop(k));
                } else if k <= self.max {
                    // Boundary internal to the merged dim: it survives only
                    // as a level-`min` stop (vanishes when min == 0).
                    if self.min > 0 {
                        self.io.push(0, Token::Stop(self.min));
                    }
                } else {
                    self.io.push(0, Token::Stop(k - width));
                }
            }
            Token::Done => self.io.push_done_all(),
        }
        Ok(1)
    }
}

impl_simnode_common!(FlattenNode);

/// `Promote`: adds an outermost dimension of extent 1 (Table 7). The final
/// top-level stop is upgraded by one level; an empty stream stays empty.
pub struct PromoteNode {
    io: Io,
    rank: u8,
    held: Option<Token>,
}

impl PromoteNode {
    pub fn new(node: &Node, input_rank: u8) -> PromoteNode {
        PromoteNode {
            io: Io::new(node),
            rank: input_rank,
            held: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.held = None;
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        let bulk = match self.io.peek(ctx, 0) {
            None => return Ok(0),
            Some((_, tok)) => self.held.as_ref().is_some_and(|h| h.coalesces_with(tok)),
        };
        if bulk {
            // The held token equals the head run's token, so each pop
            // re-emits the held value at the dequeue time and leaves the
            // hold unchanged.
            let allow = self.io.out_allowance(ctx, 0).min(budget);
            let (tok, k) = self.io.pop_run(ctx, 0, 0, allow).expect("visible head");
            for pi in 0..self.io.popped.len() {
                let piece = self.io.popped[pi];
                self.io.push_run(0, piece, tok.clone());
            }
            return Ok(k);
        }
        let tok = self.io.pop(ctx, 0);
        match tok {
            Token::Done => {
                match self.held.take() {
                    Some(Token::Stop(s)) if s == self.rank => {
                        self.io.push(0, Token::Stop(s + 1));
                    }
                    Some(t) => {
                        // Rank-0 inputs have no closing stop of their own;
                        // the promoted dimension supplies one.
                        self.io.push(0, t);
                        self.io.push(0, Token::Stop(self.rank + 1));
                    }
                    None => {}
                }
                self.io.push_done_all();
            }
            t => {
                if let Some(prev) = self.held.replace(t) {
                    self.io.push(0, prev);
                }
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(PromoteNode);

/// Static `Expand`: repeats each value `factor` times.
pub struct ExpandStaticNode {
    io: Io,
    factor: u64,
}

impl ExpandStaticNode {
    pub fn new(node: &Node, factor: u64) -> ExpandStaticNode {
        ExpandStaticNode {
            io: Io::new(node),
            factor,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        if self.io.peek(ctx, 0).is_none() {
            return Ok(0);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(e) => {
                // The whole burst is produced at one local instant; the
                // channel port rule spreads it over consecutive cycles.
                let t = self.io.time;
                if let Elem::Tile(tile) = &e {
                    self.io.stats.onchip_bytes = self.io.stats.onchip_bytes.max(tile.bytes());
                }
                self.io
                    .push_run(0, TimeRun::new(t, 0, self.factor), Token::Val(e));
            }
            Token::Stop(s) => self.io.push(0, Token::Stop(s)),
            Token::Done => self.io.push_done_all(),
        }
        Ok(1)
    }
}

impl_simnode_common!(ExpandStaticNode);

/// Reference-driven `Expand` (Fig 5): repeats input elements per the
/// reference stream's structure below `level`.
pub struct ExpandNode {
    io: Io,
    level: u8,
    current: Option<Elem>,
}

impl ExpandNode {
    pub fn new(node: &Node, level: u8) -> ExpandNode {
        ExpandNode {
            io: Io::new(node),
            level,
            current: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.current = None;
    }

    /// Consumes input tokens up to and including the stop closing the
    /// current element's block.
    fn advance_input(&mut self, ctx: &mut Ctx<'_>, expect_level: u8) -> Result<bool> {
        // The input mirrors the reference structure at levels >= `level`:
        // after each value it carries the same stop the reference carries.
        match self.io.peek(ctx, 0) {
            None => Ok(false),
            Some(_) => match self.io.pop(ctx, 0) {
                Token::Stop(s) if s == expect_level => {
                    self.current = None;
                    Ok(true)
                }
                other => Err(StepError::Exec(format!(
                    "expand: input out of sync, expected Stop({expect_level}), got {other}"
                ))),
            },
        }
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, budget: u64) -> Result<u64> {
        match self.io.peek(ctx, 1) {
            None => Ok(0),
            Some((_, Token::Val(_))) => {
                if self.current.is_none() {
                    match self.io.peek(ctx, 0) {
                        Some((_, Token::Val(_))) => {
                            if let Token::Val(e) = self.io.pop(ctx, 0) {
                                if let Elem::Tile(t) = &e {
                                    self.io.stats.onchip_bytes =
                                        self.io.stats.onchip_bytes.max(t.bytes());
                                }
                                self.current = Some(e);
                            }
                        }
                        Some((_, other)) => {
                            return Err(StepError::Exec(format!(
                                "expand: expected input value, got {other}"
                            )));
                        }
                        None => return Ok(0),
                    }
                }
                // Each reference value re-emits the current element at
                // its dequeue time: a whole run of references expands in
                // one bulk step.
                let allow = self.io.out_allowance(ctx, 0).min(budget);
                let Some((_, k)) = self.io.pop_run(ctx, 1, 0, allow) else {
                    return Ok(0);
                };
                let e = self.current.clone().expect("loaded above");
                let out = Token::Val(e);
                for pi in 0..self.io.popped.len() {
                    let piece = self.io.popped[pi];
                    self.io.push_run(0, piece, out.clone());
                }
                Ok(k)
            }
            Some((_, &Token::Stop(s))) => {
                if s >= self.level && !self.advance_input(ctx, s)? {
                    return Ok(0);
                }
                let _ = self.io.pop(ctx, 1);
                self.io.push(0, Token::Stop(s));
                Ok(1)
            }
            Some((_, Token::Done)) => {
                // Input should be exhausted up to its Done.
                if let Some((_, Token::Done)) = self.io.peek(ctx, 0) {
                    let _ = self.io.pop(ctx, 0);
                }
                let _ = self.io.pop(ctx, 1);
                self.io.push_done_all();
                Ok(1)
            }
        }
    }
}

impl_simnode_common!(ExpandNode);

/// `Reshape` at level 0: splits the innermost dim into `chunk`-element
/// groups, padding short tails; emits data and padding streams (Table 7).
pub struct ReshapeNode {
    io: Io,
    chunk: u64,
    pad: Option<Elem>,
    count: u64,
    pending_stop: bool,
}

impl ReshapeNode {
    pub fn new(node: &Node, chunk: u64, pad: Option<Elem>) -> ReshapeNode {
        ReshapeNode {
            io: Io::new(node),
            chunk,
            pad,
            count: 0,
            pending_stop: false,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.io.reset();
        self.count = 0;
        self.pending_stop = false;
    }

    fn pad_to_boundary(&mut self) -> Result<()> {
        if self.count == 0 {
            return Ok(());
        }
        while self.count < self.chunk {
            let pad = self.pad.clone().ok_or_else(|| {
                StepError::Exec("reshape needs padding but no pad value configured".into())
            })?;
            self.io.push(0, Token::Val(pad));
            self.io.push(1, Token::Val(Elem::Bool(true)));
            self.count += 1;
        }
        self.count = 0;
        self.pending_stop = true;
        Ok(())
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, _budget: u64) -> Result<u64> {
        if self.io.peek(ctx, 0).is_none() {
            return Ok(0);
        }
        match self.io.pop(ctx, 0) {
            Token::Val(e) => {
                if self.pending_stop {
                    self.io.push(0, Token::Stop(1));
                    self.io.push(1, Token::Stop(1));
                    self.pending_stop = false;
                }
                self.io.push(0, Token::Val(e));
                self.io.push(1, Token::Val(Elem::Bool(false)));
                self.count += 1;
                if self.count == self.chunk {
                    self.count = 0;
                    self.pending_stop = true;
                }
            }
            Token::Stop(k) => {
                self.pad_to_boundary()?;
                self.io.push(0, Token::Stop(k + 1));
                self.io.push(1, Token::Stop(k + 1));
                self.pending_stop = false;
            }
            Token::Done => {
                self.pad_to_boundary()?;
                if self.pending_stop {
                    self.io.push(0, Token::Stop(1));
                    self.io.push(1, Token::Stop(1));
                    self.pending_stop = false;
                }
                self.io.push_done_all();
            }
        }
        Ok(1)
    }
}

impl_simnode_common!(ReshapeNode);
