//! Property tests for the token-stream algebra: seeded generators build
//! random nested `Stop(k)`/`Done` streams and assert that
//!
//! - `Promote` then `Flatten` over the added dimension is the identity on
//!   token streams (the shape-operator round-trip of Table 7),
//! - the round-trip survives capacity-1 channels (backpressure, port
//!   staging) and sharded parallel execution unchanged, and
//! - an early consumer close (a `Reassemble` whose selector never picks
//!   an input) drops undelivered tokens without corrupting the stream.
//!
//! Cases come from a seeded local PRNG (the build container has no
//! crates.io access, so `proptest` is unavailable); failures print the
//! case seed for replay.

use step_core::elem::{Elem, ElemKind, Selector};
use step_core::graph::GraphBuilder;
use step_core::shape::{Dim, StreamShape};
use step_core::token::{self, Token};
use step_sim::{SimConfig, SimPlan};

const CASES: u64 = 32;

/// SplitMix64-based case generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// Emits one rank-`rank` tensor's worth of tokens (values and stops
/// strictly below `rank`).
fn gen_tensor(g: &mut Gen, rank: u8, out: &mut Vec<Token>, next_val: &mut u64) {
    if rank == 0 {
        out.push(Token::Val(Elem::Addr(*next_val)));
        *next_val += 1;
        return;
    }
    let slices = g.range(1, 4);
    for s in 0..slices {
        gen_tensor(g, rank - 1, out, next_val);
        // Slices below level 1 concatenate without separators (values
        // inside a rank-1 tensor carry no stops).
        if s + 1 < slices && rank >= 2 {
            out.push(Token::Stop(rank - 1));
        }
    }
}

/// A random well-formed rank-`rank` stream: tensors separated by
/// `Stop(rank)`, terminated by `Done`.
fn gen_stream(g: &mut Gen, rank: u8) -> Vec<Token> {
    let mut out = Vec::new();
    let mut next_val = 0;
    let tensors = g.range(1, 5);
    for _ in 0..tensors {
        gen_tensor(g, rank, &mut out, &mut next_val);
        // Top-level stops terminate every tensor (eq. 1: `…,S2,D`);
        // only the levels below separate.
        if rank > 0 {
            out.push(Token::Stop(rank));
        }
    }
    out.push(Token::Done);
    token::validate(&out, rank).expect("generator emits well-formed streams");
    out
}

/// A rank-`rank` shape of all-ragged dimensions (nothing checked
/// statically; contents carry the structure).
fn ragged_shape(g: &mut GraphBuilder, rank: u8) -> StreamShape {
    let dims = (0..=rank)
        .map(|_| Dim::ragged(g.symbols().fresh("P")))
        .collect();
    StreamShape::new(dims)
}

fn for_each_case(f: impl Fn(&mut Gen, u64)) {
    for seed in 0..CASES {
        let mut g = Gen(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        f(&mut g, seed);
    }
}

/// Builds source → promote → flatten(rank, rank+1) → sink and returns the
/// recorded stream.
fn promote_flatten_roundtrip(
    tokens: Vec<Token>,
    rank: u8,
    tight_channels: bool,
    sim_cfg: SimConfig,
) -> Vec<Token> {
    let mut g = GraphBuilder::new();
    let shape = ragged_shape(&mut g, rank);
    let s = g.source(tokens, shape, ElemKind::Addr).unwrap();
    if tight_channels {
        g.set_capacity(&s, 1);
    }
    let p = g.promote(&s).unwrap();
    if tight_channels {
        g.set_capacity(&p, 1);
    }
    let f = g.flatten(&p, rank, rank + 1).unwrap();
    if tight_channels {
        g.set_capacity(&f, 1);
    }
    let sink = g.sink(&f).unwrap();
    let report = SimPlan::new(g.finish(), sim_cfg).unwrap().run().unwrap();
    report.sink_tokens(sink).unwrap().to_vec()
}

#[test]
fn promote_flatten_is_identity_on_streams() {
    for_each_case(|g, seed| {
        let rank = g.range(0, 3) as u8;
        let tokens = gen_stream(g, rank);
        let out = promote_flatten_roundtrip(tokens.clone(), rank, false, SimConfig::default());
        assert_eq!(out, tokens, "seed {seed} rank {rank}");
    });
}

#[test]
fn roundtrip_survives_backpressure_and_sharding() {
    for_each_case(|g, seed| {
        let rank = g.range(0, 3) as u8;
        let tokens = gen_stream(g, rank);
        // Capacity-1 channels force every backpressure/staging path; the
        // forced 3-shard plan on 2 threads adds cross-shard credits.
        let cfg = SimConfig {
            threads: 2,
            shards: 3,
            ..SimConfig::default()
        };
        let out = promote_flatten_roundtrip(tokens.clone(), rank, true, cfg);
        assert_eq!(out, tokens, "seed {seed} rank {rank}");
        token::validate(&out, rank).unwrap();
    });
}

#[test]
fn early_consumer_close_preserves_well_formedness() {
    // A Reassemble whose selector only ever picks input 0 finishes while
    // input 1 still holds (and keeps producing) tokens; the close must
    // drop them without disturbing the committed output stream.
    for_each_case(|g, seed| {
        let chunks = g.range(1, 4) as usize;
        let groups_a: Vec<Vec<Elem>> = (0..chunks)
            .map(|c| {
                (0..g.range(1, 4))
                    .map(|v| Elem::Addr((c as u64) << 8 | v))
                    .collect()
            })
            .collect();
        let groups_b: Vec<Vec<Elem>> = vec![vec![Elem::Addr(0xdead); 3]; chunks + 2];
        let mut gb = GraphBuilder::new();
        let shape_a = StreamShape::new(vec![
            Dim::ragged(gb.symbols().fresh("A")),
            Dim::ragged(gb.symbols().fresh("A")),
        ]);
        let shape_b = StreamShape::new(vec![
            Dim::ragged(gb.symbols().fresh("B")),
            Dim::ragged(gb.symbols().fresh("B")),
        ]);
        let a = gb
            .source(token::rank1_from_groups(&groups_a), shape_a, ElemKind::Addr)
            .unwrap();
        let b = gb
            .source(token::rank1_from_groups(&groups_b), shape_b, ElemKind::Addr)
            .unwrap();
        gb.set_capacity(&b, 1);
        let sel = gb
            .selector_source(vec![Selector::one(0); chunks], 2)
            .unwrap();
        let out = gb.reassemble(&[&a, &b], &sel, 1).unwrap();
        let sink = gb.sink(&out).unwrap();
        let report = SimPlan::new(gb.finish(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let toks = report.sink_tokens(sink).unwrap();
        token::validate(toks, 2)
            .unwrap_or_else(|e| panic!("seed {seed}: malformed output after early close: {e}"));
        let vals: Vec<&Elem> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Val(e) => Some(e),
                _ => None,
            })
            .collect();
        let expect: Vec<&Elem> = groups_a.iter().flatten().collect();
        assert_eq!(vals, expect, "seed {seed}: committed values disturbed");
    });
}
