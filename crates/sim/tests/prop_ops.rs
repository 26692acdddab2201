//! Property tests on operator semantics: well-formedness is preserved by
//! every shape operator, routing roundtrips preserve values, and phantom
//! payloads are timing-identical to dense ones.
//!
//! Cases are generated by a seeded local PRNG (the build container has no
//! crates.io access, so `proptest` is unavailable); failures print the
//! case seed for replay.

use step_core::elem::{Elem, ElemKind, Selector};
use step_core::func::{EwOp, MapFn};
use step_core::graph::GraphBuilder;
use step_core::shape::StreamShape;
use step_core::tile::Tile;
use step_core::token::{self, Token};
use step_sim::{SimConfig, SimPlan};

const CASES: u64 = 48;

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

    /// Uniform integer in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Random rank-1 stream content: 1–5 groups of 1–5 scalar values.
    fn groups(&mut self) -> Vec<Vec<f32>> {
        (0..self.range(1, 6))
            .map(|_| {
                (0..self.range(1, 6))
                    .map(|_| self.range(0, 100) as f32)
                    .collect()
            })
            .collect()
    }
}

fn for_each_case(f: impl Fn(&mut Gen)) {
    for seed in 0..CASES {
        let mut g = Gen(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
        f(&mut g);
    }
}

fn tile_groups(groups: &[Vec<f32>]) -> Vec<Vec<Elem>> {
    groups
        .iter()
        .map(|g| {
            g.iter()
                .map(|&v| Elem::Tile(Tile::splat(1, 1, v)))
                .collect()
        })
        .collect()
}

fn source_rank1(g: &mut GraphBuilder, groups: &[Vec<f32>]) -> step_core::graph::StreamRef {
    let n = groups.len() as u64;
    let max = groups.iter().map(Vec::len).max().unwrap_or(1) as u64;
    g.source(
        token::rank1_from_groups(&tile_groups(groups)),
        StreamShape::fixed(&[n, max]),
        ElemKind::tile(1, 1),
    )
    .expect("well-formed source")
}

fn values_of(tokens: &[Token]) -> Vec<f32> {
    tokens
        .iter()
        .filter_map(|t| match t {
            Token::Val(Elem::Tile(t)) => t.get(0, 0),
            _ => None,
        })
        .collect()
}

#[test]
fn flatten_preserves_values_and_wellformedness() {
    for_each_case(|cg| {
        let groups = cg.groups();
        let mut g = GraphBuilder::new();
        let s = source_rank1(&mut g, &groups);
        let f = g.flatten(&s, 0, 1).unwrap();
        let sink = g.sink(&f).unwrap();
        let report = SimPlan::new(g.finish(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let toks = report.sink_tokens(sink).unwrap();
        token::validate(toks, 0).unwrap();
        let expect: Vec<f32> = groups.iter().flatten().copied().collect();
        assert_eq!(values_of(toks), expect, "groups: {groups:?}");
    });
}

#[test]
fn promote_preserves_values_and_raises_rank() {
    for_each_case(|cg| {
        let groups = cg.groups();
        let mut g = GraphBuilder::new();
        let s = source_rank1(&mut g, &groups);
        let p = g.promote(&s).unwrap();
        let sink = g.sink(&p).unwrap();
        let report = SimPlan::new(g.finish(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let toks = report.sink_tokens(sink).unwrap();
        token::validate(toks, 2).unwrap();
        let expect: Vec<f32> = groups.iter().flatten().copied().collect();
        assert_eq!(values_of(toks), expect, "groups: {groups:?}");
    });
}

#[test]
fn reshape_pads_to_chunk_multiples() {
    for_each_case(|cg| {
        let groups = cg.groups();
        let chunk = cg.range(1, 5);
        let mut g = GraphBuilder::new();
        let s = source_rank1(&mut g, &groups);
        let flat = g.flatten(&s, 0, 1).unwrap();
        let (data, padding) = g
            .reshape(&flat, chunk, Some(Elem::Tile(Tile::splat(1, 1, -1.0))))
            .unwrap();
        let dsink = g.sink(&data).unwrap();
        let psink = g.sink(&padding).unwrap();
        let report = SimPlan::new(g.finish(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let toks = report.sink_tokens(dsink).unwrap();
        token::validate(toks, 1).unwrap();
        let vals = values_of(toks);
        let n: usize = groups.iter().map(Vec::len).sum();
        // Padded to the next chunk multiple; real values come first.
        assert_eq!(vals.len(), n.div_ceil(chunk as usize) * chunk as usize);
        let expect: Vec<f32> = groups.iter().flatten().copied().collect();
        assert_eq!(&vals[..n], expect.as_slice(), "groups: {groups:?}");
        assert!(vals[n..].iter().all(|&v| v == -1.0));
        // Padding flags agree with positions.
        let flags: Vec<bool> = report
            .sink_tokens(psink)
            .unwrap()
            .iter()
            .filter_map(|t| match t {
                Token::Val(Elem::Bool(b)) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(flags.iter().filter(|&&b| b).count(), vals.len() - n);
    });
}

#[test]
fn partition_reassemble_roundtrip_preserves_order() {
    for_each_case(|cg| {
        let groups = cg.groups();
        let targets: Vec<u32> = (0..cg.range(1, 6)).map(|_| cg.range(0, 3) as u32).collect();
        let mut g = GraphBuilder::new();
        let s = source_rank1(&mut g, &groups);
        let sels: Vec<Selector> = (0..groups.len())
            .map(|i| Selector::one(targets[i % targets.len()]))
            .collect();
        let sel = g.selector_source(sels, 3).unwrap();
        let self2 = g.fork(&sel, 2).unwrap();
        let outs = g.partition(&s, &self2[0], 1, 3).unwrap();
        let refs: Vec<&_> = outs.iter().collect();
        let merged = g.reassemble(&refs, &self2[1], 1).unwrap();
        let sink = g.sink(&merged).unwrap();
        let report = SimPlan::new(g.finish(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let toks = report.sink_tokens(sink).unwrap();
        token::validate(toks, 2).unwrap();
        let expect: Vec<f32> = groups.iter().flatten().copied().collect();
        assert_eq!(
            values_of(toks),
            expect,
            "groups: {groups:?}, targets: {targets:?}"
        );
    });
}

#[test]
fn expand_static_repeats_each_value() {
    for_each_case(|cg| {
        let groups = cg.groups();
        let factor = cg.range(1, 4);
        let mut g = GraphBuilder::new();
        let s = source_rank1(&mut g, &groups);
        let e = g.expand_static(&s, factor).unwrap();
        let sink = g.sink(&e).unwrap();
        let report = SimPlan::new(g.finish(), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let toks = report.sink_tokens(sink).unwrap();
        token::validate(toks, 1).unwrap();
        let expect: Vec<f32> = groups
            .iter()
            .flatten()
            .flat_map(|&v| std::iter::repeat_n(v, factor as usize))
            .collect();
        assert_eq!(values_of(toks), expect, "groups: {groups:?}, x{factor}");
    });
}

#[test]
fn phantom_and_dense_runs_are_timing_identical() {
    for_each_case(|cg| {
        let groups = cg.groups();
        let build = |dense: bool| {
            let mut g = GraphBuilder::new();
            let elems: Vec<Vec<Elem>> = groups
                .iter()
                .map(|grp| {
                    grp.iter()
                        .map(|&v| {
                            Elem::Tile(if dense {
                                Tile::splat(4, 8, v)
                            } else {
                                Tile::phantom(4, 8)
                            })
                        })
                        .collect()
                })
                .collect();
            let n = groups.len() as u64;
            let max = groups.iter().map(Vec::len).max().unwrap_or(1) as u64;
            let s = g
                .source(
                    token::rank1_from_groups(&elems),
                    StreamShape::fixed(&[n, max]),
                    ElemKind::tile(4, 8),
                )
                .unwrap();
            let m = g.map(&s, MapFn::Elementwise(EwOp::Silu), 16).unwrap();
            g.linear_offchip_store(&m, 0x10_0000).unwrap();
            SimPlan::new(g.finish(), SimConfig::default())
                .unwrap()
                .run()
                .unwrap()
        };
        let dense = build(true);
        let phantom = build(false);
        assert_eq!(dense.cycles, phantom.cycles, "groups: {groups:?}");
        assert_eq!(dense.offchip_traffic, phantom.offchip_traffic);
        assert_eq!(dense.total_flops, phantom.total_flops);
        assert_eq!(dense.onchip_memory, phantom.onchip_memory);
    });
}
