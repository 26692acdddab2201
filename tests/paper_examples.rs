//! The paper's worked examples as executable specifications: equation (1)
//! and Figures 2–5 are each reproduced token-for-token.

use step::core::elem::{Elem, ElemKind, Selector};
use step::core::graph::GraphBuilder;
use step::core::ops::{LinearLoadCfg, StreamifyCfg};
use step::core::shape::{Dim, StreamShape};
use step::core::tile::Tile;
use step::core::token::{self, Token};
use step::sim::{SimConfig, SimPlan};

fn addr(x: u64) -> Token {
    Token::Val(Elem::Addr(x))
}

/// Equation (1): `1,2,S1,3,S2,4,S1,5,6,7,S2,D` is a well-formed rank-2
/// stream of shape `[2, 2, D0]`, and flattening its inner dims absorbs
/// the ragged dimension into a fresh symbol.
#[test]
fn example_1_stream_and_ragged_absorption() {
    let tokens = vec![
        addr(1),
        addr(2),
        Token::Stop(1),
        addr(3),
        Token::Stop(2),
        addr(4),
        Token::Stop(1),
        addr(5),
        addr(6),
        addr(7),
        Token::Stop(2),
        Token::Done,
    ];
    let stats = token::validate(&tokens, 2).unwrap();
    assert_eq!(stats.tensors, 2);
    assert_eq!(stats.values, 7);

    // Shape [2, 2, D0~] flattened over (0,1) becomes [2, D0'~], a *new*
    // ragged symbol (the absorbing rule).
    let mut g = GraphBuilder::new();
    let d0 = g.symbols().fresh("D0");
    let shape = StreamShape::new(vec![Dim::fixed(2), Dim::fixed(2), Dim::ragged(d0.clone())]);
    let s = g.source(tokens, shape, ElemKind::Addr).unwrap();
    let f = g.flatten(&s, 0, 1).unwrap();
    assert_eq!(f.shape().rank(), 1);
    let new_dim = f.shape().dim_at_level(0);
    assert!(new_dim.is_ragged());
    assert_ne!(new_dim.expr(), step_symbolic::Expr::Sym(d0));
}

/// Fig 2: a `[64, 256]` tensor stored off-chip, tiled `64x64`, read with
/// stride `(4,1)` and shape `(1,4)`, triggered `D1` times: the output
/// stream has shape `[D1, 1, 4]` of `[64, 64]` tiles, and each trigger
/// re-reads the whole tensor.
#[test]
fn fig2_linear_offchip_load() {
    let d1 = 3u64; // a concrete draw of the dynamic dimension
    let mut g = GraphBuilder::new();
    let reference = g.unit_source(d1);
    let cfg = LinearLoadCfg::new(0x0, (64, 256), (64, 64)).with_view((4, 1), (1, 4));
    let tiles = g.linear_offchip_load(&reference, cfg).unwrap();
    assert_eq!(tiles.shape().rank(), 2);
    assert_eq!(tiles.shape().dim_at_level(1).as_static(), Some(1));
    assert_eq!(tiles.shape().dim_at_level(0).as_static(), Some(4));
    assert_eq!(tiles.kind(), &ElemKind::tile(64, 64));
    let sink = g.sink(&tiles).unwrap();
    let report = SimPlan::new(g.finish(), SimConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let toks = report.sink_tokens(sink).unwrap();
    token::validate(toks, 2).unwrap();
    let vals = toks.iter().filter(|t| t.is_val()).count();
    assert_eq!(vals as u64, d1 * 4);
    assert_eq!(report.offchip_read, d1 * 64 * 256 * 2);
}

/// Fig 3: Bufferize with rank 2 over a `[2, D~, 2]` stream yields a `[2]`
/// stream of `[D~, 2]` buffers; Streamify with a `[2, Dreg]` reference
/// re-reads each buffer `Dreg` times, producing `[2, Dreg, D~, 2]`.
#[test]
fn fig3_bufferize_streamify() {
    let mut g = GraphBuilder::new();
    let t = |v: f32| Elem::Tile(Tile::splat(1, 1, v));
    // Buffer 1 holds rows [(1,2)], buffer 2 holds rows [(3,4),(5,6)]
    // (ragged outer bufferized dim).
    let tokens = token::rank2_from_tensors(&[
        vec![vec![t(1.0), t(2.0)]],
        vec![vec![t(3.0), t(4.0)], vec![t(5.0), t(6.0)]],
    ]);
    let drag = g.symbols().fresh("Drag");
    let s = g
        .source(
            tokens,
            StreamShape::new(vec![Dim::fixed(2), Dim::ragged(drag), Dim::fixed(2)]),
            ElemKind::tile(1, 1),
        )
        .unwrap();
    let bufs = g.bufferize(&s, 2).unwrap();
    assert_eq!(bufs.shape().rank(), 0);
    let dreg = 2u64;
    let reference = g
        .source(
            token::rank1_from_groups(&vec![vec![Elem::Unit; dreg as usize]; 2]),
            StreamShape::fixed(&[2, dreg]),
            ElemKind::Unit,
        )
        .unwrap();
    let out = g
        .streamify(&bufs, &reference, StreamifyCfg::default())
        .unwrap();
    assert_eq!(out.shape().rank(), 3);
    let sink = g.sink(&out).unwrap();
    let report = SimPlan::new(g.finish(), SimConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let toks = report.sink_tokens(sink).unwrap();
    token::validate(toks, 3).unwrap();
    let vals: Vec<f32> = toks
        .iter()
        .filter_map(|tk| match tk {
            Token::Val(Elem::Tile(t)) => t.get(0, 0),
            _ => None,
        })
        .collect();
    // Each buffer streamed Dreg times.
    assert_eq!(
        vals,
        vec![1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 3.0, 4.0, 5.0, 6.0]
    );
}

/// Fig 4: Reassemble with rank 1 over 8 input streams and the selector
/// sequence `(0,7), (0,1)`. Data is drained chunk-at-a-time without
/// interleaving, and each selector element closes with an incremented
/// stop.
#[test]
fn fig4_reassemble_multi_hot() {
    let mut g = GraphBuilder::new();
    let t = |v: f32| Elem::Tile(Tile::splat(1, 1, v));
    // Streams named per the figure: 0 carries W-chunk then Z-chunk;
    // 1 carries X; 7 carries Y.
    let mut inputs = Vec::new();
    for i in 0..8u32 {
        let chunks: Vec<Vec<Elem>> = match i {
            0 => vec![vec![t(1.0), t(1.0), t(1.0)], vec![t(4.0), t(4.0)]], // W W W, Z Z
            1 => vec![vec![t(2.0)]],                                       // X
            7 => vec![vec![t(3.0), t(3.0)]],                               // Y Y
            _ => vec![],
        };
        let tokens = token::rank1_from_groups(&chunks);
        let n = chunks.len().max(1) as u64;
        let src = if chunks.is_empty() {
            g.source(
                vec![Token::Done],
                StreamShape::fixed(&[0, 1]),
                ElemKind::tile(1, 1),
            )
            .unwrap()
        } else {
            g.source(tokens, StreamShape::fixed(&[n, 3]), ElemKind::tile(1, 1))
                .unwrap()
        };
        inputs.push(src);
    }
    let sel = g
        .selector_source(vec![Selector::multi(&[0, 7]), Selector::multi(&[0, 1])], 8)
        .unwrap();
    let refs: Vec<&_> = inputs.iter().collect();
    let merged = g.reassemble(&refs, &sel, 1).unwrap();
    let sink = g.sink(&merged).unwrap();
    let report = SimPlan::new(g.finish(), SimConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let toks = report.sink_tokens(sink).unwrap();
    token::validate(toks, 2).unwrap();
    // Group 1 contains W W W and Y Y in arrival order (never interleaved),
    // group 2 contains Z Z and X. Top-level stops: one S2 per selector.
    let stops: Vec<u8> = toks.iter().filter_map(Token::stop_level).collect();
    assert_eq!(stops.iter().filter(|&&s| s == 2).count(), 2);
    let vals: Vec<f32> = toks
        .iter()
        .filter_map(|tk| match tk {
            Token::Val(Elem::Tile(t)) => t.get(0, 0),
            _ => None,
        })
        .collect();
    assert_eq!(vals.len(), 8);
    // First group: the W-chunk (3 ones) and Y-chunk (2 threes) in some
    // arrival order, not interleaved.
    let g1 = &vals[..5];
    assert!(
        g1 == [1.0, 1.0, 1.0, 3.0, 3.0] || g1 == [3.0, 3.0, 1.0, 1.0, 1.0],
        "{g1:?}"
    );
    // Second group: Z-chunk (2 fours) and X (one two).
    let g2 = &vals[5..];
    assert!(g2 == [4.0, 4.0, 2.0] || g2 == [2.0, 4.0, 4.0], "{g2:?}");
}

/// Fig 5: Expand with rank 2 repeats each input element to fill the
/// reference's `[2, D~, 2]` structure.
#[test]
fn fig5_expand() {
    let mut g = GraphBuilder::new();
    let t = |v: f32| Elem::Tile(Tile::splat(1, 1, v));
    let input = g
        .source(
            vec![
                Token::Val(t(10.0)),
                Token::Stop(2),
                Token::Val(t(20.0)),
                Token::Stop(2),
                Token::Done,
            ],
            StreamShape::fixed(&[2, 1, 1]),
            ElemKind::tile(1, 1),
        )
        .unwrap();
    let reference = g
        .source(
            token::rank2_from_tensors(&[
                vec![vec![Elem::Unit; 2]; 2], // ragged draw: 2 rows
                vec![vec![Elem::Unit; 2]; 1], // ragged draw: 1 row
            ]),
            StreamShape::fixed(&[2, 2, 2]),
            ElemKind::Unit,
        )
        .unwrap();
    let out = g.expand(&input, &reference, 2).unwrap();
    assert_eq!(out.shape().rank(), 2);
    let sink = g.sink(&out).unwrap();
    let report = SimPlan::new(g.finish(), SimConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let toks = report.sink_tokens(sink).unwrap();
    token::validate(toks, 2).unwrap();
    let vals: Vec<f32> = toks
        .iter()
        .filter_map(|tk| match tk {
            Token::Val(Elem::Tile(t)) => t.get(0, 0),
            _ => None,
        })
        .collect();
    assert_eq!(vals, vec![10.0, 10.0, 10.0, 10.0, 20.0, 20.0]);
}
