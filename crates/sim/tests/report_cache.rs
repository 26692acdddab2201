//! Conformance suite for binding fingerprints and the report cache.
//!
//! Two families of properties:
//!
//! 1. **Fingerprint soundness** ([`RunBinding::fingerprint`]): equal
//!    bindings fingerprint equal (including across source insertion
//!    order — sources live in a `BTreeMap`), and any perturbation that
//!    can change a run's outcome — a token's value, a stream's order or
//!    length, a stop level, any one field of any element variant, a
//!    preload's address/shape/data, a deadline — changes the
//!    fingerprint.
//! 2. **Cache semantics** ([`ReportCache`]): exact hits are
//!    bit-identical `Arc` replays, concurrent misses on one key
//!    coalesce onto a single engine run, failed and panicked runs
//!    resolve their slot (waiters observe the error, the next request
//!    retries), disabled mode is a pure passthrough, and
//!    [`ReportCache::checked`] actually enforces the replay guarantee —
//!    a hit whose key does not identify what the run simulates panics
//!    instead of serving a wrong replay.

use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};
use step_core::Graph;
use step_core::elem::{BufRef, Elem, ElemKind, Selector};
use step_core::error::StepError;
use step_core::graph::{GraphBuilder, NodeId};
use step_core::shape::StreamShape;
use step_core::tile::Tile;
use step_core::token::{self, Token};
use step_sim::{
    ReportCache, ReportCacheStats, Resolution, RunBinding, SimConfig, SimPlan, SimReport,
};

/// A tiny rebindable workload: `source -> map(relu) -> sink` over 1x1
/// tiles, the same shape the plan-reuse suite uses.
fn bindable_graph(values: &[f32]) -> (Graph, NodeId) {
    use step_core::func::{EwOp, MapFn};
    let mut g = GraphBuilder::new();
    let tokens = source_tokens(values);
    let n = values.len() as u64;
    let src = g
        .source(tokens, StreamShape::fixed(&[n]), ElemKind::tile(1, 1))
        .unwrap();
    let src_id = g.node_of(&src);
    let relu = g.map(&src, MapFn::Elementwise(EwOp::Relu), 64).unwrap();
    g.sink(&relu).unwrap();
    (g.finish(), src_id)
}

fn source_tokens(values: &[f32]) -> Vec<Token> {
    token::rank0_from_values(values.iter().map(|&v| Elem::Tile(Tile::splat(1, 1, v))))
}

fn bind(src: NodeId, values: &[f32]) -> RunBinding {
    let mut b = RunBinding::new();
    b.bind_source(src, source_tokens(values));
    b
}

/// A deterministic xorshift64* stream — the suite's only entropy
/// source, so every "random" perturbation replays exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn f32(&mut self) -> f32 {
        (self.next() % 1000) as f32 / 10.0 - 50.0
    }
}

#[test]
fn equal_bindings_fingerprint_equal_across_insertion_order() {
    for seed in 1..=8u64 {
        let mut rng = Rng(seed);
        let a_vals: Vec<f32> = (0..6).map(|_| rng.f32()).collect();
        let b_vals: Vec<f32> = (0..4).map(|_| rng.f32()).collect();
        let data: Vec<f32> = (0..8).map(|_| rng.f32()).collect();
        let build = |first_a: bool| {
            let mut b = RunBinding::new();
            if first_a {
                b.bind_source(NodeId(1), source_tokens(&a_vals));
                b.bind_source(NodeId(2), source_tokens(&b_vals));
            } else {
                b.bind_source(NodeId(2), source_tokens(&b_vals));
                b.bind_source(NodeId(1), source_tokens(&a_vals));
            }
            b.preload(0x1000, 2, 4, data.clone());
            b.deadline_cycles(1_000_000);
            b
        };
        assert_eq!(
            build(true).fingerprint(),
            build(false).fingerprint(),
            "seed {seed}: source insertion order leaked into the fingerprint"
        );
        // And the fingerprint is stable across repeated computation.
        let b = build(true);
        assert_eq!(b.fingerprint(), b.fingerprint());
    }
}

#[test]
fn any_outcome_relevant_perturbation_changes_the_fingerprint() {
    for seed in 1..=16u64 {
        let mut rng = Rng(seed);
        let vals: Vec<f32> = (0..8).map(|_| rng.f32()).collect();
        let data: Vec<f32> = (0..6).map(|_| rng.f32()).collect();
        let base = {
            let mut b = RunBinding::new();
            b.bind_source(NodeId(3), source_tokens(&vals));
            b.preload(0x2000, 3, 2, data.clone());
            b
        };
        let fp = base.fingerprint();
        // Single token value.
        let mut v = vals.clone();
        let i = (rng.next() as usize) % v.len();
        v[i] += 1.0;
        let mut b = RunBinding::new();
        b.bind_source(NodeId(3), source_tokens(&v));
        b.preload(0x2000, 3, 2, data.clone());
        assert_ne!(b.fingerprint(), fp, "seed {seed}: token value perturbation");
        // Token order (swap two distinct values).
        let mut v = vals.clone();
        let (i, j) = (0usize, 1 + (rng.next() as usize) % (v.len() - 1));
        if v[i].to_bits() != v[j].to_bits() {
            v.swap(i, j);
            let mut b = RunBinding::new();
            b.bind_source(NodeId(3), source_tokens(&v));
            b.preload(0x2000, 3, 2, data.clone());
            assert_ne!(b.fingerprint(), fp, "seed {seed}: token order perturbation");
        }
        // Stream length.
        let mut b = RunBinding::new();
        b.bind_source(NodeId(3), source_tokens(&vals[..vals.len() - 1]));
        b.preload(0x2000, 3, 2, data.clone());
        assert_ne!(
            b.fingerprint(),
            fp,
            "seed {seed}: stream length perturbation"
        );
        // Bound node identity.
        let mut b = RunBinding::new();
        b.bind_source(NodeId(4), source_tokens(&vals));
        b.preload(0x2000, 3, 2, data.clone());
        assert_ne!(b.fingerprint(), fp, "seed {seed}: bound node perturbation");
        // Preload data bit, address, and shape.
        let mut d = data.clone();
        let flip = (rng.next() as usize) % d.len();
        d[flip] *= -1.0;
        for (addr, rows, cols, pd) in [
            (0x2000u64, 3usize, 2usize, d),
            (0x2004, 3, 2, data.clone()),
            (0x2000, 2, 3, data.clone()),
        ] {
            let mut b = RunBinding::new();
            b.bind_source(NodeId(3), source_tokens(&vals));
            b.preload(addr, rows, cols, pd);
            assert_ne!(b.fingerprint(), fp, "seed {seed}: preload perturbation");
        }
        // Limits are identity.
        let mut b = base.clone();
        b.deadline_cycles(10);
        assert_ne!(b.fingerprint(), fp, "seed {seed}: cycle deadline ignored");
        let mut b = base.clone();
        b.deadline_rounds(10);
        assert_ne!(b.fingerprint(), fp, "seed {seed}: round deadline ignored");
        every_element_field_is_identity(seed, &mut rng);
    }
}

/// A rank-2 stream holding every element variant — phantom and dense
/// tiles, a selector, a buffer reference, an address, a bool, unit and
/// a nested tuple — between `Stop(1)` and `Stop(2)` boundaries. Dense
/// payloads are freshly allocated on every call, so equal streams share
/// no `Arc`.
fn zoo_stream(seed: u64) -> Vec<Token> {
    let mut rng = Rng(seed);
    let dense: Vec<f32> = (0..4).map(|_| rng.f32()).collect();
    let (id, addr) = (rng.next() % 64, rng.next());
    let val = Token::Val;
    vec![
        val(Elem::Tile(Tile::phantom(2, 3))),
        val(Elem::Tile(Tile::dense(2, 2, dense))),
        Token::Stop(1),
        val(Elem::Sel(Selector::multi(&[1, 4]))),
        val(Elem::Buf(BufRef {
            id,
            dims: vec![2, 3],
        })),
        Token::Stop(2),
        val(Elem::Addr(addr)),
        val(Elem::Bool(true)),
        val(Elem::Unit),
        Token::Stop(1),
        val(Elem::Tuple(vec![
            Elem::Addr(addr),
            Elem::Tuple(vec![Elem::Bool(false), Elem::Unit]),
        ])),
        Token::Stop(2),
        Token::Done,
    ]
}

fn zoo_fingerprint(tokens: Vec<Token>) -> u64 {
    let mut b = RunBinding::new();
    b.bind_source(NodeId(3), tokens);
    b.fingerprint()
}

/// Equal streams key equal, and a change to any one field of any token
/// — a stop level, a tile's shape or payload, a selector target, a
/// buffer's id or dims, an address, a bool, a tuple's arity or nesting,
/// or an element's variant — keys differently.
fn every_element_field_is_identity(seed: u64, rng: &mut Rng) {
    let base = zoo_fingerprint(zoo_stream(seed));
    assert_eq!(
        base,
        zoo_fingerprint(zoo_stream(seed)),
        "seed {seed}: equal streams with separately allocated payloads keyed apart"
    );
    let bump = 1 + (rng.next() % 7) as u32;
    let edits: Vec<(&str, usize, Token)> = vec![
        ("stop level 1 -> 2", 2, Token::Stop(2)),
        ("stop level 2 -> 1", 5, Token::Stop(1)),
        (
            "phantom rows",
            0,
            Token::Val(Elem::Tile(Tile::phantom(4, 3))),
        ),
        (
            "phantom rows <-> cols",
            0,
            Token::Val(Elem::Tile(Tile::phantom(3, 2))),
        ),
        (
            "phantom -> dense of one shape",
            0,
            Token::Val(Elem::Tile(Tile::zeros(2, 3))),
        ),
        (
            "dense -> phantom of one shape",
            1,
            Token::Val(Elem::Tile(Tile::phantom(2, 2))),
        ),
        (
            "selector target",
            3,
            Token::Val(Elem::Sel(Selector::multi(&[1, 4 + bump]))),
        ),
        (
            "selector length",
            3,
            Token::Val(Elem::Sel(Selector::multi(&[1]))),
        ),
        ("bool", 7, Token::Val(Elem::Bool(false))),
        (
            "unit -> empty tuple",
            8,
            Token::Val(Elem::Tuple(Vec::new())),
        ),
        ("unit -> bool", 8, Token::Val(Elem::Bool(false))),
    ];
    for (what, at, token) in edits {
        let mut tokens = zoo_stream(seed);
        tokens[at] = token;
        assert_ne!(zoo_fingerprint(tokens), base, "seed {seed}: {what}");
    }
    // Field edits in place, so the rest of each element is untouched.
    type Edit = fn(&mut Elem, u64);
    let in_place: Vec<(&str, usize, Edit)> = vec![
        ("dense value bit", 1, |e, _| {
            if let Elem::Tile(t) = e {
                let mut v = t.values().unwrap().to_vec();
                v[0] = f32::from_bits(v[0].to_bits() ^ 1);
                *t = Tile::dense(2, 2, v);
            }
        }),
        ("buffer id", 4, |e, k| {
            if let Elem::Buf(b) = e {
                b.id += k;
            }
        }),
        ("buffer dim", 4, |e, k| {
            if let Elem::Buf(b) = e {
                b.dims[1] += k;
            }
        }),
        ("buffer rank", 4, |e, _| {
            if let Elem::Buf(b) = e {
                b.dims.push(1);
            }
        }),
        ("buffer -> address of its id", 4, |e, _| {
            if let Elem::Buf(b) = e {
                *e = Elem::Addr(b.id);
            }
        }),
        ("address", 6, |e, k| {
            if let Elem::Addr(a) = e {
                *a ^= k;
            }
        }),
        ("address -> rank-0 buffer of it", 6, |e, _| {
            if let Elem::Addr(a) = e {
                *e = Elem::Buf(BufRef {
                    id: *a,
                    dims: Vec::new(),
                });
            }
        }),
        ("nested tuple field", 10, |e, _| {
            if let Elem::Tuple(items) = e
                && let Elem::Tuple(inner) = &mut items[1]
            {
                inner[0] = Elem::Bool(true);
            }
        }),
        ("tuple arity", 10, |e, _| {
            if let Elem::Tuple(items) = e {
                items.pop();
            }
        }),
        ("tuple flattened", 10, |e, _| {
            if let Elem::Tuple(items) = e
                && let Some(Elem::Tuple(inner)) = items.pop()
            {
                items.extend(inner);
            }
        }),
        ("nested tuple boundary", 10, |e, _| {
            // (a, (b, unit)) -> (a, (b), unit): the same leaves in the
            // same order, only a tuple's extent moved.
            if let Elem::Tuple(items) = e
                && let Some(Elem::Tuple(inner)) = items.last_mut()
                && let Some(last) = inner.pop()
            {
                items.push(last);
            }
        }),
    ];
    for (what, at, edit) in in_place {
        let mut tokens = zoo_stream(seed);
        let Token::Val(e) = &mut tokens[at] else {
            panic!("token {at} is not a value");
        };
        edit(e, bump.into());
        assert_ne!(zoo_fingerprint(tokens), base, "seed {seed}: {what}");
    }
    // Moving a boundary keeps every token's fields but not the stream.
    let mut tokens = zoo_stream(seed);
    tokens.swap(1, 2);
    assert_ne!(zoo_fingerprint(tokens), base, "seed {seed}: stop position");
}

/// Host-side pool counters aside, a replay must be the same report.
fn assert_bit_identical(a: &SimReport, b: &SimReport) {
    let norm = |r: &SimReport| SimReport {
        run_allocs: 0,
        pool_resets: 0,
        ..r.clone()
    };
    assert_eq!(norm(a), norm(b));
}

#[test]
fn exact_hits_replay_bit_identical_and_counters_pin() {
    let (graph, src) = bindable_graph(&[1.0, -2.0, 3.0, -4.0]);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    let cache = ReportCache::new();
    let key = 0x51;
    let binding = bind(src, &[5.0, -6.0, 7.0, -8.0]);
    let mut run = || plan.run_with(&binding, None);
    let first = cache.replay_or_run(key, &binding, &mut run).unwrap();
    assert_eq!(first.resolution, Resolution::Simulated);
    let second = cache.replay_or_run(key, &binding, &mut run).unwrap();
    assert_eq!(second.resolution, Resolution::Exact);
    // The hit is the *same* stored report, not a re-run.
    assert!(Arc::ptr_eq(&first.report, &second.report));
    assert_bit_identical(&first.report, &plan.run_with(&binding, None).unwrap());
    // A different binding under the same plan key is its own entry.
    let other = bind(src, &[9.0, -1.0, 2.0, -3.0]);
    let got = cache
        .replay_or_run(key, &other, &mut || plan.run_with(&other, None))
        .unwrap();
    assert_eq!(got.resolution, Resolution::Simulated);
    // A different *plan* key never aliases: same binding, fresh miss.
    let got = cache.replay_or_run(0x52, &binding, &mut run).unwrap();
    assert_eq!(got.resolution, Resolution::Simulated);
    assert_eq!(cache.stats(), ReportCacheStats { hits: 1, misses: 3 });
    assert_eq!(cache.len(), 3);
}

#[test]
fn concurrent_misses_coalesce_onto_one_engine_run() {
    let (graph, src) = bindable_graph(&[1.0, 2.0]);
    let plan = Arc::new(SimPlan::new(graph, SimConfig::default()).unwrap());
    let cache = Arc::new(ReportCache::new());
    let binding = Arc::new(bind(src, &[3.0, -4.0]));
    let runs = Arc::new(AtomicU64::new(0));
    const REQUESTERS: usize = 8;
    std::thread::scope(|sc| {
        for _ in 0..REQUESTERS {
            let (cache, plan, binding, runs) = (
                Arc::clone(&cache),
                Arc::clone(&plan),
                Arc::clone(&binding),
                Arc::clone(&runs),
            );
            sc.spawn(move || {
                let got = cache
                    .replay_or_run(0x7, &binding, &mut || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window so waiters actually
                        // coalesce instead of arriving after resolution.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        plan.run_with(&binding, None)
                    })
                    .unwrap();
                assert!(matches!(
                    got.resolution,
                    Resolution::Exact | Resolution::Simulated
                ));
            });
        }
    });
    // However the scheduler interleaved the eight requests, exactly one
    // of them ran the engine, and every request resolved as one hit or
    // one miss.
    let stats = cache.stats();
    assert_eq!(runs.load(Ordering::Relaxed), stats.misses);
    assert_eq!(stats.hits + stats.misses, REQUESTERS as u64);
}

#[test]
fn failures_propagate_and_the_next_request_retries() {
    let (graph, src) = bindable_graph(&[1.0]);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    let cache = ReportCache::new();
    let binding = bind(src, &[2.0]);
    let err = cache.replay_or_run(0x9, &binding, &mut || {
        Err(StepError::Config("injected".into()))
    });
    assert!(matches!(err, Err(StepError::Config(_))));
    // The failure is not sticky for new requests: the retry simulates.
    let got = cache
        .replay_or_run(0x9, &binding, &mut || plan.run_with(&binding, None))
        .unwrap();
    assert_eq!(got.resolution, Resolution::Simulated);
    // And the recovered slot serves hits again.
    let hit = cache
        .replay_or_run(0x9, &binding, &mut || plan.run_with(&binding, None))
        .unwrap();
    assert_eq!(hit.resolution, Resolution::Exact);
    assert_eq!(cache.stats(), ReportCacheStats { hits: 1, misses: 2 });
}

#[test]
fn panicking_runs_become_typed_errors_not_hangs() {
    let (graph, src) = bindable_graph(&[1.0]);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    let cache = ReportCache::new();
    let binding = bind(src, &[2.0]);
    let err = cache.replay_or_run(0xA, &binding, &mut || {
        panic!("injected panic in engine run")
    });
    match err {
        Err(StepError::Panicked(msg)) => assert!(msg.contains("injected panic")),
        other => panic!("expected Panicked, got {other:?}"),
    }
    let got = cache
        .replay_or_run(0xA, &binding, &mut || plan.run_with(&binding, None))
        .unwrap();
    assert_eq!(got.resolution, Resolution::Simulated);
}

#[test]
fn disabled_mode_is_a_pure_passthrough() {
    let (graph, src) = bindable_graph(&[1.0, 2.0]);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    let cache = ReportCache::disabled();
    let binding = bind(src, &[3.0, 4.0]);
    for _ in 0..3 {
        let got = cache
            .replay_or_run(0xB, &binding, &mut || plan.run_with(&binding, None))
            .unwrap();
        assert_eq!(got.resolution, Resolution::Simulated);
    }
    assert_eq!(cache.stats(), ReportCacheStats::default());
    assert!(cache.is_empty());
}

#[test]
fn checked_mode_refutes_a_key_that_does_not_identify_its_run() {
    // A run closure that simulates a different binding than the one it
    // is keyed under: enabled mode would happily serve the first run's
    // report for the second request — checked mode re-simulates the hit
    // and must panic instead.
    let (graph, src) = bindable_graph(&[1.0, 2.0, 3.0, 4.0]);
    let plan = SimPlan::new(graph, SimConfig::default()).unwrap();
    let keyed = bind(src, &[1.0, 2.0, 3.0, 4.0]);
    let simulated = bind(src, &[1.0, 2.0]);
    let cache = ReportCache::checked();
    cache
        .replay_or_run(0x11, &keyed, &mut || plan.run_with(&keyed, None))
        .unwrap();
    let refuted = catch_unwind(AssertUnwindSafe(|| {
        cache.replay_or_run(0x11, &keyed, &mut || plan.run_with(&simulated, None))
    }));
    assert!(
        refuted.is_err(),
        "checked mode served a hit that diverged from re-simulation"
    );
}
