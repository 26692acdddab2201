//! Property tests for `step_core::partition` invariants: seeded
//! generators build random multi-fragment graphs (fan-out pipelines,
//! bufferize/streamify pairs, wide tile loads, all hanging off a shared
//! trigger fork) and assert, for random partition configurations, that
//!
//! - every shard is a connected subgraph,
//! - buffer-reference edges (shared arenas) are never cut,
//! - the shard node-sets exactly partition the graph, with shard ids
//!   dense and assigned in order of each shard's minimum node index,
//! - the per-shard cut metadata (`cut_ins_of`/`cut_outs_of`/`cut_volume`)
//!   is exactly consistent with `cut_edges`,
//! - small graphs round-trip through [`Partition::monolithic`], and
//! - the partition is invariant under permuted fragment insertion order
//!   (compared through each node's insertion-independent logical label).
//!
//! Cases come from a seeded local PRNG in the PR-1 style (the build
//! container has no crates.io access, so `proptest` is unavailable);
//! failures print the case seed for replay.

use step_core::elem::{Elem, ElemKind};
use step_core::graph::{Graph, GraphBuilder, StreamRef};
use step_core::ops::{LinearLoadCfg, StreamifyCfg};
use step_core::partition::{Partition, PartitionCfg, partition};
use step_core::shape::StreamShape;
use step_core::token;

const CASES: u64 = 24;

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

/// One generated subgraph hanging off its slot of the shared trigger
/// fork. Every fragment consumes its trigger and terminates all its
/// streams, so `GraphBuilder::finish` appends no auto-sinks and each
/// fragment's nodes occupy a contiguous, size-predictable index range.
#[derive(Clone)]
enum Frag {
    /// Trigger forked `ways` wide, each way a load→store pipeline over an
    /// `ms`-shaped tensor (the tile-volume edges that must not be cut).
    Pipelines { ways: u64, ms: (u64, u64) },
    /// A bufferize/streamify pair over its own sources (arena-sharing
    /// buffer edge, never cut); the trigger is sunk.
    BufferPair,
    /// A single load→store chain.
    Chain { ms: (u64, u64) },
}

impl Frag {
    fn generate(g: &mut Gen) -> Frag {
        let shapes = [(16, 16), (16, 64), (64, 64), (64, 256)];
        let ms = shapes[g.range(0, shapes.len() as u64) as usize];
        match g.range(0, 3) {
            0 => Frag::Pipelines {
                ways: g.range(2, 5),
                ms,
            },
            1 => Frag::BufferPair,
            _ => Frag::Chain { ms },
        }
    }

    /// Nodes this fragment inserts (fork + per-way load/store, etc.).
    fn node_count(&self) -> usize {
        match self {
            Frag::Pipelines { ways, .. } => 1 + 2 * *ways as usize,
            Frag::BufferPair => 6,
            Frag::Chain { .. } => 2,
        }
    }

    /// Builds the fragment; `id` keys off-chip addresses to the logical
    /// fragment, not its insertion position.
    fn build(&self, g: &mut GraphBuilder, id: usize, trigger: &StreamRef) {
        let base = 0x100_0000 * (id as u64 + 1);
        match self {
            Frag::Pipelines { ways, ms } => {
                let forks = g.fork(trigger, *ways as u32).unwrap();
                for (w, f) in forks.iter().enumerate() {
                    let tiles = g
                        .linear_offchip_load(f, LinearLoadCfg::new(base, *ms, (16, 16)))
                        .unwrap();
                    g.linear_offchip_store(&tiles, base + 0x10_0000 * (w as u64 + 1))
                        .unwrap();
                }
            }
            Frag::BufferPair => {
                g.sink(trigger).unwrap();
                let groups: Vec<Vec<Elem>> =
                    vec![vec![Elem::Tile(step_core::tile::Tile::phantom(4, 4)); 2]; 2];
                let s = g
                    .source(
                        token::rank1_from_groups(&groups),
                        StreamShape::fixed(&[2, 2]),
                        ElemKind::tile(4, 4),
                    )
                    .unwrap();
                let bufs = g.bufferize(&s, 1).unwrap();
                let r = g
                    .source(
                        token::rank1_from_groups(&[vec![Elem::Unit], vec![Elem::Unit]]),
                        StreamShape::fixed(&[2, 1]),
                        ElemKind::Unit,
                    )
                    .unwrap();
                let out = g.streamify(&bufs, &r, StreamifyCfg::default()).unwrap();
                g.linear_offchip_store(&out, base).unwrap();
            }
            Frag::Chain { ms } => {
                let tiles = g
                    .linear_offchip_load(trigger, LinearLoadCfg::new(base, *ms, (16, 16)))
                    .unwrap();
                g.linear_offchip_store(&tiles, base + 0x10_0000).unwrap();
            }
        }
    }
}

/// Builds the graph inserting fragments in `order`, returning it plus
/// each node's insertion-independent logical label `(fragment, offset)`
/// (the shared trigger prelude uses fragment `usize::MAX`).
fn build(frags: &[Frag], order: &[usize]) -> (Graph, Vec<(usize, usize)>) {
    let mut g = GraphBuilder::new();
    let trig = g.unit_source(1);
    let forks = g.fork(&trig, frags.len() as u32).unwrap();
    let mut label_of: Vec<(usize, usize)> = vec![(usize::MAX, 0), (usize::MAX, 1)];
    for &f in order {
        frags[f].build(&mut g, f, &forks[f]);
        for off in 0..frags[f].node_count() {
            label_of.push((f, off));
        }
    }
    let graph = g.finish();
    assert_eq!(
        graph.nodes().len(),
        label_of.len(),
        "fragments must terminate every stream (no auto-sinks)"
    );
    (graph, label_of)
}

/// The partition as an insertion-order-independent value: the sorted set
/// of shards, each the sorted set of its nodes' logical labels.
fn canonical(p: &Partition, label_of: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut groups: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p.shards];
    for (i, &s) in p.shard_of.iter().enumerate() {
        groups[s as usize].push(label_of[i]);
    }
    for gr in &mut groups {
        gr.sort_unstable();
    }
    groups.sort();
    groups
}

fn gen_case(seed: u64) -> (Vec<Frag>, PartitionCfg) {
    let mut g = Gen(seed);
    let frags: Vec<Frag> = (0..g.range(3, 8)).map(|_| Frag::generate(&mut g)).collect();
    let cfg = PartitionCfg {
        target_shards: g.range(2, 9) as usize,
        min_nodes: 0,
        balance_slack: [1.0, 1.2, 1.5][g.range(0, 3) as usize],
    };
    (frags, cfg)
}

#[test]
fn shards_partition_the_graph_and_are_connected() {
    for seed in 0..CASES {
        let (frags, cfg) = gen_case(seed);
        let order: Vec<usize> = (0..frags.len()).collect();
        let (graph, _) = build(&frags, &order);
        let p = partition(&graph, &cfg);
        let n = graph.nodes().len();

        // Exact partition of the node set, dense shard ids assigned in
        // order of each shard's minimum node index.
        assert_eq!(p.shard_of.len(), n, "seed {seed}");
        let mut first_node_of = vec![usize::MAX; p.shards];
        for (i, &s) in p.shard_of.iter().enumerate() {
            assert!(
                (s as usize) < p.shards,
                "seed {seed}: shard id out of range"
            );
            let slot = &mut first_node_of[s as usize];
            if *slot == usize::MAX {
                *slot = i;
            }
        }
        assert!(
            first_node_of.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: shard ids not ordered by minimum node index: {first_node_of:?}"
        );

        // Every shard is connected over its intra-shard edges (viewed
        // undirected).
        let mut adj = vec![Vec::new(); n];
        for e in graph.edges() {
            let Some((dst, _)) = e.dst else { continue };
            let (a, b) = (e.src.0.0 as usize, dst.0 as usize);
            if p.shard_of[a] == p.shard_of[b] {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for s in 0..p.shards {
            let members: Vec<usize> = (0..n).filter(|&i| p.shard_of[i] == s as u32).collect();
            let mut seen = vec![false; n];
            let mut stack = vec![members[0]];
            seen[members[0]] = true;
            while let Some(i) = stack.pop() {
                for &j in &adj[i] {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
            assert!(
                members.iter().all(|&i| seen[i]),
                "seed {seed}: shard {s} is disconnected"
            );
        }
    }
}

#[test]
fn buffer_edges_are_never_cut_and_cut_metadata_is_consistent() {
    for seed in 0..CASES {
        let (frags, cfg) = gen_case(seed);
        let order: Vec<usize> = (0..frags.len()).collect();
        let (graph, _) = build(&frags, &order);
        let p = partition(&graph, &cfg);

        for (i, e) in graph.edges().iter().enumerate() {
            if matches!(*e.kind, ElemKind::Buffer { .. })
                && let Some((dst, _)) = e.dst
            {
                assert_eq!(
                    p.shard_of[e.src.0.0 as usize], p.shard_of[dst.0 as usize],
                    "seed {seed}: buffer edge {i} cut"
                );
            }
        }

        assert_eq!(p.cut_volume.len(), p.cut_edges.len(), "seed {seed}");
        assert_eq!(p.cut_ins_of.len(), p.shards, "seed {seed}");
        assert_eq!(p.cut_outs_of.len(), p.shards, "seed {seed}");
        let mut ins: Vec<_> = p.cut_ins_of.iter().flatten().copied().collect();
        let mut outs: Vec<_> = p.cut_outs_of.iter().flatten().copied().collect();
        ins.sort();
        outs.sort();
        assert_eq!(ins, p.cut_edges, "seed {seed}: cut_ins_of mismatch");
        assert_eq!(outs, p.cut_edges, "seed {seed}: cut_outs_of mismatch");
        for e in &p.cut_edges {
            let edge = graph.edge(*e);
            let (ws, rs) = (
                p.shard_of[edge.src.0.0 as usize],
                p.shard_of[edge.dst.unwrap().0.0 as usize],
            );
            assert_ne!(ws, rs, "seed {seed}: cut edge {e:?} is intra-shard");
            assert!(p.cut_outs_of[ws as usize].contains(e), "seed {seed}");
            assert!(p.cut_ins_of[rs as usize].contains(e), "seed {seed}");
        }
    }
}

#[test]
fn small_graphs_round_trip_through_monolithic() {
    for seed in 0..CASES {
        let (frags, mut cfg) = gen_case(seed);
        let order: Vec<usize> = (0..frags.len()).collect();
        let (graph, _) = build(&frags, &order);
        // Below the min-nodes threshold the partition must be exactly
        // the monolithic one.
        cfg.min_nodes = graph.nodes().len() + 1;
        let p = partition(&graph, &cfg);
        assert_eq!(p, Partition::monolithic(&graph), "seed {seed}");
        assert_eq!(p.shards, 1);
        assert!(p.cut_edges.is_empty());
        assert!(p.cut_volume.is_empty());
        assert_eq!(p.cut_ins_of, vec![Vec::new()]);
        assert_eq!(p.cut_outs_of, vec![Vec::new()]);
        assert!(p.shard_of.iter().all(|&s| s == 0));
    }
}

#[test]
fn partition_is_invariant_under_fragment_insertion_order() {
    for seed in 0..CASES {
        let (frags, cfg) = gen_case(seed);
        let identity: Vec<usize> = (0..frags.len()).collect();
        // Seeded Fisher–Yates shuffle of the insertion order.
        let mut shuffled = identity.clone();
        let mut g = Gen(seed ^ 0xDEAD_BEEF);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, g.range(0, i as u64 + 1) as usize);
        }
        let (graph_a, labels_a) = build(&frags, &identity);
        let (graph_b, labels_b) = build(&frags, &shuffled);
        let pa = partition(&graph_a, &cfg);
        let pb = partition(&graph_b, &cfg);
        assert_eq!(
            canonical(&pa, &labels_a),
            canonical(&pb, &labels_b),
            "seed {seed}: partition depends on insertion order (order {shuffled:?})"
        );
        assert_eq!(pa.cut_edges.len(), pb.cut_edges.len(), "seed {seed}");
    }
}
