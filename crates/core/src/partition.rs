//! Graph partitioning for sharded simulation.
//!
//! Splits a program graph into connected shards so the simulator can run
//! each shard's scheduler on its own worker. The cut heuristic follows the
//! §4.3 execution model: operators decouple across bounded latency-carrying
//! FIFOs, so the best places to cut are *high-slack* channels — streams
//! that carry few tokens relative to the work on either side (a routed
//! expert assignment, a load trigger), where one barrier of extra credit
//! latency is invisible. Channels carrying dense tile traffic (weight
//! streams, activation chunks) are kept inside a shard.
//!
//! The token-volume estimate comes from the symbolic shape metrics of
//! §4.2: the stream's [`StreamShape::cardinality`] with a fixed default
//! substituted for dynamic dimensions. Buffer-reference streams are never
//! cut — `Bufferize`/`Streamify` pairs share an on-chip arena, which stays
//! shard-local.
//!
//! The partition is a pure function of the graph and
//! [`PartitionCfg`] — it never depends on worker count or host timing, so
//! a simulation's committed execution order (and therefore every reported
//! metric) is reproducible at any thread count.

use crate::elem::ElemKind;
use crate::graph::{EdgeId, Graph};
use crate::shape::StreamShape;

/// Assumed extent of a dynamic or ragged dimension when estimating stream
/// volume (the partitioner only needs relative magnitudes).
const DEFAULT_DYN_EXTENT: u64 = 8;

/// Tuning knobs for [`partition`].
#[derive(Debug, Clone)]
pub struct PartitionCfg {
    /// Target number of shards. The result may have more (balance caps
    /// can stop merges early) or fewer (small graphs); every shard is a
    /// connected subgraph.
    pub target_shards: usize,
    /// Graphs with fewer nodes than this stay monolithic (one shard).
    pub min_nodes: usize,
    /// Balance slack: no shard may exceed `ceil(nodes * slack /
    /// target_shards)` nodes (buffer-edge merges excepted).
    pub balance_slack: f64,
}

impl Default for PartitionCfg {
    fn default() -> Self {
        PartitionCfg {
            target_shards: 16,
            min_nodes: 256,
            balance_slack: 1.2,
        }
    }
}

/// A partition of a graph's nodes into connected shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Shard index per node, indexed like `graph.nodes()`.
    pub shard_of: Vec<u32>,
    /// Number of shards.
    pub shards: usize,
    /// Edges whose endpoints live in different shards, ascending.
    pub cut_edges: Vec<EdgeId>,
    /// Per shard, the cut edges whose *reader* (destination) lives in
    /// that shard, ascending. These are the only channels on which a
    /// shard can receive tokens from outside, so their time floors bound
    /// how far the shard may run ahead of the global horizon without a
    /// coordination barrier (the engine's barrier-elision check).
    pub cut_ins_of: Vec<Vec<EdgeId>>,
    /// Per shard, the cut edges whose *writer* (source) lives in that
    /// shard, ascending.
    pub cut_outs_of: Vec<Vec<EdgeId>>,
    /// Estimated token volume per entry of [`Partition::cut_edges`] (the
    /// agglomeration key): low volume = high slack = a cheap cut. Kept
    /// for diagnostics and scheduling heuristics.
    pub cut_volume: Vec<u64>,
}

impl Partition {
    /// The trivial single-shard partition.
    pub fn monolithic(graph: &Graph) -> Partition {
        Partition {
            shard_of: vec![0; graph.nodes().len()],
            shards: 1,
            cut_edges: Vec::new(),
            cut_ins_of: vec![Vec::new()],
            cut_outs_of: vec![Vec::new()],
            cut_volume: Vec::new(),
        }
    }
}

/// Estimated number of tokens a stream carries: the symbolic cardinality
/// with [`DEFAULT_DYN_EXTENT`] substituted for every dynamic dimension,
/// saturating. Higher volume = stronger affinity = worse cut.
fn volume_estimate(shape: &StreamShape) -> u64 {
    let mut v: u64 = 1;
    for d in shape.dims() {
        let extent = match d.as_static() {
            Some(n) => n.max(1),
            None => DEFAULT_DYN_EXTENT,
        };
        v = v.saturating_mul(extent);
    }
    v
}

/// FNV-1a accumulation (explicitly seeded — `DefaultHasher` is randomly
/// keyed per process and would break run-to-run determinism).
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Canonical structural ranks per node: Weisfeiler–Leman-style
/// refinement seeded with each node's operator fingerprint (its `Debug`
/// form, which includes configuration such as base addresses) and folded
/// over `log n` rounds of port-ordered neighborhood hashes. Two nodes get
/// the same rank only if their rooted neighborhoods are indistinguishable
/// — so ranks are invariant under graph-isomorphic reorderings of node
/// insertion, and the partitioner's tie-breaks on them make the whole
/// partition a function of the *abstract* graph, not its encoding.
/// (Genuinely automorphic nodes share a rank and fall back to node-id
/// order — no structural comparison can observe that choice.)
fn structural_ranks(graph: &Graph) -> Vec<u32> {
    let n = graph.nodes().len();
    let seed = 0xCBF2_9CE4_8422_2325u64;
    let mut h: Vec<u64> = graph
        .nodes()
        .iter()
        .map(|nd| {
            let mut x = seed;
            // The operator fingerprint: its configuration's Debug form —
            // except sources, whose config embeds the whole
            // pre-materialized token stream (a routing trace can be the
            // bulk of the graph); their stream length is fingerprint
            // enough, and the refinement rounds fold in their consumers'
            // fingerprints anyway.
            match &nd.op {
                crate::ops::OpKind::Source(cfg) => {
                    fnv(&mut x, b"Source");
                    fnv(&mut x, &(cfg.tokens.len() as u64).to_le_bytes());
                    fnv(&mut x, &cfg.tokens_per_cycle.to_le_bytes());
                }
                op => fnv(&mut x, format!("{op:?}").as_bytes()),
            }
            x
        })
        .collect();
    let rounds = (usize::BITS - n.leading_zeros()) as usize + 1;
    for _ in 0..rounds {
        let mut next = vec![0u64; n];
        for (i, nd) in graph.nodes().iter().enumerate() {
            let mut x = h[i];
            for (dir, edges) in [(0u8, &nd.inputs), (1u8, &nd.outputs)] {
                for (port, e) in edges.iter().enumerate() {
                    let edge = graph.edge(*e);
                    let peer = if dir == 0 {
                        h[edge.src.0.0 as usize]
                    } else {
                        edge.dst.map_or(0, |(d, _)| h[d.0 as usize])
                    };
                    let mut t = seed;
                    fnv(&mut t, &[dir]);
                    fnv(&mut t, &(port as u64).to_le_bytes());
                    fnv(&mut t, &peer.to_le_bytes());
                    fnv(&mut t, &volume_estimate(&edge.shape).to_le_bytes());
                    x = x.wrapping_mul(0x0000_0100_0000_01B3) ^ t;
                }
            }
            next[i] = x;
        }
        h = next;
    }
    let mut sorted = h.clone();
    sorted.sort_unstable();
    sorted.dedup();
    h.iter()
        .map(|x| sorted.binary_search(x).expect("own hash") as u32)
        .collect()
}

struct Dsu {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut r = x;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        let mut c = x;
        while self.parent[c as usize] != r {
            let next = self.parent[c as usize];
            self.parent[c as usize] = r;
            c = next;
        }
        r
    }

    /// Unions the components of `a` and `b`; returns false if already
    /// joined. Deterministic: the lower root becomes the parent.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        self.size[lo as usize] += self.size[hi as usize];
        true
    }
}

/// Partitions `graph` into connected shards, cutting at high-slack
/// (low-volume) channels.
///
/// Greedy agglomeration: edges are processed in descending volume order
/// (ties by structural rank of the endpoints, then port, then edge id)
/// and merged subject to the balance cap, so the cut set ends up on the
/// lowest-volume channels. Buffer-reference edges are merged
/// unconditionally first. Shard ids are assigned in order of each
/// shard's minimum node index. Tie-breaking on structural ranks (a
/// hash of each node's rooted neighborhood) makes the node-grouping
/// invariant under permuted node insertion order (for graphs without
/// non-trivial automorphisms).
pub fn partition(graph: &Graph, cfg: &PartitionCfg) -> Partition {
    let n = graph.nodes().len();
    if n < cfg.min_nodes || cfg.target_shards <= 1 {
        return Partition::monolithic(graph);
    }
    let cap = ((n as f64) * cfg.balance_slack / cfg.target_shards as f64).ceil() as u32;
    let cap = cap.max(2);
    let mut dsu = Dsu::new(n);

    // Phase 1: arena-sharing groups are indivisible.
    for e in graph.edges() {
        if matches!(e.kind, ElemKind::Buffer { .. })
            && let Some((dst, _)) = e.dst
        {
            dsu.union(e.src.0.0, dst.0);
        }
    }

    // Phase 2: agglomerate along high-volume edges under the balance cap,
    // in an insertion-order-invariant total order.
    type EdgeKey = (u32, u16, u32, u16);
    let ranks = structural_ranks(graph);
    let mut order: Vec<(u64, EdgeKey, u32)> = graph
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.dst.is_some())
        .map(|(i, e)| {
            let (dst, dport) = e.dst.expect("filtered");
            (
                volume_estimate(&e.shape),
                (
                    ranks[e.src.0.0 as usize],
                    e.src.1,
                    ranks[dst.0 as usize],
                    dport,
                ),
                i as u32,
            )
        })
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    for (_, _, idx) in order {
        let e = &graph.edges()[idx as usize];
        let (a, b) = (e.src.0.0, e.dst.expect("filtered").0.0);
        let (ra, rb) = (dsu.find(a), dsu.find(b));
        if ra != rb && dsu.size[ra as usize] + dsu.size[rb as usize] <= cap {
            dsu.union(ra, rb);
        }
    }

    // Dense shard ids in order of minimum node index.
    let mut shard_of = vec![u32::MAX; n];
    let mut shards = 0u32;
    for i in 0..n as u32 {
        let r = dsu.find(i) as usize;
        if shard_of[r] == u32::MAX {
            shard_of[r] = shards;
            shards += 1;
        }
        shard_of[i as usize] = shard_of[r];
    }
    if shards == 1 {
        return Partition::monolithic(graph);
    }
    let mut cut_edges = Vec::new();
    let mut cut_volume = Vec::new();
    let mut cut_ins_of = vec![Vec::new(); shards as usize];
    let mut cut_outs_of = vec![Vec::new(); shards as usize];
    for (i, e) in graph.edges().iter().enumerate() {
        let Some((dst, _)) = e.dst else { continue };
        let (ws, rs) = (shard_of[e.src.0.0 as usize], shard_of[dst.0 as usize]);
        if ws == rs {
            continue;
        }
        cut_edges.push(EdgeId(i as u32));
        cut_volume.push(volume_estimate(&e.shape));
        cut_outs_of[ws as usize].push(EdgeId(i as u32));
        cut_ins_of[rs as usize].push(EdgeId(i as u32));
    }
    Partition {
        shard_of,
        shards: shards as usize,
        cut_edges,
        cut_ins_of,
        cut_outs_of,
        cut_volume,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::Elem;
    use crate::graph::GraphBuilder;
    use crate::ops::LinearLoadCfg;
    use crate::token;

    /// Many independent load->store pipelines off a shared trigger fork:
    /// the natural shardable shape (one pipeline per shard).
    fn fanout_graph(ways: u32) -> Graph {
        let mut g = GraphBuilder::new();
        let trig = g.unit_source(1);
        let forks = g.fork(&trig, ways).unwrap();
        for (k, f) in forks.iter().enumerate() {
            let tiles = g
                .linear_offchip_load(
                    f,
                    LinearLoadCfg::new(k as u64 * 0x10000, (64, 256), (64, 64)),
                )
                .unwrap();
            g.linear_offchip_store(&tiles, 0x100_0000 + k as u64 * 0x10000)
                .unwrap();
        }
        g.finish()
    }

    #[test]
    fn small_graphs_stay_monolithic() {
        let g = fanout_graph(4);
        let p = partition(&g, &PartitionCfg::default());
        assert_eq!(p.shards, 1);
        assert!(p.cut_edges.is_empty());
    }

    #[test]
    fn fanout_splits_into_connected_shards_cut_at_triggers() {
        let g = fanout_graph(128);
        let cfg = PartitionCfg {
            min_nodes: 16,
            ..PartitionCfg::default()
        };
        let p = partition(&g, &cfg);
        assert!(p.shards > 1, "shards {}", p.shards);
        // Every cut edge is a trigger (unit) stream, never a tile stream.
        for e in &p.cut_edges {
            let vol = volume_estimate(&g.edge(*e).shape);
            assert!(vol <= 4, "cut a volume-{vol} edge");
        }
        // Each load stays with its store (they share high-volume tile
        // edges).
        for (i, node) in g.nodes().iter().enumerate() {
            for e in &node.outputs {
                let edge = g.edge(*e);
                if volume_estimate(&edge.shape) > 4
                    && let Some((dst, _)) = edge.dst
                {
                    assert_eq!(p.shard_of[i], p.shard_of[dst.0 as usize]);
                }
            }
        }
    }

    #[test]
    fn cut_metadata_is_consistent_with_cut_edges() {
        let g = fanout_graph(128);
        let cfg = PartitionCfg {
            min_nodes: 16,
            ..PartitionCfg::default()
        };
        let p = partition(&g, &cfg);
        assert_eq!(p.cut_volume.len(), p.cut_edges.len());
        assert_eq!(p.cut_ins_of.len(), p.shards);
        assert_eq!(p.cut_outs_of.len(), p.shards);
        let mut ins: Vec<EdgeId> = p.cut_ins_of.iter().flatten().copied().collect();
        let mut outs: Vec<EdgeId> = p.cut_outs_of.iter().flatten().copied().collect();
        ins.sort();
        outs.sort();
        assert_eq!(ins, p.cut_edges);
        assert_eq!(outs, p.cut_edges);
        for (s, edges) in p.cut_ins_of.iter().enumerate() {
            for e in edges {
                let (dst, _) = g.edge(*e).dst.unwrap();
                assert_eq!(p.shard_of[dst.0 as usize] as usize, s);
            }
        }
        for (s, edges) in p.cut_outs_of.iter().enumerate() {
            for e in edges {
                assert_eq!(p.shard_of[g.edge(*e).src.0.0 as usize] as usize, s);
            }
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let cfg = PartitionCfg {
            min_nodes: 16,
            ..PartitionCfg::default()
        };
        let a = partition(&fanout_graph(64), &cfg);
        let b = partition(&fanout_graph(64), &cfg);
        assert_eq!(a.shard_of, b.shard_of);
        assert_eq!(a.cut_edges, b.cut_edges);
    }

    #[test]
    fn buffer_edges_are_never_cut() {
        let mut g = GraphBuilder::new();
        // Dozens of bufferize/streamify pairs, forced small cap.
        for k in 0..24u64 {
            let groups: Vec<Vec<Elem>> =
                vec![vec![Elem::Tile(crate::tile::Tile::phantom(4, 4)); 2]; 2];
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
            let out = g
                .streamify(&bufs, &r, crate::ops::StreamifyCfg::default())
                .unwrap();
            g.linear_offchip_store(&out, k * 0x1000).ok();
        }
        let graph = g.finish();
        let p = partition(
            &graph,
            &PartitionCfg {
                min_nodes: 8,
                target_shards: 64,
                balance_slack: 1.0,
            },
        );
        for (i, e) in graph.edges().iter().enumerate() {
            if matches!(e.kind, ElemKind::Buffer { .. }) {
                let (a, b) = (e.src.0, e.dst.unwrap().0);
                assert_eq!(
                    p.shard_of[a.0 as usize], p.shard_of[b.0 as usize],
                    "buffer edge {i} cut"
                );
            }
        }
    }
}
