//! Minimal sharded-engine smoke tests (small graphs, forced shards).

use step_core::error::StepError;
use step_core::graph::{EdgeId, GraphBuilder, NodeId};
use step_core::ops::LinearLoadCfg;
use step_core::partition::{PartitionCfg, partition};
use step_sim::{SimConfig, SimPlan};

fn cfg(threads: usize, shards: usize) -> SimConfig {
    SimConfig {
        threads,
        shards,
        max_rounds: 200_000,
        ..SimConfig::default()
    }
}

fn fanout_graph(ways: u32) -> step_core::Graph {
    let mut g = GraphBuilder::new();
    let trig = g.unit_source(1);
    let forks = g.fork(&trig, ways).unwrap();
    for (k, f) in forks.iter().enumerate() {
        let tiles = g
            .linear_offchip_load(
                f,
                LinearLoadCfg::new(k as u64 * 0x100000, (64, 256), (64, 64)),
            )
            .unwrap();
        g.linear_offchip_store(&tiles, 0x10_000_000 + k as u64 * 0x100000)
            .unwrap();
    }
    g.finish()
}

/// A feedback dispatch loop with no initial selector: the `Partition`
/// waits on the fed-back selector, the merge waits on the regions, the
/// regions wait on the `Partition` — a genuine startup deadlock.
fn starved_feedback_graph() -> step_core::Graph {
    use step_core::elem::ElemKind;
    use step_core::shape::{Dim, StreamShape};
    let mut g = GraphBuilder::new();
    let requests = g.unit_source(4);
    let requests = g.promote(&requests).unwrap();
    let avail = Dim::dyn_regular(g.symbols().fresh("Avail"));
    let (fb, key) = g.feedback(
        StreamShape::new(vec![avail]),
        ElemKind::Selector { num_targets: 2 },
    );
    let routed = g.partition(&requests, &fb, 1, 2).unwrap();
    let refs: Vec<&step_core::StreamRef> = routed.iter().collect();
    let (_junk, prov) = g.eager_merge(&refs).unwrap();
    g.fulfill_feedback(key, &prov).unwrap();
    g.finish()
}

#[test]
fn deadlock_is_detected_not_hung_at_any_thread_count() {
    // The barrier-elision/fast-path engine must still diagnose a stuck
    // graph — inline and with parked workers — rather than spin or hang.
    // Executors report shard-local channel indices; the diagnostics must
    // name the graph's edge ids, identically however the graph is
    // sharded.
    let want = "no progress with 4 nodes blocked: \
                2:Fork t=0 (awaiting input on edge 6), \
                3:Partition t=0 (awaiting input on edge 2), \
                4:EagerMerge t=0 (awaiting input on edge 4), \
                5:Sink t=0 (awaiting input on edge 5)";
    for (threads, shards) in [(1, 1), (1, 4), (4, 4)] {
        let plan = SimPlan::new(starved_feedback_graph(), cfg(threads, shards)).unwrap();
        assert_eq!(
            plan.shards() > 1,
            shards > 1,
            "threads={threads} shards={shards}: plan has {} shards",
            plan.shards()
        );
        match plan.run() {
            Err(StepError::Deadlock(msg)) => {
                assert_eq!(msg, want, "threads={threads} shards={shards}")
            }
            other => {
                panic!("threads={threads} shards={shards}: expected a deadlock, got {other:?}")
            }
        }
    }
    // At shards=4 the Fork and the EagerMerge wait on cut edges (6 and
    // 4), so they block on reader halves, whose shard-local channels
    // only the plan's per-shard channel → edge table maps back to graph
    // edge ids. Pin the cut, so a partitioner change cannot silently
    // drop that path from the message above.
    let graph = starved_feedback_graph();
    let part = partition(
        &graph,
        &PartitionCfg {
            target_shards: 4,
            min_nodes: 0,
            ..PartitionCfg::default()
        },
    );
    let plan = SimPlan::new(graph.clone(), cfg(1, 4)).unwrap();
    assert_eq!((part.shards, plan.shards()), (3, 3));
    for (node, edge) in [(2, 6), (4, 4)] {
        let edge = EdgeId(edge);
        assert_eq!(graph.edge(edge).dst.map(|(n, _)| n), Some(NodeId(node)));
        let shard = part.shard_of[node as usize] as usize;
        assert!(
            part.cut_ins_of[shard].contains(&edge),
            "edge {edge:?} into node {node} is not a cut edge's reader half"
        );
    }
}

#[test]
fn sharded_fanout_completes_and_matches_across_threads() {
    let mono = SimPlan::new(fanout_graph(8), cfg(1, 1))
        .unwrap()
        .run()
        .unwrap();
    let seq = SimPlan::new(fanout_graph(8), cfg(1, 4))
        .unwrap()
        .run()
        .unwrap();
    assert!(seq.shards > 1, "shards {}", seq.shards);
    let par = SimPlan::new(fanout_graph(8), cfg(4, 4))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(seq.cycles, par.cycles);
    assert_eq!(seq.offchip_traffic, par.offchip_traffic);
    assert_eq!(mono.offchip_traffic, seq.offchip_traffic);
}
