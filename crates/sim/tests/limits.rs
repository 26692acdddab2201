//! Run limits: deterministic cycle and round deadlines and the round
//! budget.
//!
//! The contract under test (see README "Failure semantics"): deadlines
//! denominated in simulated quantities (`cycles`, `rounds`) produce the
//! **identical** [`StepError::Deadline`] on every rerun and at every
//! thread count mapping the same shard plan — they are pure functions
//! of the schedule, so CI can match on them exactly.

use step_core::graph::GraphBuilder;
use step_core::ops::LinearLoadCfg;
use step_core::{DeadlineKind, StepError};
use step_sim::{RunBinding, RunPool, SimConfig, SimPlan};

fn cfg(threads: usize, shards: usize) -> SimConfig {
    SimConfig {
        threads,
        shards,
        max_rounds: 200_000,
        ..SimConfig::default()
    }
}

/// A fan-out load/store graph big enough to cross several horizon
/// windows (so mid-run deadline checks get exercised) and to shard.
fn fanout_graph(ways: u32, rows: u64) -> step_core::Graph {
    let mut g = GraphBuilder::new();
    let trig = g.unit_source(1);
    let forks = g.fork(&trig, ways).unwrap();
    for (k, f) in forks.iter().enumerate() {
        let tiles = g
            .linear_offchip_load(
                f,
                LinearLoadCfg::new(k as u64 * 0x100000, (64, rows), (64, 64)),
            )
            .unwrap();
        g.linear_offchip_store(&tiles, 0x10_000_000 + k as u64 * 0x100000)
            .unwrap();
    }
    g.finish()
}

#[test]
fn cycle_deadline_fails_identically_across_reruns_and_threads() {
    let baseline = SimPlan::new(fanout_graph(4, 1024), cfg(1, 4))
        .unwrap()
        .run()
        .unwrap();
    let mut binding = RunBinding::new();
    binding.deadline_cycles(baseline.cycles / 2);
    // Same shard plan, threads 1 vs 4, plus a same-config rerun: the
    // error must be bit-identical (kind, limit, and blow point).
    let mut errs = Vec::new();
    for threads in [1usize, 4, 1] {
        let plan = SimPlan::new(fanout_graph(4, 1024), cfg(threads, 4)).unwrap();
        let err = plan.run_with(&binding, None).unwrap_err();
        assert!(
            matches!(
                err,
                StepError::Deadline {
                    kind: DeadlineKind::Cycles,
                    ..
                }
            ),
            "got: {err}"
        );
        errs.push(err);
    }
    assert_eq!(errs[0], errs[1], "threads changed the deadline error");
    assert_eq!(errs[0], errs[2], "rerun changed the deadline error");
    // The monolithic plan of the same graph also blows a Cycles
    // deadline (its blow point may differ — different schedule).
    let err = SimPlan::new(fanout_graph(4, 1024), cfg(1, 1))
        .unwrap()
        .run_with(&binding, None)
        .unwrap_err();
    assert!(matches!(
        err,
        StepError::Deadline {
            kind: DeadlineKind::Cycles,
            ..
        }
    ));
}

#[test]
fn round_deadline_fails_identically_across_reruns_and_threads() {
    let mut binding = RunBinding::new();
    binding.deadline_rounds(1);
    let mut errs = Vec::new();
    for threads in [1usize, 4, 1] {
        let plan = SimPlan::new(fanout_graph(4, 512), cfg(threads, 4)).unwrap();
        let err = plan.run_with(&binding, None).unwrap_err();
        assert!(
            matches!(
                err,
                StepError::Deadline {
                    kind: DeadlineKind::Rounds,
                    limit: 1,
                    ..
                }
            ),
            "got: {err}"
        );
        errs.push(err);
    }
    assert_eq!(errs[0], errs[1], "threads changed the deadline error");
    assert_eq!(errs[0], errs[2], "rerun changed the deadline error");
}

#[test]
fn unarmed_and_unreachable_limits_change_nothing() {
    let baseline = SimPlan::new(fanout_graph(2, 512), cfg(1, 2))
        .unwrap()
        .run()
        .unwrap();
    let mut binding = RunBinding::new();
    binding.deadline_cycles(u64::MAX).deadline_rounds(u64::MAX);
    let bounded = SimPlan::new(fanout_graph(2, 512), cfg(1, 2))
        .unwrap()
        .run_with(&binding, None)
        .unwrap();
    assert_eq!(
        (baseline.cycles, baseline.offchip_traffic, baseline.rounds),
        (bounded.cycles, bounded.offchip_traffic, bounded.rounds),
        "an unreachable limit must not perturb the run"
    );
}

#[test]
fn round_budget_overrun_is_a_typed_error_with_counters() {
    let tight = SimConfig {
        max_rounds: 1,
        ..cfg(1, 1)
    };
    let err = SimPlan::new(fanout_graph(2, 256), tight)
        .unwrap()
        .run()
        .unwrap_err();
    match err {
        StepError::RoundLimit {
            limit,
            rounds,
            fires,
        } => {
            assert_eq!(limit, 1);
            assert!(rounds > limit, "the blow must carry the overrun round");
            assert!(fires > 0, "the blow must carry the fire counter");
        }
        other => panic!("expected RoundLimit, got: {other}"),
    }
}

#[test]
fn deadline_blow_drops_pooled_state_and_the_pool_recovers() {
    let plan = SimPlan::new(fanout_graph(2, 512), cfg(1, 1)).unwrap();
    let mut pool = RunPool::default();
    let mut doomed = RunBinding::new();
    doomed.deadline_cycles(1);
    assert!(plan.run_with(&doomed, Some(&mut pool)).is_err());
    // The failed run dropped its state instead of parking it; the next
    // run rebuilds cleanly and parks as usual.
    let first = plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
    assert_eq!(first.run_allocs, 1, "failed runs must not park state");
    let second = plan.run_with(&RunBinding::new(), Some(&mut pool)).unwrap();
    assert_eq!(second.run_allocs, 0, "recovered pool must reuse state");
    assert_eq!(first.cycles, second.cycles);
}
