//! Chaos conformance: the sweep service under deterministic fault
//! injection.
//!
//! A seeded [`FaultPlan`] assigns four fault classes (builder panic,
//! builder error, mid-run engine error via a one-round budget, cycle-
//! deadline blow) to distinct units of a batch. The suite replays the
//! same plan at 1/2/8 workers on fresh services and asserts the full
//! failure contract (README "Failure semantics"):
//!
//! - the stream **always yields all N results, in submission order** —
//!   no fault loses, reorders, or hangs a unit;
//! - faulted units resolve to exactly the planned typed [`UnitError`];
//! - non-faulted units are **bit-identical** to serial `SimPlan`
//!   baselines (everything but the host-side pool counters);
//! - the [`CacheStats`] counters — including `failures` — are pinned
//!   exactly, cold and warm, at every worker count;
//! - the cache never deadlocks: coalesced waiters on a failing build
//!   wake with the error, and termination needs no watchdog (CI wraps
//!   the suite in a hard `timeout`, which a hang would trip).

use step_bench::{
    CacheStats, FaultKind, FaultPlan, PointResult, SimPoint, SweepService, SweepUnit, UnitError,
    UnitFailure,
};
use step_core::graph::GraphBuilder;
use step_core::ops::LinearLoadCfg;
use step_core::{DeadlineKind, Graph, Result, StepError};
use step_sim::{RunBinding, SimConfig, SimPlan, SimReport};

const UNITS: usize = 12;
const FAULTS: usize = 4;
const SEED: u64 = 0xC4A05;
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A tiny off-chip load/store graph whose traffic scales with `tiles`;
/// units use distinct `tiles`, so every unit is its own plan key and
/// the cache counters below are exact at any worker count.
fn tiny_graph(tiles: u64) -> Result<Graph> {
    let mut g = GraphBuilder::new();
    let trigger = g.unit_source(1);
    let loaded =
        g.linear_offchip_load(&trigger, LinearLoadCfg::new(0, (64, 64 * tiles), (64, 64)))?;
    g.linear_offchip_store(&loaded, 0x10_0000)?;
    Ok(g.finish())
}

/// The unit for batch index `i`, faulted per the plan. Every unit keeps
/// a distinct plan key (distinct `tiles`, and the one-round budget of
/// `RunError` changes the config fingerprint), so cold-batch counters
/// are exactly one miss per unit with zero coalescing.
fn unit_for(i: usize, fault: Option<FaultKind>) -> SweepUnit {
    let mut tiles = i as u64 + 1;
    let label = format!("unit{i}");
    let mut cfg = SimConfig::default();
    let mut binding = None;
    let build: Box<dyn FnMut() -> Result<Graph> + Send> = match fault {
        Some(FaultKind::BuilderPanic) => Box::new(|| panic!("chaos: injected builder panic")),
        Some(FaultKind::BuilderErr) => {
            Box::new(|| Err(StepError::Config("chaos: injected builder error".into())))
        }
        Some(FaultKind::RunError) => {
            // Builds fine, then blows the round budget mid-run. Graphs
            // of <= 7 tiles quiesce in a single scheduler round, so the
            // faulted unit runs a batch-disjoint larger graph that is
            // guaranteed to need several.
            cfg.max_rounds = 1;
            tiles += 16;
            Box::new(move || tiny_graph(tiles))
        }
        Some(FaultKind::DeadlineBlow) => {
            let mut b = RunBinding::new();
            b.deadline_cycles(1);
            binding = Some(b);
            Box::new(move || tiny_graph(tiles))
        }
        None => Box::new(move || tiny_graph(tiles)),
    };
    SweepUnit::Sim(SimPoint {
        label,
        builder: tiles,
        cfg,
        build,
        binding,
    })
}

/// Asserts one resolved unit against the plan: the planned typed error
/// for faulted units, `Ok` for clean ones.
fn assert_outcome(
    i: usize,
    fault: Option<FaultKind>,
    res: &std::result::Result<PointResult, UnitFailure>,
) {
    let want_label = format!("unit{i}");
    match (fault, res) {
        (None, Ok(r)) => assert_eq!(r.label, want_label),
        (Some(kind), Err(UnitFailure { label, error })) => {
            assert_eq!(*label, want_label, "faulted unit lost its label");
            match kind {
                FaultKind::BuilderPanic => assert!(
                    matches!(error, UnitError::Panicked(m) if m.contains("chaos")),
                    "unit{i}: {error}"
                ),
                FaultKind::BuilderErr => assert!(
                    matches!(error, UnitError::Build(StepError::Config(m)) if m.contains("chaos")),
                    "unit{i}: {error}"
                ),
                FaultKind::RunError => assert!(
                    matches!(
                        error,
                        UnitError::Run(StepError::RoundLimit { limit: 1, .. })
                    ),
                    "unit{i}: {error}"
                ),
                FaultKind::DeadlineBlow => assert!(
                    matches!(
                        error,
                        UnitError::DeadlineExceeded(StepError::Deadline {
                            kind: DeadlineKind::Cycles,
                            limit: 1,
                            ..
                        })
                    ),
                    "unit{i}: {error}"
                ),
            }
        }
        (None, Err(e)) => panic!("clean unit{i} failed: {e}"),
        (Some(k), Ok(_)) => panic!("unit{i} should have faulted with {k:?}"),
    }
}

/// A report with the host-side pool counters cleared, so serial
/// baselines (fresh state) compare bit-identically against service
/// workers (pooled state).
fn sans_pooling(report: &SimReport) -> SimReport {
    SimReport {
        run_allocs: 0,
        pool_resets: 0,
        ..report.clone()
    }
}

#[test]
fn chaos_batch_resolves_every_unit_identically_at_any_worker_count() {
    let plan = FaultPlan::seeded(SEED, UNITS, FAULTS);
    assert_eq!(plan.slots().len(), FAULTS, "plan must fault {FAULTS} units");
    // Serial baselines for the clean units: one fresh SimPlan each.
    let baselines: Vec<Option<SimReport>> = (0..UNITS)
        .map(|i| {
            plan.fault_for(i).is_none().then(|| {
                SimPlan::new(tiny_graph(i as u64 + 1).unwrap(), SimConfig::default())
                    .unwrap()
                    .run()
                    .unwrap()
            })
        })
        .collect();
    // Build-faulted units never freeze a plan; the others build once.
    let build_faults = plan
        .slots()
        .iter()
        .filter(|(_, k)| matches!(k, FaultKind::BuilderPanic | FaultKind::BuilderErr))
        .count() as u64;
    let n = UNITS as u64;

    for workers in WORKER_COUNTS {
        let svc = SweepService::new(workers);
        let units: Vec<SweepUnit> = (0..UNITS).map(|i| unit_for(i, plan.fault_for(i))).collect();
        let cold: Vec<_> = svc.submit(units).collect();
        assert_eq!(cold.len(), UNITS, "workers={workers}: lost results");
        for (i, res) in cold.iter().enumerate() {
            assert_outcome(i, plan.fault_for(i), res);
            if let (Some(base), Ok(r)) = (&baselines[i], res) {
                let sim = r.report.sim().expect("sim unit");
                assert_eq!(
                    sans_pooling(sim),
                    sans_pooling(base),
                    "workers={workers}: clean unit{i} diverged from its serial baseline"
                );
            }
        }
        // Distinct keys, zero coalescing: the cold pin is exact.
        assert_eq!(
            svc.cache().stats(),
            CacheStats {
                hits: 0,
                misses: n,
                builds: n - build_faults,
                failures: build_faults
            },
            "workers={workers}: cold cache counters moved"
        );

        // Warm replay on the same service: successful plans are hits;
        // failed builds are sticky-but-retryable, so each build-faulted
        // key re-misses and re-fails. Still exact.
        let units: Vec<SweepUnit> = (0..UNITS).map(|i| unit_for(i, plan.fault_for(i))).collect();
        let warm: Vec<_> = svc.submit(units).collect();
        assert_eq!(warm.len(), UNITS);
        for (i, res) in warm.iter().enumerate() {
            assert_outcome(i, plan.fault_for(i), res);
        }
        for (c, w) in cold.iter().zip(&warm) {
            if let (Ok(c), Ok(w)) = (c, w) {
                let (c, w) = (c.report.sim().unwrap(), w.report.sim().unwrap());
                assert_eq!(
                    sans_pooling(c),
                    sans_pooling(w),
                    "workers={workers}: warm rerun diverged"
                );
            }
        }
        assert_eq!(
            svc.cache().stats(),
            CacheStats {
                hits: n - build_faults,
                misses: n + build_faults,
                builds: n - build_faults,
                failures: 2 * build_faults
            },
            "workers={workers}: warm cache counters moved"
        );
    }
}

/// Coalesced checkouts of one key whose builder always panics: every
/// unit resolves with the typed panic error — as the claimant that ran
/// the build or as a waiter woken by the `Failed` slot — and nothing
/// hangs, at every worker count.
#[test]
fn same_key_builder_panics_never_strand_waiters() {
    for workers in WORKER_COUNTS {
        let svc = SweepService::new(workers);
        let units: Vec<SweepUnit> = (0..8)
            .map(|i| {
                SweepUnit::Sim(SimPoint {
                    label: format!("shared{i}"),
                    builder: 777, // one shared key for the whole batch
                    cfg: SimConfig::default(),
                    build: Box::new(|| panic!("chaos: shared build panics")),
                    binding: None,
                })
            })
            .collect();
        let results: Vec<_> = svc.submit(units).collect();
        assert_eq!(results.len(), 8, "workers={workers}: lost results");
        for (i, res) in results.iter().enumerate() {
            match res {
                Err(UnitFailure { label, error }) => {
                    assert_eq!(*label, format!("shared{i}"));
                    assert!(
                        matches!(error, UnitError::Panicked(m) if m.contains("chaos")),
                        "workers={workers} unit{i}: {error}"
                    );
                }
                Ok(_) => panic!("workers={workers}: a panicking build produced a plan"),
            }
        }
        // How many of the 8 claimed the build is scheduler-dependent
        // (waiters coalesce), but the counter *relations* are not:
        // every claim is a miss that fails, every waiter a hit, and
        // nothing ever builds.
        let stats = svc.cache().stats();
        assert_eq!(stats.builds, 0);
        assert_eq!(stats.misses, stats.failures);
        assert!(stats.failures >= 1 && stats.failures <= 8);
        assert_eq!(stats.hits + stats.misses, 8);
    }
}

/// Graceful drain under chaos: shutdown after a faulted batch completes
/// cleanly, is idempotent, and later submissions resolve — with the
/// typed `Shutdown` error and their real labels — instead of hanging.
#[test]
fn shutdown_after_chaos_drains_then_rejects() {
    let plan = FaultPlan::seeded(SEED ^ 2, 6, 2);
    let mut svc = SweepService::new(2);
    let units: Vec<SweepUnit> = (0..6).map(|i| unit_for(i, plan.fault_for(i))).collect();
    let results: Vec<_> = svc.submit(units).collect();
    assert_eq!(results.len(), 6);
    for (i, res) in results.iter().enumerate() {
        assert_outcome(i, plan.fault_for(i), res);
    }
    svc.shutdown();
    svc.shutdown(); // idempotent
    let rejected: Vec<_> = svc
        .submit((0..3).map(|i| unit_for(i, None)).collect::<Vec<_>>())
        .collect();
    assert_eq!(rejected.len(), 3, "rejected batches still resolve all N");
    for (i, res) in rejected.iter().enumerate() {
        match res {
            Err(UnitFailure { label, error }) => {
                assert_eq!(*label, format!("unit{i}"));
                assert_eq!(*error, UnitError::Shutdown);
            }
            Ok(_) => panic!("post-shutdown unit{i} ran"),
        }
    }
}
