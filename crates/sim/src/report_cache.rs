//! Binding-keyed memoization of simulation reports.
//!
//! The determinism contract makes every [`SimReport`] a pure function of
//! `(plan, binding)`: a rerun of the same frozen [`crate::SimPlan`] with
//! the same [`RunBinding`] is bit-identical, however many times and on
//! however many threads it runs. [`ReportCache`] exploits that at the
//! *report* level, the way [`crate::SimPlan`] already exploits it at the
//! plan level and [`crate::RunPool`] at the run-state level: iterations
//! whose signature repeats skip the engine entirely and replay a cloned
//! report.
//!
//! # Key contract
//!
//! A report is keyed by `(plan content key, binding fingerprint)`
//! ([`plan_content_key`] × [`RunBinding::fingerprint`]). A hit replays
//! the exact `(plan, binding)` pair, so the returned report is
//! **bit-identical** to re-simulation by the determinism contract —
//! minus the host-side `run_allocs` / `pool_resets` bookkeeping, which
//! records how the original run materialized its state, not what it
//! computed. That guarantee is never assumed: [`ReportCache::checked`]
//! re-runs every hit and asserts it, and the conformance suites drive
//! that mode across seeds and thread counts. The mode has teeth: it
//! *refuted* replaying one MoE routing's report for an order-permuted
//! routing with equal expert-set multisets (run coalescing drifts with
//! token adjacency, and through scheduling even `cycles` and `rounds`
//! move), which is why the serving driver canonicalizes such routings
//! before binding, so they share one key.
//!
//! The plan half of the key is **content**, not identity:
//! [`plan_content_key`] folds the builder fingerprint with
//! [`SimConfig::fingerprint`] (which excludes `threads`), so replays hit
//! across plan rebuilds, across a shared plan cache, and across thread
//! counts — the same normalization the sweep service's `PlanCache` key
//! uses.
//!
//! Bindings that arm a host-dependent limit (wall deadline,
//! cancellation) are not pure functions of `(plan, binding)`;
//! [`RunBinding::cache_safe`] reports them and the cache bypasses such
//! runs — simulated, counted as misses, never stored or served.
//!
//! # Counter semantics
//!
//! [`ReportCacheStats`] counts per request, mirroring the sweep
//! service's plan-cache discipline so the counters are
//! scheduler-independent and CI can pin them exactly: concurrent misses
//! on one key are **single-flight** (the first requester
//! simulates; coalesced waiters share the result and count as hits), a
//! failed run moves its slot to a sticky `Failed` state that wakes every
//! coalesced waiter with the error, and the next request for the key
//! retakes the claim (a new miss). A request is counted once, when it
//! resolves: a replay, or a coalesced run's error, is a hit; taking the
//! claim is a miss — also for a waiter that wakes to a *newer* failure
//! and retakes the claim itself — so every engine run is a miss.
//! `hits + misses` always equals the requests made.
//! [`ReportCache::checked`]'s re-simulations change no counter — the
//! stats are mode-independent.

use crate::config::SimConfig;
use crate::engine::{RunBinding, SimReport};
use crate::fingerprint::Fingerprint;
use std::collections::HashMap;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use step_core::error::{Result, StepError};
use step_core::sync::{lock, panic_message, wait};

/// The plan half of a report-cache key: the builder fingerprint folded
/// with [`SimConfig::fingerprint`]. Two plans with equal content keys
/// are interchangeable by the determinism contract (the config
/// fingerprint excludes `threads`), so reports replay across rebuilds,
/// shared plan caches, and thread counts.
pub fn plan_content_key(builder: u64, cfg: &SimConfig) -> u64 {
    let mut fp = Fingerprint::new("ReportCache.plan");
    fp.push_u64(builder).push_u64(cfg.fingerprint());
    fp.finish()
}

/// How a [`ReportCache::replay_or_run`] request was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Served from the cache: bit-identical replay of this very
    /// `(plan, binding)` pair.
    Exact,
    /// The engine actually ran (cache miss, disabled mode, or a
    /// non-cache-safe binding).
    Simulated,
}

/// A resolved replay: the (shared) report plus how it was obtained.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The report — cloned cheaply via `Arc` on hits.
    pub report: Arc<SimReport>,
    /// How the request resolved.
    pub resolution: Resolution,
}

/// Cumulative [`ReportCache`] counters. Request-scoped and
/// scheduler-independent (single-flight, see the module docs), so CI
/// pins them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportCacheStats {
    /// Requests served without simulating, including waiters coalesced
    /// behind an in-flight miss.
    pub hits: u64,
    /// Requests that simulated: cache misses, plus bypassed
    /// non-cache-safe bindings.
    pub misses: u64,
}

impl ReportCacheStats {
    /// Folds one request's [`Resolution`] into these counters — for
    /// drivers keeping request-scoped stats of their own runs alongside
    /// a shared cache's cumulative ones.
    pub fn absorb(&mut self, resolution: Resolution) {
        match resolution {
            Resolution::Exact => self.hits += 1,
            Resolution::Simulated => self.misses += 1,
        }
    }
}

/// A report with the host-side run-materialization counters zeroed —
/// what "bit-identical" means for a replay: the original run may have
/// built fresh state (`run_allocs == 1`) while the re-simulation reset a
/// pool in place, without either changing anything the engine computed.
fn normalized(r: &SimReport) -> SimReport {
    SimReport {
        run_allocs: 0,
        pool_resets: 0,
        ..r.clone()
    }
}

/// Cache operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Memoize (the default).
    Enabled,
    /// Memoize, and differentially re-simulate **every** hit, asserting
    /// bit-identity. Conformance-suite mode.
    Checked,
    /// Pure passthrough: always simulate, never store, count nothing.
    Disabled,
}

/// A cache slot: ready, claimed by an in-flight run, or failed.
/// Claims are stamped with a cache-wide epoch exactly like the sweep
/// service's plan cache: a waiter sleeps while the slot is `Building`
/// with its epoch and receives the error iff the slot is `Failed` with
/// that same epoch — otherwise the world moved on and it re-dispatches.
enum Slot {
    Building {
        epoch: u64,
    },
    Ready(Arc<SimReport>),
    /// Sticky until the next request retakes the claim, so waiters that
    /// coalesced on the failed run all observe the error instead of
    /// sleeping forever.
    Failed {
        error: StepError,
        epoch: u64,
    },
}

/// A shared, single-flight cache of [`SimReport`]s (see the module docs
/// for the key contract and counter semantics).
pub struct ReportCache {
    mode: Mode,
    slots: Mutex<HashMap<(u64, u64), Slot>>,
    ready: Condvar,
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ReportCache {
    fn default() -> ReportCache {
        ReportCache::new()
    }
}

impl ReportCache {
    fn with_mode(mode: Mode) -> ReportCache {
        ReportCache {
            mode,
            slots: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty memoizing cache.
    pub fn new() -> ReportCache {
        ReportCache::with_mode(Mode::Enabled)
    }

    /// A differential cache: every hit **re-simulates** and asserts the
    /// re-run equals the cached report (minus the host-side pool
    /// counters), then still serves the cached report. Counters are
    /// unchanged by the re-runs, so pins written against
    /// [`ReportCache::new`] hold here too. A violated guarantee panics
    /// with both sides; this is how the conformance suites *prove* (not
    /// assume) that a key identifies its report.
    pub fn checked() -> ReportCache {
        ReportCache::with_mode(Mode::Checked)
    }

    /// A passthrough cache: every request simulates, nothing is stored,
    /// no counter moves. The cache-off differential baseline.
    pub fn disabled() -> ReportCache {
        ReportCache::with_mode(Mode::Disabled)
    }

    /// Resolves one `(plan, binding)` request: replays a cached report
    /// when the cache holds one, otherwise runs `run` (which must
    /// simulate exactly this pair — pooled or fresh, both are
    /// bit-identical) and stores the result.
    ///
    /// `plan` is the plan's **content** key ([`plan_content_key`]).
    ///
    /// Concurrent requests for one exact key coalesce onto a single
    /// `run` (single-flight); a panicking `run` resolves the slot with a
    /// typed [`StepError::Panicked`] instead of stranding waiters.
    ///
    /// # Errors
    ///
    /// A failed or panicked run propagates to the requester that ran it
    /// and to every coalesced waiter; the next request for the key
    /// retakes the claim and retries.
    pub fn replay_or_run(
        &self,
        plan: u64,
        binding: &RunBinding,
        run: &mut dyn FnMut() -> Result<SimReport>,
    ) -> Result<Replay> {
        if self.mode == Mode::Disabled {
            return Ok(Replay {
                report: Arc::new(run()?),
                resolution: Resolution::Simulated,
            });
        }
        if !binding.cache_safe() {
            // A wall deadline or cancel token makes the outcome depend
            // on the host: simulate (counted as a miss — the engine
            // really ran), but never store or serve such a run.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(Replay {
                report: Arc::new(run()?),
                resolution: Resolution::Simulated,
            });
        }
        let key = (plan, binding.fingerprint());
        let mut slots = lock(&self.slots);
        // Hit or miss is decided where the request resolves — one count
        // per call, however many condvar wakeups happen first. A waiter
        // that wakes to a *newer* failed slot goes on to take the claim
        // itself, and that claim is its miss.
        let my_epoch = loop {
            match slots.get(&key) {
                Some(Slot::Ready(report)) => {
                    let report = report.clone();
                    drop(slots);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.check_exact(&report, run)?;
                    return Ok(Replay {
                        report,
                        resolution: Resolution::Exact,
                    });
                }
                Some(&Slot::Building { epoch }) => {
                    #[cfg(test)]
                    tests::signal_wait();
                    // Sleep until *this* run resolves (epoch match — a
                    // later retake must not re-capture us)…
                    while matches!(slots.get(&key), Some(Slot::Building { epoch: e }) if *e == epoch)
                    {
                        slots = wait(&self.ready, slots);
                    }
                    // …then propagate its failure to every coalesced
                    // waiter (a hit on that run's outcome), or
                    // re-dispatch on the new slot state.
                    if let Some(Slot::Failed { error, epoch: e }) = slots.get(&key)
                        && *e == epoch
                    {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Err(error.clone());
                    }
                }
                Some(Slot::Failed { .. }) | None => {
                    // Fresh key, or a failure left by a resolved run:
                    // take the claim (a retry counts as a new miss).
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
                    slots.insert(key, Slot::Building { epoch });
                    break epoch;
                }
            }
        };
        drop(slots);

        // Panic isolation, mirroring the plan cache: a dying run becomes
        // a typed error that resolves the slot instead of leaving
        // waiters asleep forever.
        let ran = catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|p| Err(StepError::Panicked(panic_message(p.as_ref()))));
        let mut slots = lock(&self.slots);
        let result = match ran {
            Ok(report) => {
                let report = Arc::new(report);
                slots.insert(key, Slot::Ready(report.clone()));
                Ok(Replay {
                    report,
                    resolution: Resolution::Simulated,
                })
            }
            Err(e) => {
                slots.insert(
                    key,
                    Slot::Failed {
                        error: e.clone(),
                        epoch: my_epoch,
                    },
                );
                Err(e)
            }
        };
        drop(slots);
        self.ready.notify_all();
        result
    }

    /// Checked-mode guarantee for a hit: re-simulation is bit-identical
    /// minus the host-side pool counters.
    fn check_exact(
        &self,
        cached: &SimReport,
        run: &mut dyn FnMut() -> Result<SimReport>,
    ) -> Result<()> {
        if self.mode != Mode::Checked {
            return Ok(());
        }
        let fresh = run()?;
        assert_eq!(
            normalized(cached),
            normalized(&fresh),
            "exact report-cache hit diverged from re-simulation — the determinism \
             contract or the binding fingerprint is broken"
        );
        Ok(())
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> ReportCacheStats {
        ReportCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Distinct exact keys currently held (ready, in flight, or failed).
    pub fn len(&self) -> usize {
        lock(&self.slots).len()
    }

    /// Whether the cache holds no reports.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimPlan;
    use std::cell::RefCell;
    use std::sync::mpsc;
    use step_core::graph::GraphBuilder;
    use step_core::ops::LinearLoadCfg;

    thread_local! {
        /// Set by a test on the thread whose request should announce
        /// that it is about to sleep on an in-flight run.
        static WAIT_PROBE: RefCell<Option<mpsc::Sender<()>>> = const { RefCell::new(None) };
    }

    /// Test seam: signals, under the slots lock, that this thread's
    /// request is about to sleep on an in-flight run.
    pub(super) fn signal_wait() {
        WAIT_PROBE.with(|probe| {
            if let Some(tx) = &*probe.borrow() {
                let _ = tx.send(());
            }
        });
    }

    /// One off-chip tile loaded and stored back.
    fn tiny_run() -> Result<SimReport> {
        let mut g = GraphBuilder::new();
        let trigger = g.unit_source(1);
        let loaded = g.linear_offchip_load(&trigger, LinearLoadCfg::new(0, (64, 64), (64, 64)))?;
        g.linear_offchip_store(&loaded, 0x10_0000)?;
        SimPlan::new(g.finish(), SimConfig::default())?.run()
    }

    /// A request that sleeps on one run and wakes to a *newer* failure
    /// — the run it waited on failed, then a later request retook the
    /// key and failed too — takes the claim itself, so it counts a
    /// miss, not a hit. The interleaving is forced with a channel: the
    /// waiter signals under the slots lock just before it sleeps, and
    /// the test, playing both earlier claimants, can take the lock to
    /// rewrite the slot only once the waiter is asleep.
    #[test]
    fn waiter_woken_by_a_newer_failure_counts_its_own_claim_as_a_miss() {
        let cache = ReportCache::new();
        let binding = RunBinding::new();
        let key = (7, binding.fingerprint());
        lock(&cache.slots).insert(key, Slot::Building { epoch: 1 });
        cache.epoch.store(2, Ordering::Relaxed);
        let (tx, asleep) = mpsc::channel();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                WAIT_PROBE.with(|probe| *probe.borrow_mut() = Some(tx));
                cache.replay_or_run(7, &binding, &mut tiny_run)
            });
            asleep.recv().expect("the waiter signals before it sleeps");
            lock(&cache.slots).insert(
                key,
                Slot::Failed {
                    error: StepError::Exec("retake failed".into()),
                    epoch: 2,
                },
            );
            cache.ready.notify_all();
            let replay = waiter
                .join()
                .expect("waiter thread")
                .expect("the waiter retakes the claim and runs");
            assert_eq!(replay.resolution, Resolution::Simulated);
        });
        assert_eq!(cache.stats(), ReportCacheStats { hits: 0, misses: 1 });
    }
}
