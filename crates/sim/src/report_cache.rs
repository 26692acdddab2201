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
//! move), which is why binding keys are order-sensitive: a permuted
//! stream is a different run and gets its own key.
//!
//! A caller may instead fold into the plan half whatever determines
//! the binding it will run, and pass the empty binding: the serving
//! driver keys its bindingless QKV phase so, and its MoE phase by the
//! routing sample (or the sample's inputs) that its binding is built
//! from, so that a hit builds no binding. The key is then exact only
//! as far as that fold determines the run's binding.
//!
//! The plan half of the key is **content**, not identity:
//! [`plan_content_key`] folds the builder fingerprint with
//! [`SimConfig::fingerprint`] (which excludes `threads`), so replays hit
//! across plan rebuilds, across a shared plan cache, and across thread
//! counts — the same normalization the sweep service's `PlanCache` key
//! uses.
//!
//! # Counter semantics
//!
//! The cache is a [`SingleFlight`], so [`ReportCacheStats`] counts by
//! its rule. [`ReportCache::checked`]'s re-simulations change no
//! counter — the stats are mode-independent.

use crate::config::SimConfig;
use crate::engine::{RunBinding, SimReport};
use crate::fingerprint::Fingerprint;
use std::sync::Arc;
use step_core::error::Result;
use step_core::sync::{CacheStats, SingleFlight};

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
    /// The engine actually ran (cache miss or disabled mode).
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

/// Cumulative [`ReportCache`] counters: its [`SingleFlight`]'s hits and
/// misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReportCacheStats {
    /// Requests served without simulating.
    pub hits: u64,
    /// Requests that simulated.
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

/// A shared, single-flight cache of [`SimReport`]s: a [`SingleFlight`]
/// keyed by `(plan content key, binding fingerprint)`, whose claim,
/// failure and counting rules it follows (see the module docs for the
/// key contract).
pub struct ReportCache {
    mode: Mode,
    reports: SingleFlight<(u64, u64), Arc<SimReport>>,
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
            reports: SingleFlight::new(),
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
    /// bit-identical) and stores the result. With the empty binding,
    /// `run` may bind anything `plan` determines (see the module's key
    /// contract).
    ///
    /// `plan` is the plan's **content** key ([`plan_content_key`]).
    /// Concurrent requests for one exact key share one `run`, under
    /// [`SingleFlight`]'s rules.
    ///
    /// # Errors
    ///
    /// A failed or panicked run (surfaced as
    /// [`StepError::Panicked`](step_core::StepError::Panicked)),
    /// returned to the requester that ran it and to every requester
    /// coalesced on it; the next request for the key runs again.
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
        let (report, ran) = self
            .reports
            .get_or_run((plan, binding.fingerprint()), || run().map(Arc::new))?;
        if !ran {
            self.check_exact(&report, run)?;
        }
        Ok(Replay {
            report,
            resolution: if ran {
                Resolution::Simulated
            } else {
                Resolution::Exact
            },
        })
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
        let CacheStats { hits, misses, .. } = self.reports.stats();
        ReportCacheStats { hits, misses }
    }

    /// Distinct exact keys currently held (ready, in flight, or failed).
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the cache holds no reports.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}
