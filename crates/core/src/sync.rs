//! Poisoning-recovering lock helpers and the workspace's one
//! single-flight cache.
//!
//! The simulator and the sweep service isolate panics with
//! `catch_unwind`, which means a `Mutex` or `Condvar` can legitimately
//! be poisoned by a fault that was already converted into a typed
//! error. Every shared structure in this workspace is either discarded
//! after a failed run (per-run shard state, pooled state that only
//! parks on success) or explicitly repaired by its owner (cache slots
//! transition to a `Failed` state), so poisoning carries no information
//! here — these helpers recover the guard via
//! [`std::sync::PoisonError::into_inner`] instead of aborting the whole
//! process for a fault that was already contained. [`panic_message`]
//! turns the payload those `catch_unwind` sites catch into the text of
//! their typed error.
//!
//! [`SingleFlight`] is the claim protocol behind every cache in the
//! workspace: the sweep service's plan cache and the simulator's report
//! cache are thin typed wrappers over it.

use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{AssertUnwindSafe, catch_unwind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::error::{Result, StepError};

/// Lock `m`, recovering the guard if a panicking holder poisoned it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to `m`'s value, recovering from poisoning.
pub fn get_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv`, recovering the reacquired guard from poisoning.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort text of a panic payload caught by `catch_unwind`.
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cumulative [`SingleFlight`] counters, under its counting rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests resolved without running: a stored value, or the error
    /// of the run they coalesced on.
    pub hits: u64,
    /// Requests that took the claim and ran.
    pub misses: u64,
    /// Runs that stored a value.
    pub builds: u64,
    /// Runs that returned an error or panicked.
    pub failures: u64,
}

/// A key's slot: ready, claimed by an in-flight run, or failed.
enum Slot<V> {
    Building { epoch: u64 },
    Ready(V),
    Failed { error: StepError, epoch: u64 },
}

/// A keyed single-flight cache: the first request for a key runs the
/// producer and stores its value, requests that arrive while it runs
/// wait and share its outcome, and later requests get the stored value.
///
/// # Claims and failures
///
/// At most one run per key is in flight: a request that takes the claim
/// marks the slot `Building`, stamped with a cache-wide epoch, and runs
/// outside the lock. A request that finds the slot `Building` sleeps
/// until *that* claim resolves. If the slot then holds a failure with
/// the same epoch, the waiter returns that error without running; if a
/// newer request has since retaken the claim, the waiter starts over.
/// A failure is sticky but never stored as a value: the next request
/// retakes the claim and runs again. Runs execute under `catch_unwind`,
/// so a panic resolves the slot as [`StepError::Panicked`] like any
/// other error, and no waiter sleeps past the run it coalesced on.
///
/// # Counting rule
///
/// Every request counts once, where it resolves, however many times it
/// woke first:
///
/// - a stored value, or the error of the run it coalesced on, is a hit;
/// - taking the claim is a miss — also for a waiter that wakes to a
///   newer failure and retakes the claim — and its run ends as one
///   build or one failure.
///
/// So `hits + misses` equals the requests made and
/// `misses == builds + failures` under any interleaving. When runs
/// succeed, the first request for a key is its only miss however the
/// requests interleave, so a warm cache shows `builds` equal to the
/// distinct keys and CI can pin the counters exactly at any worker
/// count.
pub struct SingleFlight<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    ready: Condvar,
    /// Last claim's epoch. Only advanced under the `slots` lock.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    failures: AtomicU64,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `key`: the stored value, the outcome of the in-flight
    /// run for it, or — when this request takes the claim — the outcome
    /// of `run`, which is stored on success. Returns the value and
    /// whether this request ran `run`.
    ///
    /// # Errors
    ///
    /// The error of this request's run, or of the run it coalesced on
    /// (a panic becomes [`StepError::Panicked`]).
    pub fn get_or_run(&self, key: K, run: impl FnOnce() -> Result<V>) -> Result<(V, bool)> {
        let mut slots = lock(&self.slots);
        let my_epoch = loop {
            match slots.get(&key) {
                Some(Slot::Ready(value)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((value.clone(), false));
                }
                Some(&Slot::Building { epoch }) => {
                    #[cfg(test)]
                    tests::signal_wait();
                    while matches!(slots.get(&key), Some(Slot::Building { epoch: e }) if *e == epoch)
                    {
                        slots = wait(&self.ready, slots);
                    }
                    if let Some(Slot::Failed { error, epoch: e }) = slots.get(&key)
                        && *e == epoch
                    {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Err(error.clone());
                    }
                }
                Some(Slot::Failed { .. }) | None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
                    slots.insert(key.clone(), Slot::Building { epoch });
                    break epoch;
                }
            }
        };
        drop(slots);

        let ran = catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|p| Err(StepError::Panicked(panic_message(p.as_ref()))));
        let mut slots = lock(&self.slots);
        let result = match ran {
            Ok(value) => {
                self.builds.fetch_add(1, Ordering::Relaxed);
                slots.insert(key, Slot::Ready(value.clone()));
                Ok((value, true))
            }
            Err(error) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                slots.insert(
                    key,
                    Slot::Failed {
                        error: error.clone(),
                        epoch: my_epoch,
                    },
                );
                Err(error)
            }
        };
        drop(slots);
        self.ready.notify_all();
        result
    }

    /// Cumulative counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }

    /// Distinct keys held (ready, in flight, or failed).
    pub fn len(&self) -> usize {
        lock(&self.slots).len()
    }

    /// Whether the cache holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

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

    #[test]
    fn lock_recovers_after_a_panicking_holder() {
        let m = Mutex::new(7u32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
        let mut m = m;
        *get_mut(&mut m) = 9;
        assert_eq!(*lock(&m), 9);
    }

    /// Runs one request for key 1 against a cache whose slot is
    /// `Building` at epoch 1, on a thread that signals just before it
    /// sleeps. Once it is asleep, the test plays the earlier claimants
    /// and writes `Failed` at `failed_epoch` under the slots lock, so
    /// the interleaving is forced, not raced. Returns the request's
    /// outcome and whether its own closure ran.
    fn wake_waiter_on_failure(
        cache: &SingleFlight<u32, u32>,
        failed_epoch: u64,
    ) -> (Result<(u32, bool)>, bool) {
        lock(&cache.slots).insert(1, Slot::Building { epoch: 1 });
        cache.epoch.store(2, Ordering::Relaxed);
        let (tx, asleep) = mpsc::channel();
        let called = AtomicBool::new(false);
        let got = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                WAIT_PROBE.with(|probe| *probe.borrow_mut() = Some(tx));
                cache.get_or_run(1, || {
                    called.store(true, Ordering::Relaxed);
                    Ok(42)
                })
            });
            asleep.recv().expect("the waiter signals before it sleeps");
            lock(&cache.slots).insert(
                1,
                Slot::Failed {
                    error: StepError::Exec("claimed run failed".into()),
                    epoch: failed_epoch,
                },
            );
            cache.ready.notify_all();
            waiter.join().expect("waiter thread")
        });
        (got, called.load(Ordering::Relaxed))
    }

    /// A request that sleeps on a run which then fails shares that run's
    /// error: it is a hit on the run it coalesced on, and it never runs
    /// its own closure.
    #[test]
    fn waiter_coalesced_on_a_failing_run_shares_its_error_as_a_hit() {
        let cache = SingleFlight::new();
        let (got, called) = wake_waiter_on_failure(&cache, 1);
        assert!(
            matches!(&got, Err(StepError::Exec(m)) if m == "claimed run failed"),
            "got: {got:?}"
        );
        assert!(!called, "a coalesced waiter must not run");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                builds: 0,
                failures: 0
            }
        );
    }

    /// A request that sleeps on one run and wakes to a *newer* failure —
    /// the run it waited on failed, then a later request retook the key
    /// and failed too — takes the claim itself, so it counts a miss, not
    /// a hit, and `misses == builds + failures` holds.
    #[test]
    fn waiter_woken_by_a_newer_failure_counts_its_own_claim_as_a_miss() {
        let cache = SingleFlight::new();
        let (got, called) = wake_waiter_on_failure(&cache, 2);
        assert_eq!(
            got.expect("the waiter retakes the claim and runs"),
            (42, true)
        );
        assert!(called);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                builds: 1,
                failures: 0
            }
        );
    }
}
