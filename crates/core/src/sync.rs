//! Poisoning-recovering lock helpers.
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

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{AssertUnwindSafe, catch_unwind};
    use std::sync::Mutex;

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
}
