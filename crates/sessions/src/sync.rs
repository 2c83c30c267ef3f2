//! Poison-tolerant acquisition of the tracker's shard locks, plus a
//! debug-only ledger that lets tests prove how many of them a code path
//! takes.
//!
//! Lock poisoning cannot leave our guarded state half-updated: every
//! critical section in this workspace either completes or the process is
//! already panicking its way down. Recovering the guard (instead of
//! propagating the poison) keeps the other request threads serving
//! during teardown. Centralized here so the poisoning policy lives in
//! one place.
//!
//! # Lock accounting (debug builds only)
//!
//! The ledger counts shard locks, because that is what it can see:
//! every acquisition of a tracker shard mutex goes through
//! [`lock_shard_or_recover`] and nothing else does. A lock taken any
//! other way (the CAPTCHA service's redeemed-id window is the one other
//! mutex on a request path, and recovers its poison by hand) is not in
//! it. The counter is thread-local, so a test measuring its own thread
//! is exact even while other test threads hammer their own locks. In
//! release builds it compiles away.

use std::sync::{Mutex, MutexGuard};

/// Debug-only, thread-local shard-lock counter.
#[cfg(debug_assertions)]
pub mod counters {
    use std::cell::Cell;

    thread_local! {
        static SHARD_LOCKS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count_shard() {
        SHARD_LOCKS.with(|c| c.set(c.get() + 1));
    }

    /// Zeroes this thread's counter.
    pub fn reset() {
        SHARD_LOCKS.with(|c| c.set(0));
    }

    /// Shard locks this thread has taken since the last [`reset`].
    pub fn snapshot() -> u64 {
        SHARD_LOCKS.with(Cell::get)
    }
}

/// Locks a tracker *shard* mutex, recovering the guard if a panicking
/// thread poisoned it. In debug builds the acquisition lands in the
/// lock ledger.
pub fn lock_shard_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    #[cfg(debug_assertions)]
    counters::count_shard();
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guard_recovers_after_a_panicked_holder() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.lock().is_err(), "mutex must actually be poisoned");
        assert_eq!(*lock_shard_or_recover(&m), 7);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn counters_count_shard_locks_and_are_thread_local() {
        let m = Mutex::new(0);
        counters::reset();
        drop(lock_shard_or_recover(&m));
        drop(lock_shard_or_recover(&m));
        // A lock taken any other way is not in the ledger.
        drop(m.lock().unwrap());
        assert_eq!(counters::snapshot(), 2);
        // Another thread's acquisitions never leak into this ledger.
        std::thread::spawn(|| {
            let m = Mutex::new(0);
            drop(lock_shard_or_recover(&m));
        })
        .join()
        .unwrap();
        assert_eq!(counters::snapshot(), 2);
        counters::reset();
        assert_eq!(counters::snapshot(), 0);
    }
}
