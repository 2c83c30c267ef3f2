//! Poison-tolerant acquisition of the tracker's shard locks, and a
//! debug-only ledger of them.
//!
//! Lock poisoning cannot leave our guarded state half-updated: every
//! critical section in this workspace either completes or the process is
//! already panicking its way down. Recovering the guard (instead of
//! propagating the poison) keeps the other request threads serving
//! during teardown.
//!
//! # Lock accounting (debug builds only)
//!
//! Every shard lock is taken through [`lock_shard_or_recover`], which
//! counts it per thread (exact for a test measuring its own thread) and
//! panics if the thread already holds one: a call made from inside a
//! critical section (a snapshot from a gate) fails loudly instead of
//! deadlocking. Other mutexes are not in it. In release builds it all
//! compiles away.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Debug-only, thread-local shard-lock counter.
#[cfg(debug_assertions)]
pub mod counters {
    use std::cell::Cell;

    thread_local! {
        static SHARD_LOCKS: Cell<u64> = const { Cell::new(0) };
        pub(super) static HELD: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn count_shard() {
        assert!(!HELD.replace(true), "a shard lock taken while one is held");
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

/// A held shard lock; in debug builds its release leaves the ledger.
pub struct ShardGuard<'a, T>(MutexGuard<'a, T>);

impl<T> Deref for ShardGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for ShardGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for ShardGuard<'_, T> {
    fn drop(&mut self) {
        counters::HELD.set(false);
    }
}

/// Locks a tracker *shard* mutex, recovering the guard if a panicking
/// thread poisoned it. In debug builds the acquisition lands in the
/// lock ledger.
pub fn lock_shard_or_recover<T>(mutex: &Mutex<T>) -> ShardGuard<'_, T> {
    #[cfg(debug_assertions)]
    counters::count_shard();
    ShardGuard(mutex.lock().unwrap_or_else(PoisonError::into_inner))
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

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a shard lock taken while one is held")]
    fn a_second_shard_lock_while_one_is_held_panics() {
        let (m, n) = (Mutex::new(0), Mutex::new(0));
        let _held = lock_shard_or_recover(&m);
        drop(lock_shard_or_recover(&n));
    }
}
