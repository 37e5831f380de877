//! Singleflight de-duplication of identical in-flight loads.
//!
//! When several concurrent subqueries miss the cache on the same chunk's
//! template (or summary) at the same instant, each would issue its own DFS
//! read of the same bytes. [`Singleflight`] collapses them: the first
//! caller becomes the *leader* and performs the load; followers arriving
//! while it is in flight block until the leader finishes and share its
//! result. Errors are propagated to every waiter of that flight but are
//! **not** cached — the next caller starts a fresh flight, so transient
//! failures stay retryable.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use waterwheel_core::{Result, WwError};

/// One in-flight load: waiters park on the condvar until `slot` is filled.
struct Flight<V> {
    slot: Mutex<Option<Result<V, String>>>,
    done: Condvar,
}

/// Poison-free lock: a panicked holder does not wedge the flight.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

waterwheel_core::counters! {
    /// How a [`Singleflight`]'s loads were answered.
    pub struct SingleflightStats {
        /// Loads actually executed (leaders).
        led,
        /// Loads answered by joining another caller's flight.
        shared,
    }
}

/// Collapses concurrent loads of the same key into one execution.
pub struct Singleflight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
    stats: Arc<SingleflightStats>,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for Singleflight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Singleflight<K, V> {
    /// Creates an empty singleflight group.
    pub fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
            stats: Arc::default(),
        }
    }

    /// Leader/follower counters.
    pub fn stats(&self) -> &Arc<SingleflightStats> {
        &self.stats
    }

    /// Loads executed as the leader.
    pub fn led(&self) -> u64 {
        self.stats.led.load(Ordering::Relaxed)
    }

    /// Loads de-duplicated by joining an existing flight.
    pub fn shared(&self) -> u64 {
        self.stats.shared.load(Ordering::Relaxed)
    }

    /// Runs `load` for `key`, unless an identical load is already in
    /// flight — in that case blocks until it completes and returns its
    /// result. Errors are stringified for sharing (waiters receive
    /// [`WwError::InvalidState`] carrying the leader's message; the leader
    /// itself returns the original error).
    pub fn load(&self, key: K, load: impl FnOnce() -> Result<V>) -> Result<V> {
        let (flight, leader) = {
            let mut inflight = lock(&self.inflight);
            match inflight.get(&key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    inflight.insert(key.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            self.stats.shared.fetch_add(1, Ordering::Relaxed);
            let mut slot = lock(&flight.slot);
            while slot.is_none() {
                slot = flight.done.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
            return match slot.as_ref().expect("flight finished") {
                Ok(v) => Ok(v.clone()),
                Err(msg) => Err(WwError::InvalidState(format!("shared load failed: {msg}"))),
            };
        }
        self.stats.led.fetch_add(1, Ordering::Relaxed);
        let result = load();
        // Unregister first so callers arriving after completion start a
        // fresh flight (important for errors), then wake the waiters.
        lock(&self.inflight).remove(&key);
        let mut slot = lock(&flight.slot);
        *slot = Some(match &result {
            Ok(v) => Ok(v.clone()),
            Err(e) => Err(e.to_string()),
        });
        flight.done.notify_all();
        drop(slot);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_loads_each_execute() {
        let sf: Singleflight<u64, u64> = Singleflight::new();
        assert_eq!(sf.load(1, || Ok(10)).unwrap(), 10);
        assert_eq!(sf.load(1, || Ok(20)).unwrap(), 20);
        assert_eq!(sf.led(), 2);
        assert_eq!(sf.shared(), 0);
    }

    #[test]
    fn concurrent_loads_of_one_key_execute_once() {
        let sf: Arc<Singleflight<u64, u64>> = Arc::new(Singleflight::new());
        let executions = AtomicU64::new(0);
        let gate = Arc::new(std::sync::Barrier::new(8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let sf = Arc::clone(&sf);
                let gate = Arc::clone(&gate);
                let executions = &executions;
                scope.spawn(move || {
                    gate.wait();
                    let v = sf
                        .load(7, || {
                            executions.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough for the
                            // other threads to join it.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok(42u64)
                        })
                        .unwrap();
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(executions.load(Ordering::SeqCst), 1, "load ran twice");
        assert_eq!(sf.led(), 1);
        assert_eq!(sf.shared(), 7);
    }

    #[test]
    fn distinct_keys_do_not_serialize() {
        let sf: Arc<Singleflight<u64, u64>> = Arc::new(Singleflight::new());
        std::thread::scope(|scope| {
            for k in 0..4u64 {
                let sf = Arc::clone(&sf);
                scope.spawn(move || {
                    assert_eq!(sf.load(k, || Ok(k * 2)).unwrap(), k * 2);
                });
            }
        });
        assert_eq!(sf.led(), 4);
    }

    #[test]
    fn errors_reach_waiters_but_are_not_cached() {
        let sf: Singleflight<u64, u64> = Singleflight::new();
        assert!(sf.load(1, || Err(WwError::Injected("boom"))).is_err());
        // The failed flight is gone: the next load runs fresh and succeeds.
        assert_eq!(sf.load(1, || Ok(5)).unwrap(), 5);
    }
}
