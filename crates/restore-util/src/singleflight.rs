//! Keyed single-flight execution: concurrent callers asking for the same
//! key share one computation instead of racing duplicates.
//!
//! The serving cache uses this so that N clients hitting a cold completion
//! path trigger exactly one synthesis — the leader computes, the followers
//! block on the leader's per-key slot and wake with a clone of its result.
//! Built on `std` only (`Mutex` + `Condvar`), mirroring the repo's
//! no-external-deps constraint.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// `parking_lot`-style infallible lock (poisoning only happens if a holder
/// panicked, and every critical section here leaves the data consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A write-once slot many threads can block on — a `Once`-style rendezvous
/// carrying a value.
pub(crate) struct Flight<T> {
    state: Mutex<FlightState<T>>,
    ready: Condvar,
}

enum FlightState<T> {
    Pending,
    Done(T),
    /// The leader panicked before filling the slot.
    Poisoned,
}

impl<T: Clone> Flight<T> {
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        }
    }

    /// Publishes the value and wakes every waiter. May be called once.
    pub(crate) fn fill(&self, value: T) {
        let mut st = lock(&self.state);
        debug_assert!(matches!(*st, FlightState::Pending), "flight filled twice");
        *st = FlightState::Done(value);
        self.ready.notify_all();
    }

    fn poison(&self) {
        let mut st = lock(&self.state);
        if matches!(*st, FlightState::Pending) {
            *st = FlightState::Poisoned;
            self.ready.notify_all();
        }
    }

    /// Blocks until the leader publishes, then returns a clone.
    pub(crate) fn wait(&self) -> T {
        let mut st = lock(&self.state);
        loop {
            match &*st {
                FlightState::Done(v) => return v.clone(),
                FlightState::Poisoned => panic!("single-flight leader panicked"),
                FlightState::Pending => {
                    st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }
}

impl<T: Clone> Default for Flight<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Deduplicates concurrent computations by key: the first caller for a key
/// becomes the *leader* and runs `f`; callers arriving while the leader is
/// in flight block and share its result. Once the leader finishes, the key
/// is retired — a later call computes afresh (the layer above is expected
/// to consult its cache first).
pub struct SingleFlight<K, T> {
    inflight: Mutex<HashMap<K, Arc<Flight<T>>>>,
}

impl<K: Eq + Hash + Clone, T: Clone> SingleFlight<K, T> {
    pub fn new() -> Self {
        Self {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Runs `f` under single-flight semantics for `key`. Returns the value
    /// and whether this caller was the leader (`true`) or a follower that
    /// shared a leader's result (`false`).
    pub fn run<F: FnOnce() -> T>(&self, key: &K, f: F) -> (T, bool) {
        let flight = {
            let mut inflight = lock(&self.inflight);
            if let Some(existing) = inflight.get(key) {
                Arc::clone(existing)
            } else {
                let flight = Arc::new(Flight::new());
                inflight.insert(key.clone(), Arc::clone(&flight));
                drop(inflight);
                // Leader: compute outside the map lock so other keys (and
                // followers of this one) proceed. A panic in `f` poisons
                // the flight so followers fail loudly instead of hanging.
                let guard = RetireGuard {
                    sf: self,
                    key,
                    flight: &flight,
                };
                let value = f();
                flight.fill(value.clone());
                drop(guard);
                return (value, true);
            }
        };
        (flight.wait(), false)
    }
}

impl<K: Eq + Hash + Clone, T: Clone> Default for SingleFlight<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Retires the key on scope exit — including by panic, in which case the
/// flight is poisoned first so followers don't block forever.
struct RetireGuard<'a, K: Eq + Hash + Clone, T: Clone> {
    sf: &'a SingleFlight<K, T>,
    key: &'a K,
    flight: &'a Arc<Flight<T>>,
}

impl<K: Eq + Hash + Clone, T: Clone> Drop for RetireGuard<'_, K, T> {
    fn drop(&mut self) {
        self.flight.poison();
        lock(&self.sf.inflight).remove(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn single_caller_leads() {
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        let (v, leader) = sf.run(&1, || 41 + 1);
        assert_eq!(v, 42);
        assert!(leader);
        assert!(
            lock(&sf.inflight).is_empty(),
            "key must retire after the leader finishes"
        );
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let sf: Arc<SingleFlight<String, u64>> = Arc::new(SingleFlight::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (sf, calls, barrier) = (Arc::clone(&sf), Arc::clone(&calls), Arc::clone(&barrier));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                sf.run(&"k".to_string(), || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open long enough for followers to pile up.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    7u64
                })
            }));
        }
        let results: Vec<(u64, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.iter().all(|(v, _)| *v == 7));
        let leaders = results.iter().filter(|(_, l)| *l).count();
        // Followers may arrive after the leader retired the key and lead a
        // fresh flight; what single-flight guarantees is that simultaneous
        // callers dedupe, i.e. calls == leaders <= threads.
        assert_eq!(calls.load(Ordering::SeqCst), leaders);
    }

    #[test]
    fn distinct_keys_run_independently() {
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        let (a, la) = sf.run(&1, || 10);
        let (b, lb) = sf.run(&2, || 20);
        assert_eq!((a, b), (10, 20));
        assert!(la && lb);
    }

    #[test]
    fn leader_panic_poisons_followers() {
        let sf: Arc<SingleFlight<u32, u32>> = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(2));
        let leader = {
            let (sf, barrier) = (Arc::clone(&sf), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let _ = sf.run(&1, || {
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("leader died")
                });
            })
        };
        barrier.wait();
        // The follower either joins the doomed flight (panics on wait) or
        // arrives after retirement and leads its own successful flight.
        let follower = std::thread::spawn(move || sf.run(&1, || 5));
        assert!(leader.join().is_err());
        match follower.join() {
            Err(_) => {}                    // poisoned flight propagated
            Ok((v, _)) => assert_eq!(v, 5), // raced past the retirement
        }
    }
}
