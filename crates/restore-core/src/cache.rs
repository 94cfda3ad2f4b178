//! Completed-join reuse (§4.5): data synthesized for one query is reused
//! for related queries, matched by exact path
//! ([`JoinCache::get_or_compute`]).
//!
//! The cache is built for concurrent serving:
//!
//! * **Single-flight synthesis** — concurrent requests for the same cold
//!   path block on one in-flight completion ([`JoinCache::get_or_compute`])
//!   instead of racing duplicates; the miss counter counts *syntheses*
//!   (distinct cold paths), not requests.
//! * **Memory budget** — entries carry an approximate byte size
//!   ([`CompletionOutput::approx_bytes`]), read again when a query attaches
//!   a projection or a relation to one ([`JoinCache::recharge`]); inserts
//!   and growth evict least-recently-used entries until the total fits
//!   [`JoinCache::budget_bytes`], so a long-running server does not grow
//!   without bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use restore_util::SingleFlight;

use crate::completion::CompletionOutput;
use crate::error::CoreResult;

/// `parking_lot`-style infallible lock: a poisoned mutex only happens if a
/// cache user panicked mid-insert, and the map is always left consistent,
/// so recovering the guard is safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Full cache counters (§4.5 instrumentation + serving diagnostics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a resident entry.
    pub hits: u64,
    /// Syntheses actually run (distinct cold paths, not requests).
    pub misses: u64,
    /// Requests that blocked on another thread's in-flight synthesis and
    /// shared its result (single-flight followers).
    pub waits: u64,
    /// Entries evicted to stay within the memory budget.
    pub evictions: u64,
    /// Approximate bytes currently resident.
    pub bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

struct Entry {
    out: Arc<CompletionOutput>,
    bytes: usize,
    /// Logical clock of the last touch (for LRU eviction).
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Vec<String>, Entry>,
    clock: u64,
    total_bytes: usize,
}

/// Thread-safe cache of completed joins keyed by the ordered path tables.
pub struct JoinCache {
    inner: Mutex<Inner>,
    flights: SingleFlight<Vec<String>, CoreResult<Arc<CompletionOutput>>>,
    /// Approximate memory budget in bytes; `0` = unbounded.
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    evictions: AtomicU64,
}

impl JoinCache {
    /// A cache that evicts least-recently-used entries once the resident
    /// estimate exceeds `budget_bytes` (`0` = unbounded).
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            flights: SingleFlight::new(),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Stat-free lookup that refreshes the entry's LRU stamp.
    fn lookup(&self, tables: &[String]) -> Option<Arc<CompletionOutput>> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.map.get_mut(tables)?;
        entry.stamp = clock;
        Some(Arc::clone(&entry.out))
    }

    /// Exact-path lookup.
    pub fn get(&self, tables: &[String]) -> Option<Arc<CompletionOutput>> {
        let out = self.lookup(tables);
        match &out {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// The serving entry point: returns the cached completion for `tables`,
    /// or runs `compute` to synthesize it — under **single-flight**
    /// semantics, so concurrent callers needing the same cold path share
    /// one synthesis (the leader computes and inserts; followers block and
    /// clone the leader's result, errors included).
    pub(crate) fn get_or_compute<F>(
        &self,
        tables: &[String],
        compute: F,
    ) -> CoreResult<Arc<CompletionOutput>>
    where
        F: FnOnce() -> CoreResult<Arc<CompletionOutput>>,
    {
        if let Some(out) = self.lookup(tables) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(out);
        }
        let key = tables.to_vec();
        let (result, leader) = self.flights.run(&key, || {
            // Re-check under the flight: this caller may have lost the race
            // to a leader that already finished and inserted.
            if let Some(out) = self.lookup(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(out);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let out = compute()?;
            self.put(key.clone(), Arc::clone(&out));
            Ok(out)
        });
        if !leader {
            self.waits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Inserts an entry, evicting least-recently-used entries while the
    /// resident estimate exceeds the budget (the fresh entry is never
    /// evicted by its own insert).
    pub fn put(&self, tables: Vec<String>, output: Arc<CompletionOutput>) {
        let bytes = output.approx_bytes();
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old) = inner.map.insert(
            tables.clone(),
            Entry {
                out: output,
                bytes,
                stamp,
            },
        ) {
            inner.total_bytes -= old.bytes;
        }
        inner.total_bytes += bytes;
        self.evict_down_to_budget(&mut inner, &tables);
    }

    /// Reads the size of the entry for `tables` again — a query attached
    /// something to its completion — and evicts as [`JoinCache::put`] does,
    /// never the grown entry itself. A no-op if the entry is gone. The
    /// caller must hold no lock of the completion.
    pub fn recharge(&self, tables: &[String]) {
        let mut inner = lock(&self.inner);
        let Some(entry) = inner.map.get_mut(tables) else {
            return;
        };
        let bytes = entry.out.approx_bytes();
        let old = std::mem::replace(&mut entry.bytes, bytes);
        inner.total_bytes = inner.total_bytes - old + bytes;
        self.evict_down_to_budget(&mut inner, tables);
    }

    /// Evicts least-recently-used entries other than `keep` while the
    /// resident estimate exceeds the budget.
    fn evict_down_to_budget(&self, inner: &mut Inner, keep: &[String]) {
        if self.budget_bytes == 0 {
            return;
        }
        while inner.total_bytes > self.budget_bytes && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| k.as_slice() != keep)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(e) = inner.map.remove(&victim) {
                inner.total_bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// All counters plus resident-size gauges.
    pub fn full_stats(&self) -> CacheStats {
        let inner = lock(&self.inner);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: inner.total_bytes,
            entries: inner.map.len(),
        }
    }

    /// Snapshot of all cached entries (diagnostics), sorted by chain: the
    /// same order in every process, whatever the map's hasher.
    pub(crate) fn entries(&self) -> Vec<(Vec<String>, Arc<CompletionOutput>)> {
        let inner = lock(&self.inner);
        let entry = |(k, v): (&Vec<String>, &Entry)| (k.clone(), Arc::clone(&v.out));
        let mut entries: Vec<_> = inner.map.iter().map(entry).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_db::Table;

    fn dummy_output(tables: &[&str]) -> Arc<CompletionOutput> {
        Arc::new(CompletionOutput {
            join: Table::new("j", vec![]),
            tables: tables.iter().map(|s| s.to_string()).collect(),
            syn: vec![Vec::new(); tables.len()],
            tf: Vec::new(),
            projections: Default::default(),
            relations: Default::default(),
        })
    }

    /// An output padded to a known approximate size.
    fn sized_output(tables: &[&str], rows: usize) -> Arc<CompletionOutput> {
        let mut out = CompletionOutput {
            join: Table::new("j", vec![]),
            tables: tables.iter().map(|s| s.to_string()).collect(),
            syn: vec![vec![false; rows]; tables.len()],
            tf: Vec::new(),
            projections: Default::default(),
            relations: Default::default(),
        };
        out.syn[0] = vec![true; rows];
        Arc::new(out)
    }

    fn key(tables: &[&str]) -> Vec<String> {
        tables.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn exact_hit_and_miss_counting() {
        let cache = JoinCache::with_budget(0);
        assert!(cache.get(&key(&["a", "b"])).is_none());
        cache.put(key(&["a", "b"]), dummy_output(&["a", "b"]));
        assert!(cache.get(&key(&["a", "b"])).is_some());
        let stats = cache.full_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn entries_come_sorted_by_chain() {
        let cache = JoinCache::with_budget(0);
        for chain in ["b c", "a c", "c", "a b c", "b"] {
            let chain: Vec<&str> = chain.split(' ').collect();
            cache.put(key(&chain), dummy_output(&chain));
        }
        let listed: Vec<String> = cache.entries().iter().map(|(k, _)| k.join(" ")).collect();
        assert_eq!(listed, ["a b c", "a c", "b", "b c", "c"]);
    }

    #[test]
    fn get_or_compute_runs_once_per_path() {
        let cache = JoinCache::with_budget(0);
        let mut calls = 0;
        for _ in 0..3 {
            let out = cache
                .get_or_compute(&key(&["a", "b"]), || {
                    calls += 1;
                    Ok(dummy_output(&["a", "b"]))
                })
                .unwrap();
            assert_eq!(out.tables, key(&["a", "b"]));
        }
        assert_eq!(calls, 1);
        let stats = cache.full_stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn get_or_compute_propagates_errors_without_caching() {
        let cache = JoinCache::with_budget(0);
        let err = cache.get_or_compute(&key(&["a"]), || {
            Err(crate::error::CoreError::Invalid("boom".into()))
        });
        assert!(err.is_err());
        assert_eq!(cache.full_stats().entries, 0, "errors must not be cached");
        // The next call retries.
        assert!(cache
            .get_or_compute(&key(&["a"]), || Ok(dummy_output(&["a"])))
            .is_ok());
        assert_eq!(cache.full_stats().misses, 2);
    }

    #[test]
    fn concurrent_same_path_synthesizes_once() {
        let cache = Arc::new(JoinCache::with_budget(0));
        let synths = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(6));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let (cache, synths, barrier) = (
                Arc::clone(&cache),
                Arc::clone(&synths),
                Arc::clone(&barrier),
            );
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                cache
                    .get_or_compute(&key(&["a", "b"]), || {
                        synths.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(dummy_output(&["a", "b"]))
                    })
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().tables, key(&["a", "b"]));
        }
        assert_eq!(
            synths.load(Ordering::SeqCst),
            cache.full_stats().misses,
            "misses must count syntheses"
        );
        assert_eq!(cache.full_stats().misses, 1, "one synthesis for one path");
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let per_entry = sized_output(&["x"], 1000).approx_bytes();
        assert!(per_entry >= 1000);
        // Room for two entries, not three.
        let cache = JoinCache::with_budget(2 * per_entry + per_entry / 2);
        cache.put(key(&["a"]), sized_output(&["a"], 1000));
        cache.put(key(&["b"]), sized_output(&["b"], 1000));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get(&key(&["a"])).is_some());
        cache.put(key(&["c"]), sized_output(&["c"], 1000));
        assert_eq!(cache.full_stats().entries, 2);
        assert!(cache.get(&key(&["b"])).is_none(), "LRU entry must go");
        assert!(cache.get(&key(&["a"])).is_some());
        assert!(cache.get(&key(&["c"])).is_some());
        let stats = cache.full_stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= cache.budget_bytes);
    }

    #[test]
    fn oversized_entry_survives_its_own_insert() {
        let cache = JoinCache::with_budget(8);
        cache.put(key(&["big"]), sized_output(&["big"], 10_000));
        assert_eq!(
            cache.full_stats().entries,
            1,
            "the fresh entry is never self-evicted"
        );
        cache.put(key(&["big2"]), sized_output(&["big2"], 10_000));
        assert_eq!(
            cache.full_stats().entries,
            1,
            "over budget, the older entry goes"
        );
        assert!(cache.get(&key(&["big2"])).is_some());
    }
}
