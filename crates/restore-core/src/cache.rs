//! Completed-join reuse (§4.5): data synthesized for one query is reused
//! for related queries, matched by exact path
//! ([`JoinCache::get_or_compute`]) if it drew the columns they read; one
//! that drew fewer is synthesized again at the wider need and replaced.
//!
//! The cache is built for concurrent serving:
//!
//! * **Single-flight synthesis** — concurrent requests for the same cold
//!   path block on one in-flight completion ([`JoinCache::get_or_compute`])
//!   instead of racing duplicates; the miss counter counts *syntheses*,
//!   not requests.
//! * **Memory budget** — entries carry an approximate byte size
//!   ([`CompletionOutput::approx_bytes`]), read again when a query attaches
//!   a projection or a relation to one ([`JoinCache::recharge`]); inserts
//!   and growth evict least-recently-used entries until the total fits
//!   [`JoinCache::budget_bytes`], so a long-running server does not grow
//!   without bound.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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
    /// Syntheses actually run, not requests: a cold path, or one whose
    /// entry drew fewer columns than the request reads.
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

/// One in-flight synthesis: the cell every caller needing the chain waits on.
type Flight = Arc<OnceLock<CoreResult<Arc<CompletionOutput>>>>;

/// Thread-safe cache of completed joins keyed by the ordered path tables.
pub(crate) struct JoinCache {
    inner: Mutex<Inner>,
    /// The chains being synthesized right now.
    flights: Mutex<HashMap<Vec<String>, Flight>>,
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
    pub(crate) fn with_budget(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            flights: Mutex::default(),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The entry for `tables` if it drew at least `need` columns — a hit,
    /// which refreshes the entry's LRU stamp.
    fn hit(&self, tables: &[String], need: usize) -> Option<Arc<CompletionOutput>> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.map.get_mut(tables).filter(|e| e.out.drawn >= need)?;
        entry.stamp = clock;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.out))
    }

    /// The serving entry point: the cached completion for `tables` if it
    /// drew at least `need` columns, else `compute`'s — **single-flight**:
    /// every caller takes the chain's cell from `flights`; the one whose
    /// closure runs leads (computes, inserts, retires the cell), the others
    /// block in `get_or_init` and clone its result, errors included, unless
    /// it drew too few columns: then they take a cell again. A blocked
    /// follower gives its core back to the budget ([`restore_util::idle`]);
    /// only the leader counts itself busy. A leader that panics leaves the
    /// cell empty, so a waiter runs the synthesis again.
    pub(crate) fn get_or_compute<F>(
        &self,
        tables: &[String],
        need: usize,
        compute: F,
    ) -> CoreResult<Arc<CompletionOutput>>
    where
        F: FnOnce() -> CoreResult<Arc<CompletionOutput>>,
    {
        if let Some(out) = self.hit(tables, need) {
            return Ok(out);
        }
        let mut compute = Some(compute);
        loop {
            let flight = Arc::clone(lock(&self.flights).entry(tables.to_vec()).or_default());
            let mut led = false;
            let idle = restore_util::idle();
            let result = flight.get_or_init(|| {
                let _busy = restore_util::busy();
                led = true;
                // Re-check under the flight: this caller may have lost the
                // race to a leader that already finished and inserted.
                let result = self.hit(tables, need).map(Ok).unwrap_or_else(|| {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    // Drop a narrower entry before synthesizing the wider one.
                    self.take(tables);
                    let compute = compute.take().expect("a caller leads once");
                    compute().inspect(|out| self.put(tables.to_vec(), Arc::clone(out)))
                });
                // Retired before the result is published: later callers find
                // the entry, or (after an error) lead anew.
                lock(&self.flights).remove(tables);
                result
            });
            drop(idle);
            if !led {
                if matches!(result, Ok(out) if out.drawn < need) {
                    continue;
                }
                self.waits.fetch_add(1, Ordering::Relaxed);
            }
            return result.clone();
        }
    }

    /// Removes the entry for `tables`, for the caller to drop unlocked.
    fn take(&self, tables: &[String]) -> Option<Entry> {
        let mut inner = lock(&self.inner);
        let entry = inner.map.remove(tables)?;
        inner.total_bytes -= entry.bytes;
        Some(entry)
    }

    /// Inserts an entry, replacing the chain's old one, and evicts
    /// least-recently-used entries while the resident estimate exceeds the
    /// budget (the fresh entry is never evicted by its own insert).
    pub(crate) fn put(&self, tables: Vec<String>, output: Arc<CompletionOutput>) {
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
    pub(crate) fn recharge(&self, tables: &[String]) {
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
    pub(crate) fn full_stats(&self) -> CacheStats {
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

    /// An output padded by `rows` synthesized rows to a known approximate
    /// size, which drew `drawn` columns of its last table.
    fn output(tables: &[&str], rows: usize, drawn: usize) -> Arc<CompletionOutput> {
        let mut syn = vec![vec![false; rows]; tables.len()];
        syn[0] = vec![true; rows];
        Arc::new(CompletionOutput {
            join: Table::new("j", vec![]),
            tables: tables.iter().map(|s| s.to_string()).collect(),
            syn,
            tf: Vec::new(),
            drawn,
            projections: Default::default(),
            relations: Default::default(),
        })
    }

    fn key(tables: &[&str]) -> Vec<String> {
        tables.iter().map(|s| s.to_string()).collect()
    }

    /// A wider request than an entry drew synthesizes again and replaces
    /// it, and a follower that needs more than its leader drew leads a
    /// flight of its own — a miss, not a wait.
    #[test]
    fn an_entry_that_drew_too_few_columns_is_not_a_hit() {
        let cache = JoinCache::with_budget(0);
        let ab = key(&["a", "b"]);
        let drew = |n| move || Ok(output(&["a", "b"], 0, n));
        let drawn = |need, n| cache.get_or_compute(&ab, need, drew(n)).unwrap().drawn;
        assert_eq!(drawn(1, 1), 1, "cold: a miss");
        assert_eq!(drawn(0, 4), 1, "narrower: a hit");
        assert_eq!(drawn(3, 3), 3, "wider: a miss that replaces the entry");
        assert_eq!(drawn(1, 4), 3, "covered by the wider entry: a hit");
        let stats = cache.full_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 1));

        let cd = key(&["c", "d"]);
        let inside = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                cache.get_or_compute(&cd, 1, || {
                    inside.wait();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Ok(output(&["c", "d"], 0, 1))
                })
            });
            inside.wait();
            let follower = cache.get_or_compute(&cd, 4, || Ok(output(&["c", "d"], 0, 4)));
            assert_eq!(follower.unwrap().drawn, 4, "a covering entry");
            assert_eq!(leader.join().unwrap().unwrap().drawn, 1);
        });
        let stats = cache.full_stats();
        assert_eq!((stats.hits, stats.waits, stats.misses), (2, 0, 4));
        assert_eq!(cache.hit(&cd, 4).map(|out| out.drawn), Some(4), "replaced");
    }

    #[test]
    fn entries_come_sorted_by_chain() {
        let cache = JoinCache::with_budget(0);
        for chain in ["b c", "a c", "c", "a b c", "b"] {
            let chain: Vec<&str> = chain.split(' ').collect();
            cache.put(key(&chain), output(&chain, 0, 0));
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
                .get_or_compute(&key(&["a", "b"]), 0, || {
                    calls += 1;
                    Ok(output(&["a", "b"], 0, 0))
                })
                .unwrap();
            assert_eq!(out.tables, key(&["a", "b"]));
        }
        assert_eq!(calls, 1);
        let stats = cache.full_stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
        // Another path leads a flight of its own.
        let other = cache.get_or_compute(&key(&["a"]), 0, || Ok(output(&["a"], 0, 0)));
        assert_eq!(other.unwrap().tables, key(&["a"]));
        assert_eq!(cache.full_stats().misses, 2);
    }

    #[test]
    fn get_or_compute_propagates_errors_without_caching() {
        let cache = JoinCache::with_budget(0);
        let err = cache.get_or_compute(&key(&["a"]), 0, || {
            Err(crate::error::CoreError::Invalid("boom".into()))
        });
        assert!(err.is_err());
        assert_eq!(cache.full_stats().entries, 0, "errors must not be cached");
        // The next call retries.
        assert!(cache
            .get_or_compute(&key(&["a"]), 0, || Ok(output(&["a"], 0, 0)))
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
                    .get_or_compute(&key(&["a", "b"]), 0, || {
                        synths.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok(output(&["a", "b"], 0, 0))
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

    /// The serving stack's only dedupe survives a panicking synthesis: a
    /// follower waiting on the chain runs the synthesis again, the others
    /// share its result — none hangs — and the cache stays consistent for
    /// the next call.
    #[test]
    fn a_panicking_leader_neither_hangs_followers_nor_corrupts_the_cache() {
        let (cache, ab) = (JoinCache::with_budget(0), key(&["a", "b"]));
        let inside = std::sync::Barrier::new(4);
        let compute = || Ok(output(&["a", "b"], 100, 0));
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                cache.get_or_compute(&ab, 0, || {
                    inside.wait();
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("synthesis died")
                })
            });
            let follow = || {
                inside.wait();
                cache.get_or_compute(&ab, 0, compute)
            };
            let followers: Vec<_> = (0..3).map(|_| s.spawn(follow)).collect();
            assert!(leader.join().is_err(), "the leader panics");
            for led_its_own in followers.into_iter().filter_map(|f| f.join().ok()) {
                assert_eq!(led_its_own.unwrap().tables, ab);
            }
        });
        let out = cache.get_or_compute(&ab, 0, compute).unwrap();
        let stats = cache.full_stats();
        assert_eq!((stats.entries, stats.bytes), (1, out.approx_bytes()));
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let per_entry = output(&["x"], 1000, 0).approx_bytes();
        assert!(per_entry >= 1000);
        // Room for two entries, not three.
        let cache = JoinCache::with_budget(2 * per_entry + per_entry / 2);
        cache.put(key(&["a"]), output(&["a"], 1000, 0));
        cache.put(key(&["b"]), output(&["b"], 1000, 0));
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.hit(&key(&["a"]), 0).is_some());
        cache.put(key(&["c"]), output(&["c"], 1000, 0));
        assert_eq!(cache.full_stats().entries, 2);
        assert!(cache.hit(&key(&["b"]), 0).is_none(), "LRU entry must go");
        assert!(cache.hit(&key(&["a"]), 0).is_some());
        assert!(cache.hit(&key(&["c"]), 0).is_some());
        let stats = cache.full_stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= cache.budget_bytes);
        // An entry that is gone cannot be charged.
        cache.recharge(&key(&["b"]));
        assert_eq!(cache.full_stats(), stats);
    }

    #[test]
    fn oversized_entry_survives_its_own_insert() {
        let cache = JoinCache::with_budget(8);
        cache.put(key(&["big"]), output(&["big"], 10_000, 0));
        assert_eq!(
            cache.full_stats().entries,
            1,
            "the fresh entry is never self-evicted"
        );
        cache.put(key(&["big2"]), output(&["big2"], 10_000, 0));
        assert_eq!(
            cache.full_stats().entries,
            1,
            "over budget, the older entry goes"
        );
        assert!(cache.hit(&key(&["big2"]), 0).is_some());
    }
}
