//! Shared utilities: a deterministic, order-preserving parallel map over a
//! small worker pool, stable seed derivation for per-batch RNGs, and a tiny
//! JSON writer for experiment artifacts.
//!
//! Both the evaluation harness (independent experiment cells) and the core
//! completion engine (batched autoregressive sampling) fan work out over
//! threads; keeping the combinators here means one implementation with one
//! determinism contract: results are a pure function of the inputs and the
//! seeds, never of scheduling.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod backoff;
mod fsio;
pub mod json;
mod pool;
mod ratelimit;
mod shutdown;
mod singleflight;

pub use backoff::BackoffConfig;
pub use fsio::{fnv1a64, is_tmp_name, write_atomic, Fnv64};
pub use pool::{HealthState, ObjectPool, PoolStats};
pub use ratelimit::{RateLimitConfig, RateLimiter};
pub use shutdown::{ConnectionGuard, Shutdown};
pub use singleflight::SingleFlight;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `jobs` on up to `available_parallelism()` threads,
/// preserving input order.
pub fn parallel_map<J, T, F>(jobs: Vec<J>, f: F) -> Vec<T>
where
    J: Send + Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let workers = default_workers().min(jobs.len().max(1));
    parallel_map_workers(jobs, workers, f)
}

/// The default worker count: one per available hardware thread.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
}

/// [`parallel_map`] with an explicit worker count. `workers <= 1` runs
/// inline on the calling thread.
pub fn parallel_map_workers<J, T, F>(jobs: Vec<J>, workers: usize, f: F) -> Vec<T>
where
    J: Send + Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let mut scratch = vec![(); workers.min(jobs.len()).max(1)];
    parallel_map_with(jobs, &mut scratch, |_, j| f(j))
}

/// Order-preserving parallel map where every worker owns a reusable
/// scratch object for the duration of the call — and, because the caller
/// supplies the scratch slice, across *calls* too.
///
/// One worker thread is spawned per `scratch` element (capped at the job
/// count); each worker pulls jobs off a shared counter and runs
/// `f(&mut scratch_i, &job)`. The scratch a job lands on is a scheduling
/// accident, so `f` must not let results depend on scratch *contents* —
/// scratch is for reusable capacity (tapes, sessions, buffers), not state.
/// With a single scratch slot the whole map runs inline on the caller.
///
/// This is what lets the training engine keep one arena tape per worker
/// and the completion engine one `InferenceSession` per worker, both warm
/// across batches.
pub fn parallel_map_with<J, T, S, F>(jobs: Vec<J>, scratch: &mut [S], f: F) -> Vec<T>
where
    J: Send + Sync,
    T: Send,
    S: Send,
    F: Fn(&mut S, &J) -> T + Sync,
{
    assert!(
        !scratch.is_empty(),
        "parallel_map_with needs at least one scratch slot"
    );
    if scratch.len() == 1 || jobs.len() <= 1 {
        let s = &mut scratch[0];
        return jobs.iter().map(|j| f(s, j)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let n_jobs = jobs.len();
    {
        let (next, slots, jobs, f) = (&next, &slots, &jobs, &f);
        std::thread::scope(|scope| {
            for s in scratch.iter_mut().take(n_jobs) {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    *slots[i].lock().unwrap() = Some(f(s, job));
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// Derives an independent RNG seed for work unit `index` of a computation
/// seeded with `base` (SplitMix64 finalizer). Every batch of a batched
/// sampler gets its own stream, so the sampled values do not depend on how
/// rows are grouped onto threads — only on `(base, index)`.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let jobs: Vec<u64> = (0..50).collect();
        let out = parallel_map(jobs, |&j| j * 2);
        assert_eq!(out, (0..50).map(|j| j * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(empty, |&j: &u32| j).is_empty());
        assert_eq!(parallel_map(vec![7u32], |&j| j + 1), vec![8]);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let jobs: Vec<u64> = (0..64).collect();
        let a = parallel_map_workers(jobs.clone(), 1, |&j| derive_seed(42, j));
        let b = parallel_map_workers(jobs.clone(), 4, |&j| derive_seed(42, j));
        let c = parallel_map_workers(jobs, 16, |&j| derive_seed(42, j));
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn with_scratch_preserves_order_and_reuses_state() {
        // Scratch is a counter: each worker reuses its own across jobs, so
        // the counters sum to the job count while results stay in order.
        let jobs: Vec<u64> = (0..40).collect();
        let mut scratch = vec![0usize; 4];
        let out = parallel_map_with(jobs, &mut scratch, |s, &j| {
            *s += 1;
            j * 3
        });
        assert_eq!(out, (0..40).map(|j| j * 3).collect::<Vec<u64>>());
        assert_eq!(scratch.iter().sum::<usize>(), 40);
    }

    #[test]
    fn with_scratch_is_invariant_to_scratch_count() {
        let jobs: Vec<u64> = (0..32).collect();
        let mut one = vec![(); 1];
        let mut four = vec![(); 4];
        let a = parallel_map_with(jobs.clone(), &mut one, |_, &j| derive_seed(3, j));
        let b = parallel_map_with(jobs, &mut four, |_, &j| derive_seed(3, j));
        assert_eq!(a, b);
    }

    #[test]
    fn with_scratch_persists_across_calls() {
        let mut scratch = vec![Vec::<u64>::new(); 2];
        for round in 0..3u64 {
            let jobs: Vec<u64> = (0..8).collect();
            parallel_map_with(jobs, &mut scratch, |s, &j| s.push(round * 100 + j));
        }
        let total: usize = scratch.iter().map(Vec::len).sum();
        assert_eq!(total, 24, "scratch state should survive across calls");
    }

    #[test]
    fn derive_seed_separates_indices_and_bases() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
