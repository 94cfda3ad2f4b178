//! Shared utilities: a deterministic, order-preserving parallel map, stable
//! seed derivation for per-batch RNGs, and the workspace's one JSON
//! document model ([`json::JsonValue`]: a reader and a writer), plus the
//! file, health, backoff and rate-limit primitives the serving layer
//! shares. Rendezvous come from `std`: the completion cache's single-flight
//! is a map of `OnceLock`s, and a server's drain is its reactor thread
//! exiting.
//!
//! Both the evaluation harness (independent experiment cells) and the core
//! completion engine (batched autoregressive sampling) fan work out over
//! threads; keeping the combinators here means one implementation with one
//! determinism contract: results are a pure function of the inputs and the
//! seeds, never of scheduling. The maps share one core budget per process:
//! [`busy_threads`] counts the threads computing against
//! [`default_workers`], and a map runs on its caller plus a helper per idle
//! core, so concurrent requests share the cores instead of each spawning a
//! thread per core.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod backoff;
mod fsio;
mod health;
pub mod json;
mod ratelimit;

pub use backoff::retry_wait;
pub use fsio::{fnv1a64, is_tmp_name, write_atomic, Fnv64};
pub use health::HealthState;
pub use ratelimit::{RateLimitConfig, RateLimiter};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::Builder;

/// Maps `f` over `jobs` on the caller and the helpers the core budget
/// grants, preserving input order.
pub fn parallel_map<J, T, F>(jobs: Vec<J>, f: F) -> Vec<T>
where
    J: Send + Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    parallel_map_workers(jobs, default_workers(), f)
}

/// The process's core budget: its available hardware threads, read once.
pub fn default_workers() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(2, |n| n.get()))
}

static BUSY: AtomicUsize = AtomicUsize::new(0);
thread_local!(static COUNTED: Cell<bool> = const { Cell::new(false) });

/// The threads counted as computing now: those in [`busy`], and helpers.
pub fn busy_threads() -> usize {
    BUSY.load(Ordering::Acquire)
}

/// Counts the calling thread as computing until the guard drops, whatever
/// the count; a thread already counted is not counted twice.
pub fn busy() -> CoreState {
    CoreState(count_me(true))
}

/// Takes the calling thread out of the count until the guard drops, while
/// it blocks on another thread's work.
pub fn idle() -> CoreState {
    CoreState(count_me(false))
}

/// A [`busy`] or [`idle`] guard: its drop, a panic's unwind included,
/// counts the thread as it was before.
#[must_use]
pub struct CoreState(bool);

impl Drop for CoreState {
    fn drop(&mut self) {
        count_me(self.0);
    }
}

/// Sets whether the calling thread is counted; returns what it was.
fn count_me(now: bool) -> bool {
    let was = COUNTED.replace(now);
    match (was, now) {
        (false, true) => BUSY.fetch_add(1, Ordering::AcqRel),
        (true, false) => BUSY.fetch_sub(1, Ordering::AcqRel),
        _ => 0,
    };
    was
}

/// [`parallel_map`] on at most `workers` threads, the caller included.
pub fn parallel_map_workers<J, T, F>(jobs: Vec<J>, workers: usize, f: F) -> Vec<T>
where
    J: Send + Sync,
    T: Send,
    F: Fn(&J) -> T + Sync,
{
    let mut scratch = vec![(); workers.min(jobs.len()).max(1)];
    parallel_map_with(jobs, &mut scratch, |_, j| f(j))
}

/// Order-preserving parallel map where every thread owns a reusable
/// scratch object for the duration of the call — and, because the caller
/// supplies the scratch slice, across *calls* too.
///
/// The caller, counted [`busy`] for the call, runs jobs on `scratch[0]`,
/// and a helper is spawned for each further slot (capped at the job count)
/// only while the core budget has an idle core: `scratch.len()` caps the
/// threads, the caller included, and a map started while every core
/// computes runs on its caller, in order. Each thread pulls jobs off a
/// shared counter and runs `f(&mut scratch_i, &job)`. The scratch a job
/// lands on is a scheduling accident, so `f` must not let results depend
/// on scratch *contents* — it is for reusable capacity (tapes, sessions,
/// buffers), not state.
///
/// This is what lets the training engine keep one arena tape per thread
/// and the completion engine one `InferenceSession` per thread, both warm
/// across batches.
pub fn parallel_map_with<J, T, S, F>(jobs: Vec<J>, scratch: &mut [S], f: F) -> Vec<T>
where
    J: Send + Sync,
    T: Send,
    S: Send,
    F: Fn(&mut S, &J) -> T + Sync,
{
    let (first, rest) = scratch
        .split_first_mut()
        .expect("parallel_map_with needs at least one scratch slot");
    let _caller = busy();
    if rest.is_empty() || jobs.len() <= 1 {
        return jobs.iter().map(|j| f(first, j)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let run = |s: &mut S| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else { break };
        *slots[i].lock().unwrap() = Some(f(s, job));
    };
    // Counts one more thread if fewer than the cores compute, without waiting.
    let below_cores = |n: usize| (n < default_workers()).then_some(n + 1);
    let take_core = || BUSY.fetch_update(Ordering::AcqRel, Ordering::Acquire, below_cores);
    std::thread::scope(|scope| {
        for s in rest.iter_mut().take(jobs.len() - 1) {
            if take_core().is_err() {
                break;
            }
            // The helper is counted until it ends, a panic's unwind included.
            let helper = move || {
                COUNTED.set(true);
                let _uncount_on_exit = CoreState(false);
                run(s)
            };
            if Builder::new().spawn_scoped(scope, helper).is_err() {
                BUSY.fetch_sub(1, Ordering::AcqRel);
                break;
            }
        }
        run(first);
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("a thread filled every slot"))
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
