//! Capped exponential backoff with deterministic jitter — the router's
//! wait between forward attempts.
//!
//! The wait before retry `n` of a request is `INITIAL · MULTIPLIER^n`,
//! capped at `MAX`, then scaled by a jitter factor in `(1 - JITTER, 1]`
//! derived from [`derive_seed`](crate::derive_seed) over `(request id,
//! attempt)`. Seeding the jitter with the request id de-synchronizes the
//! forwards that fail together when a shard goes down, and deriving it
//! instead of drawing from a global RNG keeps every schedule a pure
//! function of `(request id, attempt)` — reproducible in tests and across
//! worker counts, like every other randomized schedule in this workspace.

use std::time::Duration;

use crate::derive_seed;

/// Wait before the first retry (attempt 0), pre-jitter.
const INITIAL: Duration = Duration::from_millis(50);
/// Upper bound every wait is capped at, pre-jitter.
const MAX: Duration = Duration::from_secs(5);
/// Growth factor between consecutive attempts.
const MULTIPLIER: f64 = 2.0;
/// Jitter fraction: each wait is scaled by a factor in `(1 - JITTER, 1]`.
const JITTER: f64 = 0.5;

/// The wait before retry `attempt` (0-based) of request `request_id`.
/// Pure: same `(request_id, attempt)`, same wait.
pub fn retry_wait(request_id: u64, attempt: u32) -> Duration {
    let raw = INITIAL.as_secs_f64() * MULTIPLIER.powi(attempt as i32);
    let capped = raw.min(MAX.as_secs_f64());
    // 53 uniform mantissa bits → `u` in [0, 1).
    let u = (derive_seed(request_id, attempt as u64) >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64(capped * (1.0 - JITTER * u))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_request() {
        let schedule = |id: u64| -> Vec<Duration> { (0..8).map(|a| retry_wait(id, a)).collect() };
        assert_eq!(schedule(7), schedule(7), "same id, same schedule");
        assert_ne!(schedule(7), schedule(8), "ids de-synchronize retriers");
    }

    /// Forwards that fail together (a shard went down under them) must not
    /// retry in lockstep: their first waits all differ.
    #[test]
    fn distinct_requests_wait_distinct_delays() {
        let mut first: Vec<Duration> = (1..=8u64).map(|id| retry_wait(id, 0)).collect();
        first.sort();
        first.dedup();
        assert_eq!(first.len(), 8, "attempt-0 waits collide: {first:?}");
        for id in 1..=8u64 {
            for attempt in 0..12 {
                assert!(retry_wait(id, attempt) <= MAX, "wait above the cap");
            }
        }
    }

    #[test]
    fn waits_grow_exponentially_within_the_jitter_band() {
        for attempt in 0..7u32 {
            let nominal = 0.050 * 2f64.powi(attempt as i32);
            assert!(nominal < MAX.as_secs_f64(), "attempt {attempt} is capped");
            let d = retry_wait(3, attempt).as_secs_f64();
            assert!(
                d <= nominal + 1e-12 && d > nominal * (1.0 - JITTER) - 1e-12,
                "attempt {attempt}: {d}s outside ({}, {nominal}]s",
                nominal * (1.0 - JITTER)
            );
        }
    }

    #[test]
    fn waits_cap_at_max() {
        let max = MAX.as_secs_f64();
        for attempt in 7..12u32 {
            let d = retry_wait(3, attempt).as_secs_f64();
            assert!(
                d <= max + 1e-12 && d > max * (1.0 - JITTER) - 1e-12,
                "attempt {attempt}: {d}s outside the capped band"
            );
        }
    }
}
