//! Per-key token-bucket rate limiting — the ingress-plane primitive behind
//! `restore-serve`'s per-tenant 429s.
//!
//! Each key (a tenant name, in the server) owns one bucket of `burst`
//! tokens refilled continuously at `rate_per_s`. A request takes one token;
//! an empty bucket refuses with the exact [`Duration`] until the next token
//! materializes, which the server rounds up into an HTTP `Retry-After`.
//!
//! Time is injected: every decision goes through [`RateLimiter::try_acquire_at`]
//! with a caller-supplied nanosecond timestamp on the limiter's own
//! monotonic axis, so tests drive the clock deterministically and the
//! convenience form [`RateLimiter::try_acquire`] just feeds it the wall
//! clock. Buckets are created lazily on first sight of a key — callers
//! should only pass keys from a bounded namespace (the server resolves the
//! tenant against the registry first, so unknown tenant names 404 before
//! they can grow the map).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Steady-state rate and burst capacity shared by every key's bucket.
#[derive(Clone, Copy, Debug)]
pub struct RateLimitConfig {
    /// Tokens refilled per second (sustained requests/s per key).
    pub rate_per_s: f64,
    /// Bucket capacity: how many requests a key may burst above the
    /// sustained rate. A fresh bucket starts full.
    pub burst: f64,
}

impl RateLimitConfig {
    pub fn new(rate_per_s: f64, burst: f64) -> Self {
        assert!(
            rate_per_s > 0.0 && burst >= 1.0,
            "rate limit needs a positive rate and a burst of at least one"
        );
        Self { rate_per_s, burst }
    }
}

struct Bucket {
    tokens: f64,
    /// Refill high-water mark on the limiter's nanosecond axis.
    last_nanos: u64,
}

/// A keyed token-bucket rate limiter; all keys share one [`RateLimitConfig`].
pub struct RateLimiter {
    config: RateLimitConfig,
    anchor: Instant,
    buckets: Mutex<BTreeMap<String, Bucket>>,
}

impl RateLimiter {
    pub fn new(config: RateLimitConfig) -> Self {
        Self {
            config,
            anchor: Instant::now(),
            buckets: Mutex::new(BTreeMap::new()),
        }
    }

    /// Takes one token from `key`'s bucket at the current wall-clock time.
    /// On refusal, returns the time until a token will be available.
    pub fn try_acquire(&self, key: &str) -> Result<(), Duration> {
        self.try_acquire_at(key, self.anchor.elapsed().as_nanos() as u64)
    }

    /// [`RateLimiter::try_acquire`] at an explicit nanosecond timestamp —
    /// the deterministic form the unit tests drive. Timestamps must be
    /// monotone per key for the refill accounting to make sense; a stale
    /// timestamp simply refills nothing.
    pub(crate) fn try_acquire_at(&self, key: &str, now_nanos: u64) -> Result<(), Duration> {
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = buckets.entry(key.to_string()).or_insert(Bucket {
            tokens: self.config.burst,
            last_nanos: now_nanos,
        });
        let elapsed_s = now_nanos.saturating_sub(bucket.last_nanos) as f64 / 1e9;
        bucket.tokens = (bucket.tokens + elapsed_s * self.config.rate_per_s).min(self.config.burst);
        bucket.last_nanos = bucket.last_nanos.max(now_nanos);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            Err(Duration::from_secs_f64(deficit / self.config.rate_per_s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn burst_then_refuse_then_refill() {
        let rl = RateLimiter::new(RateLimitConfig::new(1.0, 2.0));
        assert!(rl.try_acquire_at("t", 0).is_ok());
        assert!(rl.try_acquire_at("t", 0).is_ok(), "burst of two");
        let wait = rl.try_acquire_at("t", 0).expect_err("bucket empty");
        assert!(
            (wait.as_secs_f64() - 1.0).abs() < 1e-6,
            "one token at 1/s is one second away, got {wait:?}"
        );
        // Half a second later: still short, wait shrinks accordingly.
        let wait = rl.try_acquire_at("t", SEC / 2).expect_err("still empty");
        assert!((wait.as_secs_f64() - 0.5).abs() < 1e-6, "got {wait:?}");
        // After the refill interval the token is back.
        assert!(rl.try_acquire_at("t", SEC).is_ok());
        assert!(rl.try_acquire_at("t", SEC).is_err(), "only one refilled");
    }

    #[test]
    fn refill_caps_at_burst() {
        let rl = RateLimiter::new(RateLimitConfig::new(10.0, 3.0));
        for _ in 0..3 {
            assert!(rl.try_acquire_at("t", 0).is_ok());
        }
        // An hour idle refills to the cap, not beyond it.
        let hour = 3_600 * SEC;
        for _ in 0..3 {
            assert!(rl.try_acquire_at("t", hour).is_ok());
        }
        assert!(rl.try_acquire_at("t", hour).is_err());
    }

    #[test]
    fn keys_are_independent() {
        let rl = RateLimiter::new(RateLimitConfig::new(1.0, 1.0));
        assert!(rl.try_acquire_at("hot", 0).is_ok());
        assert!(rl.try_acquire_at("hot", 0).is_err(), "hot key exhausted");
        assert!(
            rl.try_acquire_at("cold", 0).is_ok(),
            "other keys unaffected"
        );
        let keys: Vec<String> = rl.buckets.lock().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["cold", "hot"]);
    }

    #[test]
    fn decisions_are_a_pure_function_of_the_timestamps() {
        let run = || {
            let rl = RateLimiter::new(RateLimitConfig::new(5.0, 2.0));
            (0..20u64)
                .map(|i| rl.try_acquire_at("t", i * SEC / 10).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same timestamps, same admissions");
    }

    #[test]
    fn stale_timestamps_do_not_refill() {
        let rl = RateLimiter::new(RateLimitConfig::new(1.0, 1.0));
        assert!(rl.try_acquire_at("t", 5 * SEC).is_ok());
        // A timestamp before the high-water mark must not mint tokens.
        assert!(rl.try_acquire_at("t", 0).is_err());
        assert!(rl.try_acquire_at("t", 5 * SEC).is_err());
        assert!(rl.try_acquire_at("t", 6 * SEC).is_ok());
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn rejects_nonpositive_rates() {
        RateLimitConfig::new(0.0, 1.0);
    }
}
