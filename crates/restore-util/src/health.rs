//! Up/down health of one peer — the state behind the shard router's
//! health-aware connection checkout. Lock-free, so a reactor, a worker
//! pool and a monitor thread share one behind an `Arc`.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Up/down health of one peer, driven by consecutive-failure counting:
/// `record_failure(threshold)` flips to down once `threshold` consecutive
/// failures accumulate, one `record_success` flips back up. Starts up (a
/// peer is innocent until probed otherwise). Transition edges are reported
/// to the caller (for logging / respawn triggers) and counted (for metrics).
#[derive(Debug)]
pub struct HealthState {
    up: AtomicBool,
    consecutive_failures: AtomicU32,
    /// Up→down transitions observed so far.
    times_down: AtomicU64,
}

impl Default for HealthState {
    fn default() -> Self {
        Self::new()
    }
}

impl HealthState {
    pub fn new() -> Self {
        Self {
            up: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
            times_down: AtomicU64::new(0),
        }
    }

    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Acquire)
    }

    /// Up→down transitions so far.
    pub fn times_down(&self) -> u64 {
        self.times_down.load(Ordering::Relaxed)
    }

    /// Records a successful interaction; returns `true` on the down→up
    /// edge (the peer just recovered).
    pub fn record_success(&self) -> bool {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        !self.up.swap(true, Ordering::AcqRel)
    }

    /// Records a failed interaction; once `threshold` consecutive failures
    /// accumulate the peer goes down. Returns `true` on the up→down edge.
    /// A `threshold` of 0 or 1 means the first failure downs the peer.
    pub fn record_failure(&self, threshold: u32) -> bool {
        let failures = self
            .consecutive_failures
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1);
        if failures >= threshold.max(1) {
            let was_up = self.up.swap(false, Ordering::AcqRel);
            if was_up {
                self.times_down.fetch_add(1, Ordering::Relaxed);
            }
            was_up
        } else {
            false
        }
    }

    /// Forces the peer down immediately (e.g. its process was observed to
    /// exit — no need to wait out probe failures). Returns `true` on the
    /// up→down edge.
    pub fn force_down(&self) -> bool {
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
        let was_up = self.up.swap(false, Ordering::AcqRel);
        if was_up {
            self.times_down.fetch_add(1, Ordering::Relaxed);
        }
        was_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_downs_after_threshold_and_recovers_on_success() {
        let health = HealthState::new();
        assert!(health.is_up());
        assert!(!health.record_failure(3), "1 failure: still up");
        assert!(!health.record_failure(3), "2 failures: still up");
        assert!(health.record_failure(3), "3rd failure crosses threshold");
        assert!(!health.is_up());
        assert!(!health.record_failure(3), "already down: no new edge");
        assert_eq!(health.times_down(), 1);
        assert!(health.record_success(), "success is the up edge");
        assert!(health.is_up());
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let health = HealthState::new();
        health.record_failure(3);
        health.record_failure(3);
        health.record_success();
        assert!(!health.record_failure(3), "streak restarted from zero");
        assert!(health.is_up());
    }

    #[test]
    fn force_down_is_immediate_and_counted() {
        let health = HealthState::new();
        assert!(health.force_down());
        assert!(!health.is_up());
        assert!(!health.force_down(), "second force: no new edge");
        assert_eq!(health.times_down(), 1);
    }
}
