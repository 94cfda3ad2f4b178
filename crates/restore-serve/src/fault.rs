//! Deterministic fault injection for the serving front-end.
//!
//! A [`FaultPlan`] decides, per request, whether to inject a delay, cut the
//! connection before handling (a simulated read error), drop the response
//! (write error), write a torn response, or panic inside the handler — the
//! generalization of the original test-only `/debug/panic/{key}` route into
//! a full chaos layer the resilience tests (`tests/resilience.rs`) drive.
//!
//! **Reproducibility contract.** The action for a request is a pure
//! function of `(plan seed, fault key)`, where the fault key is either the
//! client-pinned `X-Fault-Key` header or an FNV-1a hash of the request
//! content ([`fault_key`]). Nothing about scheduling enters the decision —
//! not arrival order, not which connection thread picked the request up,
//! not the worker count — so a seeded chaos soak produces the same
//! per-request outcome classes on every run. The *fault window* is a key
//! range: keys outside `window` always pass clean, which is how a soak
//! scripts "faults for the first half of the schedule, then recovery".

use std::time::Duration;

use restore_util::{derive_seed, Fnv64};

/// What the plan injects for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Pass through untouched.
    None,
    /// Sleep this long inside the admitted section before handling — a
    /// deterministic stand-in for a slow handler (and the lever the
    /// overload tests use to hold admission permits).
    Delay(Duration),
    /// Close the connection before handling, as if the request read failed.
    ReadError,
    /// Handle the request, then drop the connection instead of responding.
    WriteError,
    /// Write only a prefix of the response bytes, then close — a torn
    /// response the client must treat as a transport error.
    TornResponse,
    /// Panic inside the handler (exercises the 500-per-connection panic
    /// containment path).
    Panic,
}

/// Fault mix and schedule. Probabilities are per-request and mutually
/// exclusive (evaluated cumulatively in declaration order); they should sum
/// to at most 1, with the remainder passing clean.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed of the schedule; two plans with the same seed and config make
    /// identical decisions for every key.
    pub seed: u64,
    /// Half-open fault-key range `[window.0, window.1)` in which faults are
    /// live. Keys outside always get [`FaultAction::None`].
    pub window: (u64, u64),
    pub delay_prob: f64,
    /// Injected delay amount (for requests that draw a delay).
    pub delay: Duration,
    pub read_error_prob: f64,
    pub write_error_prob: f64,
    pub torn_prob: f64,
    pub panic_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            window: (0, 0),
            delay_prob: 0.0,
            delay: Duration::from_millis(10),
            read_error_prob: 0.0,
            write_error_prob: 0.0,
            torn_prob: 0.0,
            panic_prob: 0.0,
        }
    }
}

/// A compiled fault schedule; see the module docs for the contract.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl FaultPlan {
    pub fn new(config: FaultConfig) -> Self {
        let p = [
            config.delay_prob,
            config.read_error_prob,
            config.write_error_prob,
            config.torn_prob,
            config.panic_prob,
        ];
        assert!(
            p.iter().all(|&x| (0.0..=1.0).contains(&x)) && p.iter().sum::<f64>() <= 1.0 + 1e-9,
            "fault probabilities must each be in [0,1] and sum to at most 1"
        );
        Self { config }
    }

    /// The action for fault key `key` — pure in `(config, key)`.
    pub fn action(&self, key: u64) -> FaultAction {
        let c = &self.config;
        if !(c.window.0..c.window.1).contains(&key) {
            return FaultAction::None;
        }
        // 53 uniform mantissa bits → `u` in [0, 1); walk the cumulative mix.
        let u = (derive_seed(c.seed, key) >> 11) as f64 / (1u64 << 53) as f64;
        let mut edge = c.delay_prob;
        if u < edge {
            return FaultAction::Delay(c.delay);
        }
        edge += c.read_error_prob;
        if u < edge {
            return FaultAction::ReadError;
        }
        edge += c.write_error_prob;
        if u < edge {
            return FaultAction::WriteError;
        }
        edge += c.torn_prob;
        if u < edge {
            return FaultAction::TornResponse;
        }
        edge += c.panic_prob;
        if u < edge {
            return FaultAction::Panic;
        }
        FaultAction::None
    }
}

/// The stable fault key of a request: the client-pinned `X-Fault-Key`
/// header when present (the chaos tests script exact schedules with it),
/// otherwise an FNV-1a hash of `method`, `path`, and `body` — a pure
/// function of request content, so the same logical request always draws
/// the same fault regardless of timing, connection, or worker count.
pub(crate) fn fault_key(method: &str, path: &str, body: &str, pinned: Option<&str>) -> u64 {
    if let Some(raw) = pinned {
        if let Ok(key) = raw.trim().parse::<u64>() {
            return key;
        }
    }
    let mut h = Fnv64::new();
    for part in [method, "\0", path, "\0", body] {
        h.update(part.as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed,
            window: (0, 500),
            delay_prob: 0.1,
            delay: Duration::from_millis(5),
            read_error_prob: 0.1,
            write_error_prob: 0.1,
            torn_prob: 0.1,
            panic_prob: 0.1,
        })
    }

    #[test]
    fn schedule_is_reproducible_and_seed_sensitive() {
        let sweep = |plan: &FaultPlan| (0..1000).map(|k| plan.action(k)).collect::<Vec<_>>();
        let a = sweep(&mixed_plan(42));
        assert_eq!(a, sweep(&mixed_plan(42)), "same seed, same schedule");
        assert_ne!(a, sweep(&mixed_plan(43)), "different seed, different mix");
    }

    #[test]
    fn window_bounds_the_blast_radius() {
        let plan = mixed_plan(7);
        assert!(
            (500..1000).all(|k| plan.action(k) == FaultAction::None),
            "keys past the window always pass clean"
        );
        let faulted = (0..500)
            .filter(|&k| plan.action(k) != FaultAction::None)
            .count();
        // 50% aggregate fault probability over 500 keys: the exact count is
        // pinned by the seed, and it must be in sane statistical range.
        assert!(
            (150..350).contains(&faulted),
            "expected roughly half the window faulted, got {faulted}"
        );
    }

    #[test]
    fn every_action_kind_is_reachable() {
        let plan = mixed_plan(7);
        let mut seen = [false; 5];
        for k in 0..500 {
            match plan.action(k) {
                FaultAction::Delay(d) => {
                    assert_eq!(d, Duration::from_millis(5));
                    seen[0] = true;
                }
                FaultAction::ReadError => seen[1] = true,
                FaultAction::WriteError => seen[2] = true,
                FaultAction::TornResponse => seen[3] = true,
                FaultAction::Panic => seen[4] = true,
                FaultAction::None => {}
            }
        }
        assert_eq!(seen, [true; 5], "mix must exercise every fault kind");
    }

    #[test]
    fn fault_key_prefers_the_pinned_header() {
        assert_eq!(fault_key("POST", "/v1/t/query", "{}", Some("17")), 17);
        assert_eq!(fault_key("POST", "/v1/t/query", "{}", Some(" 17 ")), 17);
        // Unparseable pins fall back to the content hash: FNV-1a over
        // `method \0 path \0 body`. Every seeded chaos schedule hangs off it.
        let content = fault_key("POST", "/v1/t/query", "{}", None);
        assert_eq!(content, 0xea49_e37f_a21f_37c1);
        assert_eq!(
            fault_key("POST", "/v1/t/query", "{}", Some("nope")),
            content
        );
    }

    #[test]
    fn content_keys_separate_distinct_requests() {
        let a = fault_key("POST", "/v1/t/query", r#"{"seed":1}"#, None);
        let b = fault_key("POST", "/v1/t/query", r#"{"seed":2}"#, None);
        let c = fault_key("GET", "/v1/t/query", r#"{"seed":1}"#, None);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fault_key("POST", "/v1/t/query", r#"{"seed":1}"#, None));
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn rejects_overfull_probability_mixes() {
        FaultPlan::new(FaultConfig {
            delay_prob: 0.6,
            panic_prob: 0.6,
            window: (0, 1),
            ..FaultConfig::default()
        });
    }
}
