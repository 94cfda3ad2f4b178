//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! regression bounds and the per-workload tail percentile. `BENCHMARK.json`
//! at the repo root carries the same tables for the driver; a unit test
//! keeps the two in step.

/// Closed-loop client threads, one keep-alive connection each (`nproc` on
/// the sizing box is 2; more in-flight requests would queue, not run).
pub const CLIENTS: usize = 2;

/// How long one run measures when `--seconds` is not given: the
/// `run_seconds` the driver passes.
pub const RUN_SECONDS: f64 = 10.0;

/// Timed windows per run. Every workload's [`Workload::segments`] divides
/// it.
pub const WINDOWS: usize = 18;

/// `queries_per_s`, `latency_p50_ms` and `latency_tail_ms` are each the
/// value of the run's fifth-best window — the quartile of the 18 on the
/// good side — after every window's timings are scaled to the reference
/// core (`probe.rs`). What else runs on the sizing box's host slows a
/// window down, never speeds it up, for seconds at a time, and the probe
/// only catches the part of it that slows the core itself. Not the best
/// window, because the probe is a 2 ms reading and the best of 18 scaled
/// windows is the one whose probe read high. Ten seeds, spread of
/// `queries_per_s` over the five workloads, scaled windows: best 11–23 %,
/// third-best 2–12 %, fifth-best 2.5–7.6 %, median 3.5–11 %.
pub const BEST_WINDOW: usize = 5;

/// Warm-up before the first timed window of a segment, discarded.
pub const WARMUP_S: f64 = 0.5;

/// An untraced run sets up at least this often; `setup_s` is the median.
pub const MIN_SETUPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WireSmall,
    DashboardWarm,
    SynthesisCold,
    RebuildBesideReads,
    FleetHop,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WireSmall,
        Workload::DashboardWarm,
        Workload::SynthesisCold,
        Workload::RebuildBesideReads,
        Workload::FleetHop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire_small",
            Workload::DashboardWarm => "dashboard_warm",
            Workload::SynthesisCold => "synthesis_cold",
            Workload::RebuildBesideReads => "rebuild_beside_reads",
            Workload::FleetHop => "fleet_hop",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile of a window's cycle samples that `latency_tail_ms`
    /// is read from ([`BEST_WINDOW`]). Fixed here, never chosen at run
    /// time, so two runs always compare the same statistic.
    pub fn tail_percentile(self) -> f64 {
        match self {
            // ~900 cycle samples per window (10 s run, 2-core box).
            Workload::WireSmall => 0.99,
            // ~165 cycle samples of 20 requests each per window; its p99
            // spreads twice as wide from run to run as its p95.
            Workload::FleetHop => 0.95,
            // ~25 cycle samples per window: the second-slowest.
            Workload::DashboardWarm => 0.95,
            // ~15 (one reader) and ~10 cycle samples per window: the
            // second-slowest.
            Workload::RebuildBesideReads | Workload::SynthesisCold => 0.90,
        }
    }

    /// Housing scale factor (`HousingConfig::scaled`); `None` for the
    /// synthetic `ta → tb` workloads.
    pub fn housing_scale(self) -> Option<f64> {
        match self {
            Workload::WireSmall | Workload::FleetHop => None,
            _ => Some(2.0),
        }
    }

    /// How many server instances an untraced run measures on, each with
    /// an equal share of the windows. A warm request's cost depends on
    /// which threads, sockets and heap addresses the instance happens to
    /// get — and, on one CPU, on how the two clients' requests fall into
    /// step — for as long as the instance lives: instances of one process
    /// read 6.1k–11k q/s on `wire_small`. The median over many short-lived
    /// instances is far steadier than over one long-lived one (run-to-run
    /// spread of `queries_per_s` on `wire_small`: 22 % with 3 instances,
    /// 15 % with 9, 7 % with 18; `fleet_hop` p95: 27 % with 3, 6 % with 9).
    /// Set-up is milliseconds on `wire_small`, a fleet start on `fleet_hop`
    /// and seconds of training on the housing workloads, and a rebuild
    /// cycle is longer than a segment.
    pub fn segments(self) -> usize {
        match self {
            Workload::WireSmall => 18,
            Workload::FleetHop => 9,
            Workload::DashboardWarm | Workload::SynthesisCold => 3,
            Workload::RebuildBesideReads => 1,
        }
    }

    /// True when the whole run — clients, server, router and worker
    /// processes — is pinned to one CPU. On the two wire workloads half of
    /// a request's wall time on a 2-vCPU VM was the idle-exit latency of
    /// halted vCPUs (four thread wake-ups per request), wandering ±15 %
    /// over tens of seconds; on one CPU some thread of the closed loop is
    /// always runnable, a wake-up is a context switch, and what is left is
    /// the software path these workloads are there to measure.
    pub fn one_cpu(self) -> bool {
        matches!(self, Workload::WireSmall | Workload::FleetHop)
    }

    /// True when the timed phase must not synthesize (cache misses == 0).
    pub fn warm(self) -> bool {
        matches!(
            self,
            Workload::WireSmall | Workload::DashboardWarm | Workload::FleetHop
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the service sees. `bound` is the
/// share of the parent's median by which it may worsen. The timing bounds
/// sit at the contract's ceiling because the sizing box does not allow
/// less: as timed, the same binary on the same seed reads ±10 % from run
/// to run there and drifts by more than that over an hour, and even scaled
/// to the reference core ([`BEST_WINDOW`]) `dashboard_warm` spreads 12 %.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// A per-layer metric (traced run). No bound: these attribute, they do
/// not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Documentation for the reader of `BENCHMARK.json`; the consistency
    /// test is its only reader here.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 55] = [
    // restore-serve
    layer("serve.http.parse_us", "us", Lower),
    layer("serve.http.encode_us", "us", Lower),
    layer("serve.transport_us", "us", Lower),
    layer("serve.stage_sum_share", "ratio", Higher),
    layer("serve.epoll_wakeups_per_req", "ratio", Lower),
    layer("serve.read_would_block_per_req", "ratio", Lower),
    layer("serve.shed_share", "ratio", Lower),
    layer("serve.router.added_p50_us", "us", Lower),
    layer("serve.router.pool_reuse_share", "ratio", Higher),
    layer("serve.router.retried", "count", Lower),
    layer("serve.router.failed", "count", Lower),
    layer("serve.store.save_ms", "ms", Lower),
    layer("serve.store.load_ms", "ms", Lower),
    layer("serve.rebuild.cycle_s", "s", Lower),
    layer("serve.rebuild.cycles", "count", Higher),
    // restore-util
    layer("util.json.parse_us", "us", Lower),
    layer("util.json.parse_mb_per_s", "MB/s", Higher),
    // restore-core
    layer("core.wire.decode_us", "us", Lower),
    layer("core.wire.encode_us", "us", Lower),
    layer("core.snapshot.execute_warm_us", "us", Lower),
    layer("core.snapshot.execute_warm_us.join", "us", Lower),
    layer("core.snapshot.execute_warm_us.single", "us", Lower),
    layer("core.cache.hit_share", "ratio", Higher),
    layer("core.cache.misses_per_req", "ratio", Lower),
    layer("core.cache.evictions_per_req", "ratio", Lower),
    layer("core.cache.waits", "count", Lower),
    layer("core.cache.resident_mb", "MiB", Lower),
    layer("core.completion.complete_ms", "ms", Lower),
    layer("core.completion.tuples_per_s", "1/s", Higher),
    layer("core.completion.encode_ms", "ms", Lower),
    layer("core.model.sample_tuples_per_s", "1/s", Higher),
    layer("core.model.tf_expect_rows_per_s", "1/s", Higher),
    layer("core.confidence.interval_ms", "ms", Lower),
    layer("core.train.train_s", "s", Lower),
    layer("core.train.rebuild_from_s", "s", Lower),
    layer("core.seal_ms", "ms", Lower),
    layer("core.persist.to_bytes_ms", "ms", Lower),
    layer("core.persist.from_bytes_ms", "ms", Lower),
    layer("core.persist.bytes", "count", Lower),
    // restore-nn
    layer("nn.sweep.tuples_per_s", "1/s", Higher),
    layer("nn.logits_attr.rows_per_s", "1/s", Higher),
    layer("nn.gemm.trunk_gmacs_per_s", "GMAC/s", Higher),
    layer("nn.gemm.band_gmacs_per_s", "GMAC/s", Higher),
    layer("nn.gemm.macs_per_tuple", "count", Lower),
    layer("nn.train.steps_per_s", "1/s", Higher),
    layer("nn.backward.acc_gmacs_per_s", "GMAC/s", Higher),
    layer("nn.session.pooled_buffers", "count", Lower),
    // restore-db
    layer("db.execute_on_join_us", "us", Lower),
    layer("db.aggregate_rows_per_s", "1/s", Higher),
    layer("db.hash_join_ms", "ms", Lower),
    layer("db.execute_incomplete_us", "us", Lower),
    // Whole-run facts the driver's contract keeps out of the end-to-end
    // list (a metric there must be non-zero on every workload and steady
    // across seeds within its bound).
    layer("quality.rel_error", "ratio", Lower),
    layer("quality.rel_error_incomplete", "ratio", Lower),
    layer("client.failed_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use restore_util::json::{parse, JsonValue};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
    }

    #[test]
    fn segments_divide_the_windows() {
        for w in Workload::ALL {
            assert_eq!(WINDOWS % w.segments(), 0, "{}", w.name());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn tail_percentile_table_is_fixed() {
        let table: Vec<(&str, f64)> = Workload::ALL
            .iter()
            .map(|w| (w.name(), w.tail_percentile()))
            .collect();
        assert_eq!(
            table,
            vec![
                ("wire_small", 0.99),
                ("dashboard_warm", 0.95),
                ("synthesis_cold", 0.90),
                ("rebuild_beside_reads", 0.90),
                ("fleet_hop", 0.95),
            ]
        );
    }

    fn names_of(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// The names, units, directions and bounds in `BENCHMARK.json` are the
    /// ones this code emits — same sets, same order.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_f64),
            Some(RUN_SECONDS)
        );

        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names_of(&doc, "workloads"), workloads);
        for w in doc.get("workloads").and_then(JsonValue::as_array).unwrap() {
            let why = w.get("why").and_then(JsonValue::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }

        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&doc, "end_to_end"), e2e);
        let listed = doc.get("end_to_end").and_then(JsonValue::as_array).unwrap();
        for (spec, m) in END_TO_END.iter().zip(listed) {
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(spec.unit));
            assert_eq!(
                m.get("better").and_then(JsonValue::as_str),
                Some(spec.better.as_str())
            );
            assert_eq!(m.get("bound").and_then(JsonValue::as_f64), Some(spec.bound));
            assert!(spec.bound > 0.0 && spec.bound <= 0.25);
        }

        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&doc, "per_layer"), layers);
        let listed = doc.get("per_layer").and_then(JsonValue::as_array).unwrap();
        for (spec, m) in PER_LAYER.iter().zip(listed) {
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(spec.unit));
            assert_eq!(
                m.get("better").and_then(JsonValue::as_str),
                Some(spec.better.as_str())
            );
        }
    }
}
