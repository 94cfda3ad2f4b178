//! Inputs: the generated databases, the trained systems, and the fixed
//! request cycle of each workload. The program under test sees only the
//! generated database and the request bytes.
//!
//! `--seed` drives what a run *asks*: every request's query seed, the
//! serve seed the snapshot is sealed with (so which tuples get
//! synthesized), and where in the cycle each client starts. The database,
//! the removal and the training seed are the same for every `--seed`
//! ([`DATA_SEED`]): sizing showed that another database moves join sizes
//! enough to shift `queries_per_s` by 13 % and `peak_rss_mb` by 19 % from
//! seed to seed — more than any bound — while saying nothing about the
//! code under test.

use std::collections::BTreeMap;
use std::time::Instant;

use restore_core::wire::QueryRequest;
use restore_core::{
    CompleterConfig, ConfidenceQuery, ReStore, RestoreConfig, Snapshot, TrainConfig,
};
use restore_data::housing::{generate_housing, HousingConfig};
use restore_data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore_db::{Agg, Database, Expr, Query, QueryResult};
use restore_util::derive_seed;

use crate::spec::Workload;

/// Seed of data generation, removal and training, whatever `--seed` is.
pub const DATA_SEED: u64 = 1;

/// A trained, unsealed system plus the complete database its incomplete
/// one was cut from (the ground truth of `rel_error`).
pub struct Built {
    pub complete: Database,
    pub restore: ReStore,
    /// `ReStore::train` + `ensure_query_models` for the workload's cycle.
    pub train_s: f64,
}

/// The cycle's distinct query shapes, in cycle order, each with its own
/// query seed.
pub fn cycle(workload: Workload, seed: u64) -> Vec<QueryRequest> {
    let shapes = match workload.housing_scale() {
        None => synthetic_shapes(),
        Some(_) if workload == Workload::SynthesisCold => cold_shapes(),
        Some(_) => dashboard_shapes(),
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (query, confidence))| {
            let request = QueryRequest::new(query, derive_seed(seed, i as u64) % (1 << 32));
            match confidence {
                Some(c) => request.with_confidence(c, 0.95),
                None => request,
            }
        })
        .collect()
}

type Shape = (Query, Option<ConfidenceQuery>);

/// The five serving shapes over the synthetic `ta → tb` schema: AQP work
/// is microseconds, so the wire does nearly all the work.
fn synthetic_shapes() -> Vec<Shape> {
    vec![
        Query::new(["tb"]).aggregate(Agg::CountStar),
        Query::new(["ta", "tb"]).aggregate(Agg::CountStar),
        Query::new(["ta", "tb"])
            .group_by(["b"])
            .aggregate(Agg::CountStar),
        Query::new(["tb"]).group_by(["b"]).aggregate(Agg::CountStar),
        Query::new(["ta"]).aggregate(Agg::CountStar),
    ]
    .into_iter()
    .map(|q| (q, None))
    .collect()
}

/// Paper Table 1 Q1–Q3 and Q6–Q10 (the housing queries that touch
/// `apartment`), plus a two-aggregate group-by over `neighborhood ⋈
/// apartment` and a count by `room_type`: seven join shapes and three
/// single-table shapes, so the cycle median sits inside the join mode.
fn dashboard_shapes() -> Vec<Shape> {
    let entire = || Expr::col("room_type").eq(Expr::lit("Entire home/apt"));
    let slow_landlord = || Expr::col("landlord_response_time").ge(Expr::lit(2i64));
    vec![
        Query::new(["apartment"])
            .filter(entire())
            .aggregate(Agg::Sum("price".into())),
        Query::new(["landlord", "apartment"])
            .filter(entire())
            .group_by(["landlord_since"])
            .aggregate(Agg::Avg("price".into())),
        Query::new(["apartment"])
            .filter(entire().and(Expr::col("property_type").eq(Expr::lit("House"))))
            .group_by(["property_type"])
            .aggregate(Agg::CountStar),
        Query::new(["landlord", "apartment"])
            .filter(Expr::col("accommodates").ge(Expr::lit(3i64)))
            .group_by(["landlord_since"])
            .aggregate(Agg::CountStar),
        Query::new(["neighborhood", "apartment"])
            .group_by(["state"])
            .aggregate(Agg::CountStar)
            .aggregate(Agg::Avg("price".into())),
        Query::new(["landlord", "apartment"])
            .filter(Expr::col("landlord_since").ge(Expr::lit(2013i64)))
            .group_by(["landlord_since"])
            .aggregate(Agg::CountStar),
        Query::new(["apartment"])
            .filter(Expr::col("property_type").eq(Expr::lit("House")))
            .aggregate(Agg::CountStar),
        Query::new(["landlord", "apartment"])
            .filter(entire().and(slow_landlord()))
            .aggregate(Agg::Sum("landlord_since".into())),
        Query::new(["neighborhood", "apartment"])
            .group_by(["room_type"])
            .aggregate(Agg::CountStar),
        Query::new(["landlord", "apartment"])
            .filter(entire().and(slow_landlord()))
            .aggregate(Agg::Avg("landlord_response_rate".into())),
    ]
    .into_iter()
    .map(|q| (q, None))
    .collect()
}

/// A, B, A, B + §6 confidence: two chains that evict each other from a
/// one-byte cache, so every request synthesizes.
fn cold_shapes() -> Vec<Shape> {
    let a = || {
        Query::new(["neighborhood", "apartment"])
            .group_by(["state"])
            .aggregate(Agg::Avg("price".into()))
    };
    let b = || Query::new(["landlord", "apartment"]).aggregate(Agg::Avg("price".into()));
    let avg_price = ConfidenceQuery::Avg {
        table: "apartment".into(),
        column: "price".into(),
    };
    vec![
        (a(), None),
        (b(), None),
        (a(), None),
        (b(), Some(avg_price)),
    ]
}

/// Generates the workload's database, removes tuples with the workload's
/// bias, trains the candidate models of every cycle shape.
pub fn build(workload: Workload, cycle: &[QueryRequest]) -> Built {
    let seed = DATA_SEED;
    let (complete, removal, incomplete_table, config) = match workload.housing_scale() {
        None => {
            let db = generate_synthetic(
                &SyntheticConfig {
                    predictability: 0.9,
                    n_parent: 150,
                    ..Default::default()
                },
                seed,
            );
            let removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
            // The small serving fixture the repo's tests and legacy bench
            // bins use: one candidate, 24×24 hidden units.
            let config = RestoreConfig {
                train: TrainConfig {
                    epochs: 3,
                    min_steps: 60,
                    hidden: vec![24, 24],
                    max_train_rows: 2_000,
                    workers: 1,
                    ..TrainConfig::default()
                },
                completer: CompleterConfig {
                    workers: 1,
                    ..CompleterConfig::default()
                },
                max_candidates: 1,
                ..RestoreConfig::default()
            };
            (db, removal, "tb", config)
        }
        Some(scale) => {
            let db = generate_housing(&HousingConfig::scaled(scale), seed);
            // H1-style: expensive apartments are more likely to be missing.
            let mut removal =
                RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
            removal.tf_keep_rate = 0.3;
            let mut train = TrainConfig::default();
            if workload == Workload::RebuildBesideReads {
                // A rebuild retrains with the configuration the snapshot
                // was built with. One trainer thread beside the reader's
                // closed loop is two runnable threads on the sizing box's
                // two cores; with a trainer thread per core the reader's
                // tail was the scheduler's time slice, not the program
                // (p90 over p50 read 1.14–1.49 from run to run, against
                // 1.17–1.35 with one).
                train.workers = 1;
            }
            let config = RestoreConfig {
                train,
                // One byte: nothing stays resident but the newest entry.
                cache_budget_bytes: if workload == Workload::SynthesisCold {
                    1
                } else {
                    RestoreConfig::default().cache_budget_bytes
                },
                ..RestoreConfig::default()
            };
            (db, removal, "apartment", config)
        }
    };
    let removal = RemovalConfig { seed, ..removal };
    let scenario = apply_removal(&complete, &removal);

    let started = Instant::now();
    let mut restore = ReStore::new(scenario.incomplete, config);
    restore.mark_incomplete(incomplete_table);
    restore.train(seed).expect("train");
    for request in cycle {
        restore
            .ensure_query_models(&request.query.tables, seed)
            .expect("train the cycle's candidate models");
    }
    Built {
        complete,
        restore,
        train_s: started.elapsed().as_secs_f64(),
    }
}

/// What one request must be answered with: the in-process result on the
/// same snapshot, and its wire body.
pub struct Expected {
    pub result: QueryResult,
    pub interval: Option<restore_core::ConfidenceInterval>,
    pub body: String,
}

pub fn expected(snapshot: &Snapshot, request: &QueryRequest) -> Expected {
    let result = snapshot
        .execute(&request.query, request.seed)
        .expect("cycle query executes");
    let interval = request.confidence.as_ref().map(|spec| {
        snapshot
            .confidence(&request.query.tables, &spec.query, spec.level, request.seed)
            .expect("cycle confidence query executes")
    });
    let body = restore_core::wire::query_response_json(&result, interval.as_ref());
    Expected {
        result,
        interval,
        body,
    }
}

fn relative_error(estimate: f64, truth: f64) -> f64 {
    if truth.abs() < 1e-12 {
        (estimate - truth).abs()
    } else {
        (estimate - truth).abs() / truth.abs()
    }
}

/// Paper §7 group relative error: mean over the *true* groups and the
/// query's aggregates; a group missing from the estimate counts 1.0. The
/// benchmark's own copy of the measure `restore-eval` reports, so that
/// what `quality.rel_error` means cannot move with the harness it checks.
pub fn group_relative_error(
    truth: &BTreeMap<Vec<String>, Vec<f64>>,
    estimate: &BTreeMap<Vec<String>, Vec<f64>>,
) -> f64 {
    let mut total = 0.0;
    let mut terms = 0usize;
    for (key, true_values) in truth {
        for (i, &t) in true_values.iter().enumerate() {
            total += match estimate.get(key).and_then(|e| e.get(i)) {
                Some(&e) if e.is_finite() => relative_error(e, t),
                _ => 1.0,
            };
            terms += 1;
        }
    }
    if terms == 0 {
        0.0
    } else {
        total / terms as f64
    }
}

/// `(rel_error of the served answers, rel_error of the incomplete
/// database)`, each the mean over the cycle's shapes.
pub fn rel_errors(
    complete: &Database,
    incomplete: &Database,
    cycle: &[QueryRequest],
    served: &[Expected],
) -> (f64, f64) {
    let (mut completed_sum, mut incomplete_sum) = (0.0, 0.0);
    for (request, answer) in cycle.iter().zip(served) {
        let truth = restore_db::execute(complete, &request.query)
            .expect("ground truth")
            .groups();
        let baseline = restore_db::execute(incomplete, &request.query)
            .expect("incomplete baseline")
            .groups();
        completed_sum += group_relative_error(&truth, &answer.result.groups());
        incomplete_sum += group_relative_error(&truth, &baseline);
    }
    let n = cycle.len().max(1) as f64;
    (completed_sum / n, incomplete_sum / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_groups_count_as_full_error() {
        let mut truth = BTreeMap::new();
        truth.insert(vec!["a".to_string()], vec![100.0]);
        truth.insert(vec!["b".to_string()], vec![50.0]);
        let mut estimate = BTreeMap::new();
        estimate.insert(vec!["a".to_string()], vec![110.0]);
        let e = group_relative_error(&truth, &estimate);
        assert!((e - (0.1 + 1.0) / 2.0).abs() < 1e-12);
        assert_eq!(group_relative_error(&BTreeMap::new(), &estimate), 0.0);
    }

    #[test]
    fn cycles_have_the_documented_lengths_and_are_seeded() {
        assert_eq!(cycle(Workload::WireSmall, 1).len(), 5);
        assert_eq!(cycle(Workload::FleetHop, 1).len(), 5);
        assert_eq!(cycle(Workload::DashboardWarm, 1).len(), 10);
        assert_eq!(cycle(Workload::RebuildBesideReads, 1).len(), 10);
        let cold = cycle(Workload::SynthesisCold, 1);
        assert_eq!(cold.len(), 4);
        assert!(cold[3].confidence.is_some() && cold[0].confidence.is_none());
        let single = cycle(Workload::DashboardWarm, 1)
            .iter()
            .filter(|r| r.query.tables.len() == 1)
            .count();
        assert_eq!(single, 3);
        assert_eq!(
            cycle(Workload::DashboardWarm, 7)[2].to_json(),
            cycle(Workload::DashboardWarm, 7)[2].to_json()
        );
        assert_ne!(
            cycle(Workload::DashboardWarm, 7)[2].to_json(),
            cycle(Workload::DashboardWarm, 8)[2].to_json()
        );
    }
}
