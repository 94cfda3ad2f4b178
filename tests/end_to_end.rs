//! End-to-end integration: annotate → train → complete → query across all
//! workspace crates, on both the synthetic and the housing schema.

use restore::core::{CoreResult, ReStore, RestoreConfig, SelectionStrategy, TrainConfig};
use restore::data::housing::{generate_housing, HousingConfig};
use restore::data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore::db::{execute, Agg, Expr, Query, QueryResult};

fn quick_config() -> RestoreConfig {
    RestoreConfig {
        train: TrainConfig {
            epochs: 8,
            hidden: vec![32, 32],
            min_steps: 250,
            max_train_rows: 6000,
            ..TrainConfig::default()
        },
        max_candidates: 2,
        strategy: SelectionStrategy::BestValLoss,
        ..RestoreConfig::default()
    }
}

/// The lifecycle in three lines: train what the query needs, seal, serve.
fn serve(rs: &mut ReStore, q: &Query, seed: u64) -> CoreResult<QueryResult> {
    rs.ensure_query_models(&q.tables, seed)?;
    rs.seal(seed).execute(q, seed)
}

#[test]
fn synthetic_count_query_is_debiased() {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 250,
            predictability: 0.95,
            ..Default::default()
        },
        501,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.4, 0.6);
    removal.seed = 501;
    let sc = apply_removal(&db, &removal);
    let value = sc.bias_value.clone().unwrap();

    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("tb");
    rs.train(501).unwrap();

    let q = Query::new(["tb"])
        .filter(Expr::col("b").eq(Expr::lit(value.as_str())))
        .aggregate(Agg::CountStar);
    let truth = execute(&sc.complete, &q).unwrap().scalar().unwrap();
    let incomplete = execute(rs.db(), &q).unwrap().scalar().unwrap();
    let completed = serve(&mut rs, &q, 501).unwrap().scalar().unwrap();
    assert!(
        (completed - truth).abs() < (incomplete - truth).abs(),
        "COUNT of the biased value: truth {truth}, incomplete {incomplete}, completed {completed}"
    );
}

#[test]
fn housing_sum_query_improves() {
    // The paper's H1-style scenario: expensive apartments missing.
    let complete = generate_housing(&HousingConfig::scaled(0.15), 502);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.7);
    removal.seed = 502;
    removal.tf_keep_rate = 0.3;
    let sc = apply_removal(&complete, &removal);

    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("apartment");
    rs.train(502).unwrap();

    let q = Query::new(["apartment"]).aggregate(Agg::Sum("price".into()));
    let truth = execute(&complete, &q).unwrap().scalar().unwrap();
    let incomplete = execute(rs.db(), &q).unwrap().scalar().unwrap();
    let completed = serve(&mut rs, &q, 502).unwrap().scalar().unwrap();
    assert!(
        (completed - truth).abs() < (incomplete - truth).abs() * 0.7,
        "SUM(price): truth {truth:.0}, incomplete {incomplete:.0}, completed {completed:.0}"
    );
}

#[test]
fn housing_join_query_executes_and_adds_rows() {
    let complete = generate_housing(&HousingConfig::scaled(0.15), 503);
    let mut removal = RemovalConfig::new(BiasSpec::categorical("apartment", "room_type"), 0.5, 0.5);
    removal.seed = 503;
    let sc = apply_removal(&complete, &removal);

    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("apartment");

    let q = Query::new(["landlord", "apartment"]).aggregate(Agg::CountStar);
    let incomplete = execute(rs.db(), &q).unwrap().scalar().unwrap();
    let completed = serve(&mut rs, &q, 503).unwrap().scalar().unwrap();
    let truth = execute(&complete, &q).unwrap().scalar().unwrap();
    assert!(completed > incomplete, "completion must add joined rows");
    assert!(
        (completed - truth).abs() < (incomplete - truth).abs(),
        "join COUNT: truth {truth}, incomplete {incomplete}, completed {completed}"
    );
}

#[test]
fn landlord_n_to_1_completion_works() {
    // H4-style: the *parent* side (landlord) is incomplete.
    let complete = generate_housing(&HousingConfig::scaled(0.15), 504);
    let mut removal =
        RemovalConfig::new(BiasSpec::continuous("landlord", "landlord_since"), 0.4, 0.6);
    removal.seed = 504;
    let sc = apply_removal(&complete, &removal);

    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("landlord");
    let q = Query::new(["landlord"]).aggregate(Agg::CountStar);
    let truth = execute(&complete, &q).unwrap().scalar().unwrap();
    let incomplete = execute(rs.db(), &q).unwrap().scalar().unwrap();
    let completed = serve(&mut rs, &q, 504).unwrap().scalar().unwrap();
    assert!(
        (completed - truth).abs() < (incomplete - truth).abs(),
        "landlord COUNT: truth {truth}, incomplete {incomplete}, completed {completed}"
    );
}

#[test]
fn queries_on_complete_tables_are_exact() {
    let complete = generate_housing(&HousingConfig::scaled(0.15), 505);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.5, 0.5);
    removal.seed = 505;
    let sc = apply_removal(&complete, &removal);
    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("apartment");
    // Neighborhood is complete: ReStore must not touch it.
    let q = Query::new(["neighborhood"]).aggregate(Agg::Avg("pop_density".into()));
    let truth = execute(&complete, &q).unwrap().scalar().unwrap();
    let got = serve(&mut rs, &q, 505).unwrap().scalar().unwrap();
    assert_eq!(truth, got);
}

#[test]
fn completed_join_cache_reuses_results() {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 150,
            ..Default::default()
        },
        506,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = 506;
    let sc = apply_removal(&db, &removal);
    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("tb");
    let q1 = Query::new(["ta", "tb"]).aggregate(Agg::CountStar);
    let q2 = Query::new(["ta", "tb"])
        .group_by(["a"])
        .aggregate(Agg::CountStar);
    rs.ensure_query_models(&q1.tables, 506).unwrap();
    let snap = rs.seal(506);
    let a = snap.execute(&q1, 506).unwrap().scalar().unwrap();
    let h0 = snap.full_cache_stats().hits;
    let groups = snap.execute(&q2, 506).unwrap().groups();
    let h1 = snap.full_cache_stats().hits;
    assert!(
        h1 > h0,
        "second query over the same join path must hit the cache"
    );
    let total: f64 = groups.values().map(|v| v[0]).sum();
    assert_eq!(total, a, "cached join must be consistent across queries");
}

/// §5: the user's suspected-bias hint picks the path — and what it picks is
/// what serves, not only what the build reports.
#[test]
fn suspected_bias_hint_decides_what_serves() {
    use restore::core::{BiasDirection, SuspectedBias};

    let complete = generate_housing(&HousingConfig::scaled(0.1), 513);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
    removal.seed = 513;
    let sc = apply_removal(&complete, &removal);
    let q = Query::new(["apartment"]).aggregate(Agg::Avg("price".into()));

    let served_under = |direction: BiasDirection| {
        let config = RestoreConfig {
            strategy: SelectionStrategy::SuspectedBiasRanking,
            ..quick_config()
        };
        let mut rs = ReStore::new(sc.incomplete.clone(), config);
        rs.mark_incomplete("apartment");
        rs.suspect_bias(SuspectedBias {
            table: "apartment".into(),
            column: "price".into(),
            direction,
            value: None,
        });
        rs.train(513).unwrap();
        rs.ensure_query_models(&q.tables, 513).unwrap();
        let snapshot = rs.seal(513);
        snapshot.execute(&q, 513).unwrap();
        let ranked_first = snapshot.selected_model("apartment").unwrap();
        let served: Vec<Vec<String>> = snapshot
            .cached_completions()
            .into_iter()
            .map(|(chain, _)| chain)
            .collect();
        assert_eq!(
            served,
            [ranked_first.path().tables().to_vec()],
            "{direction:?}: the chain that served is not the one the hint ranked first"
        );
        served
    };
    assert_ne!(
        served_under(BiasDirection::Overestimated),
        served_under(BiasDirection::Underestimated),
        "opposite hints must pick different paths"
    );
}
