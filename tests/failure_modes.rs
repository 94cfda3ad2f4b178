//! Failure injection: the system must degrade with clear errors, not
//! panics, when data is degenerate or requests are malformed.

use restore::core::{
    CompletionPath, CoreError, CoreResult, ReStore, RestoreConfig, SchemaAnnotation, TrainConfig,
};
use restore::data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore::db::{Agg, DataType, Database, Field, ForeignKey, Query, QueryResult, Table, Value};

fn quick_config() -> RestoreConfig {
    RestoreConfig {
        train: TrainConfig {
            epochs: 4,
            hidden: vec![16, 16],
            min_steps: 100,
            ..TrainConfig::default()
        },
        max_candidates: 1,
        ..RestoreConfig::default()
    }
}

/// The lifecycle in three lines: train what the query needs, seal, serve.
fn serve(rs: &mut ReStore, q: &Query, seed: u64) -> CoreResult<QueryResult> {
    rs.ensure_query_models(&q.tables, seed)?;
    rs.seal(seed).execute(q, seed)
}

#[test]
fn unknown_table_in_query_errors() {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 40,
            ..Default::default()
        },
        601,
    );
    let mut rs = ReStore::new(db, quick_config());
    rs.mark_incomplete("tb");
    let q = Query::new(["nonexistent"]).aggregate(Agg::CountStar);
    assert!(serve(&mut rs, &q, 601).is_err());
}

#[test]
fn incomplete_table_without_evidence_errors() {
    // A lone table with no FK neighbors has no completion path.
    let mut db = Database::new();
    let mut t = Table::new(
        "island",
        vec![
            Field::new("id", DataType::Int),
            Field::new("x", DataType::Float),
        ],
    );
    for i in 0..50 {
        t.push_row(&[Value::Int(i), Value::Float(i as f64)])
            .unwrap();
    }
    db.add_table(t);
    let mut rs = ReStore::new(db, quick_config());
    rs.mark_incomplete("island");
    let q = Query::new(["island"]).aggregate(Agg::CountStar);
    let err = serve(&mut rs, &q, 602).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::NoPath(_) | CoreError::NoModel(_) | CoreError::Invalid(_)
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn nearly_empty_incomplete_table_fails_training_gracefully() {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 30,
            ..Default::default()
        },
        603,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.02, 0.0);
    removal.seed = 603;
    let sc = apply_removal(&db, &removal);
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let path = CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
    let result = restore::core::CompletionModel::train(
        &sc.incomplete,
        &ann,
        path,
        &quick_config().train,
        603,
    );
    assert!(matches!(result, Err(CoreError::InsufficientData(_))));
}

#[test]
fn constant_attribute_is_handled() {
    // A degenerate (constant) attribute must not break training/completion.
    let mut db = Database::new();
    let mut parent = Table::new(
        "p",
        vec![
            Field::new("id", DataType::Int),
            Field::new("a", DataType::Str),
        ],
    );
    let mut child = Table::new(
        "c",
        vec![
            Field::new("id", DataType::Int),
            Field::new("p_id", DataType::Int),
            Field::new("x", DataType::Str),
        ],
    );
    for i in 0..40 {
        parent
            .push_row(&[Value::Int(i), Value::str("same")])
            .unwrap();
        for j in 0..3 {
            child
                .push_row(&[Value::Int(i * 3 + j), Value::Int(i), Value::str("only")])
                .unwrap();
        }
    }
    db.add_table(parent);
    db.add_table(child);
    db.add_foreign_key(ForeignKey::new("c", "p_id", "p", "id"))
        .unwrap();
    // Remove a third of the children.
    let mut removal = RemovalConfig::new(BiasSpec::categorical("c", "x"), 0.66, 0.3);
    removal.seed = 604;
    let sc = apply_removal(&db, &removal);
    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("c");
    let q = Query::new(["c"]).aggregate(Agg::CountStar);
    let completed = serve(&mut rs, &q, 604).unwrap().scalar().unwrap();
    assert!(
        completed > 70.0,
        "completion should restore the constant-attr table, got {completed}"
    );
}

#[test]
fn nulls_in_evidence_are_tolerated() {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 80,
            ..Default::default()
        },
        605,
    );
    // Null out some evidence values.
    let mut ta = db.table("ta").unwrap().clone();
    let mut nulled = Table::new("ta", ta.fields().to_vec());
    for r in 0..ta.n_rows() {
        let mut row = ta.row(r);
        if r % 7 == 0 {
            row[1] = Value::Null;
        }
        nulled.push_row(&row).unwrap();
    }
    ta = nulled;
    let mut db2 = db.clone();
    db2.replace_table(ta);
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = 605;
    let sc = apply_removal(&db2, &removal);
    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("tb");
    let q = Query::new(["tb"]).aggregate(Agg::CountStar);
    assert!(
        serve(&mut rs, &q, 605).is_ok(),
        "NULL evidence must not break completion"
    );
}

#[test]
fn forced_path_must_end_at_target() {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent: 40,
            ..Default::default()
        },
        606,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = 606;
    let sc = apply_removal(&db, &removal);
    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("tb");
    let err = rs
        .set_selected_path("tb", &["tb".to_string(), "ta".to_string()], 606)
        .unwrap_err();
    assert!(matches!(err, CoreError::Invalid(_)));
}
