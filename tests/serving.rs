//! Concurrent serving contract: an `Arc<Snapshot>` serves any number of
//! threads through `&self`, results are **bit-identical** to serial
//! execution (a pure function of `(snapshot, query, seed)`), cold paths
//! synthesize exactly once under single-flight, and the cache honors its
//! memory budget.

use std::sync::Arc;

use restore_fixtures::{result_fingerprint as fingerprint, serving_workload as workload};

use restore::core::{CompleterConfig, ReStore, RestoreConfig, Snapshot, TrainConfig};
use restore::data::{apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig};
use restore::db::{Agg, Query};

fn quick_config() -> RestoreConfig {
    RestoreConfig {
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
    }
}

fn build_restore(seed: u64) -> ReStore {
    let db = generate_synthetic(
        &SyntheticConfig {
            predictability: 0.9,
            n_parent: 150,
            ..Default::default()
        },
        seed,
    );
    let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
    removal.seed = seed;
    let sc = apply_removal(&db, &removal);
    let mut rs = ReStore::new(sc.incomplete.clone(), quick_config());
    rs.mark_incomplete("tb");
    rs
}

/// Builds a sealed snapshot with every workload model trained.
fn sealed(seed: u64) -> Arc<Snapshot> {
    let mut rs = build_restore(seed);
    rs.train(seed).expect("train");
    for q in workload() {
        rs.ensure_query_models(&q.tables, seed).expect("ensure");
    }
    Arc::new(rs.seal(seed))
}

#[test]
fn concurrent_execution_is_bit_identical_to_serial() {
    let queries = workload();
    let seeds: Vec<u64> = vec![11, 12, 13];

    // Serial reference on a fresh snapshot.
    let serial_snap = sealed(31);
    let mut reference = Vec::new();
    for q in &queries {
        for &s in &seeds {
            reference.push(fingerprint(&serial_snap.execute(q, s).unwrap()));
        }
    }

    // ≥4 threads over one fresh shared snapshot, same and different
    // queries, each thread in a different order.
    let snap = sealed(31);
    let barrier = Arc::new(std::sync::Barrier::new(5));
    let mut handles = Vec::new();
    for t in 0..5usize {
        let (snap, queries, seeds, barrier) = (
            Arc::clone(&snap),
            queries.clone(),
            seeds.clone(),
            Arc::clone(&barrier),
        );
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let n = queries.len() * seeds.len();
            let mut results = vec![String::new(); n];
            for k in 0..n {
                let idx = (k + t * 5) % n;
                let (qi, si) = (idx / seeds.len(), idx % seeds.len());
                results[idx] = fingerprint(&snap.execute(&queries[qi], seeds[si]).unwrap());
            }
            results
        }));
    }
    for (t, h) in handles.into_iter().enumerate() {
        let results = h.join().expect("serving thread");
        assert_eq!(
            results, reference,
            "thread {t} diverged from serial execution"
        );
    }
}

#[test]
fn single_flight_synthesizes_each_path_once() {
    // 8 threads hammer the same single completion path on a cold cache.
    let snap = sealed(32);
    assert!(snap.cached_completions().is_empty(), "cache starts cold");
    let q = Query::new(["ta", "tb"]).aggregate(Agg::CountStar);
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let (snap, q, barrier) = (Arc::clone(&snap), q.clone(), Arc::clone(&barrier));
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            snap.execute(&q, 100 + t).unwrap().scalar().unwrap()
        }));
    }
    let answers: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Same completed join underneath ⇒ identical COUNT(*) for every seed
    // (the count does not depend on the per-query thinning RNG here, and
    // the synthesis seed is path-derived, not query-derived).
    let stats = snap.full_cache_stats();
    let distinct_paths = snap.cached_completions().len() as u64;
    assert_eq!(distinct_paths, 1, "one chain serves this workload");
    assert_eq!(
        stats.misses, distinct_paths,
        "misses must count distinct paths, not the 8 requests: {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.waits + stats.misses,
        8,
        "every request is a hit, a single-flight wait, or the one miss: {stats:?}"
    );
    assert!(
        answers.iter().all(|a| a.to_bits() == answers[0].to_bits()),
        "all threads must see the same completed join: {answers:?}"
    );
}

#[test]
fn sealed_results_do_not_depend_on_which_query_warmed_the_cache() {
    // Pure-function contract: execute(q, s) is the same whether the path
    // was first synthesized by this query or by an unrelated one.
    let q_count = Query::new(["ta", "tb"]).aggregate(Agg::CountStar);
    let q_group = Query::new(["ta", "tb"])
        .group_by(["b"])
        .aggregate(Agg::CountStar);

    let a = sealed(33);
    let first = fingerprint(&a.execute(&q_count, 5).unwrap());

    let b = sealed(33);
    // Different warm-up query, different seed populates the cache…
    b.execute(&q_group, 999).unwrap();
    let second = fingerprint(&b.execute(&q_count, 5).unwrap());
    assert_eq!(first, second, "cache population order leaked into results");
}

#[test]
fn seal_rewarms_build_cache_under_the_serve_seed() {
    // A cache warmed during the build phase (legacy query-derived seeds)
    // must not leak into sealed results: seal re-synthesizes each chain
    // under the serve seed, so a warm-sealed and a cold-sealed snapshot
    // serve identical bits — before *and* after any eviction.
    let q = Query::new(["ta", "tb"]).aggregate(Agg::CountStar);

    let mut rs = build_restore(37);
    rs.train(37).expect("train");
    rs.ensure_query_models(&q.tables, 37).expect("ensure");
    rs.execute(&q, 12345).unwrap(); // warms the facade cache, seed 12345
    let warm = Arc::new(rs.seal(37));
    let stats = warm.full_cache_stats();
    assert!(stats.entries >= 1, "seal must arrive pre-warmed: {stats:?}");

    let cold = sealed(37);
    assert_eq!(
        fingerprint(&warm.execute(&q, 5).unwrap()),
        fingerprint(&cold.execute(&q, 5).unwrap()),
        "build-time cache contents leaked into sealed results"
    );
    // The pre-warmed entry serves the first query as a hit.
    assert!(warm.full_cache_stats().hits >= 1);
}

#[test]
fn snapshot_serves_through_shared_reference() {
    // The compile-time shape of the tentpole: all serving methods on &self
    // behind an Arc, no locks in user code.
    let snap = sealed(34);
    let snap2 = Arc::clone(&snap);
    let q = Query::new(["tb"]).aggregate(Agg::CountStar);
    let r1 = snap.execute(&q, 1).unwrap();
    let t = snap2.completed_table("tb", 1).unwrap();
    assert!(t.n_rows() > 0);
    assert!(r1.scalar().is_some());
    // Confidence intervals also serve from &self.
    let ci = snap.confidence(
        &["ta".to_string(), "tb".to_string()],
        &restore::core::ConfidenceQuery::CountFraction {
            table: "tb".into(),
            column: "b".into(),
            value: "b1".into(),
        },
        0.95,
        1,
    );
    assert!(ci.is_ok(), "confidence must serve from &self: {ci:?}");
}

/// A parent with two incomplete children → two distinct completion chains
/// (`p→c1`, `p→c2`), so eviction under a one-entry budget is observable
/// end-to-end.
fn two_chain_restore(budget: usize, seed: u64) -> ReStore {
    use restore::db::{DataType, Database, Field, ForeignKey, Table, Value};
    let mut db = Database::new();
    let mut parent = Table::new(
        "p",
        vec![
            Field::new("id", DataType::Int),
            Field::new("a", DataType::Str),
        ],
    );
    let mut c1 = Table::new(
        "c1",
        vec![
            Field::new("id", DataType::Int),
            Field::new("p_id", DataType::Int),
            Field::new("x", DataType::Str),
        ],
    );
    let mut c2 = Table::new(
        "c2",
        vec![
            Field::new("id", DataType::Int),
            Field::new("p_id", DataType::Int),
            Field::new("y", DataType::Str),
        ],
    );
    for i in 0..60i64 {
        parent
            .push_row(&[Value::Int(i), Value::str(format!("a{}", i % 5))])
            .unwrap();
        for j in 0..3i64 {
            c1.push_row(&[
                Value::Int(i * 3 + j),
                Value::Int(i),
                Value::str(format!("x{}", i % 5)),
            ])
            .unwrap();
            c2.push_row(&[
                Value::Int(i * 3 + j),
                Value::Int(i),
                Value::str(format!("y{}", (i + j) % 4)),
            ])
            .unwrap();
        }
    }
    db.add_table(parent);
    db.add_table(c1);
    db.add_table(c2);
    db.add_foreign_key(ForeignKey::new("c1", "p_id", "p", "id"))
        .unwrap();
    db.add_foreign_key(ForeignKey::new("c2", "p_id", "p", "id"))
        .unwrap();
    let mut removal = RemovalConfig::new(BiasSpec::categorical("c1", "x"), 0.6, 0.3);
    removal.seed = seed;
    let sc = apply_removal(&db, &removal);
    // Remove rows from c2 as well so both children need completion.
    let mut removal2 = RemovalConfig::new(BiasSpec::categorical("c2", "y"), 0.6, 0.3);
    removal2.seed = seed ^ 1;
    let sc2 = apply_removal(&sc.incomplete, &removal2);

    let mut cfg = quick_config();
    cfg.cache_budget_bytes = budget;
    let mut rs = ReStore::new(sc2.incomplete, cfg);
    rs.mark_incomplete("c1");
    rs.mark_incomplete("c2");
    rs
}

#[test]
fn cache_budget_evicts_lru_end_to_end() {
    let q1 = Query::new(["c1"]).aggregate(Agg::CountStar);
    let q2 = Query::new(["c2"]).aggregate(Agg::CountStar);

    // Probe run (unbounded) to size one completion entry.
    let mut rs = two_chain_restore(0, 36);
    rs.train(36).expect("train");
    for q in [&q1, &q2] {
        rs.ensure_query_models(&q.tables, 36).expect("ensure");
    }
    let probe = rs.seal(36);
    probe.execute(&q1, 1).unwrap();
    let one_entry = probe.full_cache_stats().bytes;
    assert!(one_entry > 0);
    probe.execute(&q2, 1).unwrap();
    assert_eq!(probe.full_cache_stats().entries, 2, "two distinct chains");

    // Budget fits one entry: serving both chains must evict, stay within
    // budget, and keep answering correctly.
    let mut rs = two_chain_restore(one_entry + one_entry / 2, 36);
    rs.train(36).expect("train");
    for q in [&q1, &q2] {
        rs.ensure_query_models(&q.tables, 36).expect("ensure");
    }
    let snap = rs.seal(36);
    let a1 = snap.execute(&q1, 1).unwrap().scalar().unwrap();
    let a2 = snap.execute(&q2, 1).unwrap().scalar().unwrap();
    let stats = snap.full_cache_stats();
    assert!(
        stats.evictions >= 1,
        "second chain must evict the first: {stats:?}"
    );
    assert!(stats.entries <= 2);
    assert!(
        stats.bytes <= snap.config().cache_budget_bytes,
        "resident bytes over budget: {stats:?}"
    );
    // Evicted path re-synthesizes deterministically: same answer as before.
    let a1_again = snap.execute(&q1, 1).unwrap().scalar().unwrap();
    assert_eq!(a1_again.to_bits(), a1.to_bits(), "resynthesis diverged");
    assert!(a2.is_finite());
}
