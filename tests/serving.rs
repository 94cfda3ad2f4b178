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

/// A parent `p` with two children `c1`, `c2` (three each), rows removed
/// from both children.
fn two_children_db(seed: u64) -> restore::db::Database {
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
    apply_removal(&sc.incomplete, &removal2).incomplete
}

/// `parents` rows of `p`, no two alike in `(a, b)`, each with `existing`
/// children in `c` and a known tuple factor of `tf`: completing `c`
/// synthesizes `tf − existing` tuples per parent.
fn fan_out_db(parents: i64, existing: i64, tf: i64) -> restore::db::Database {
    use restore::db::{DataType, Database, Field, ForeignKey, Table, Value};
    let mut parent = Table::new(
        "p",
        vec![
            Field::new("id", DataType::Int),
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
            Field::new("__tf_c", DataType::Int),
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
    for i in 0..parents {
        let (a, b) = (format!("a{}", i % 12), format!("b{}", i / 12));
        parent
            .push_row(&[Value::Int(i), Value::str(a), Value::str(b), Value::Int(tf)])
            .unwrap();
        for j in 0..existing {
            let x = format!("x{}", (i + j) % 3);
            child
                .push_row(&[Value::Int(i * existing + j), Value::Int(i), Value::str(x)])
                .unwrap();
        }
    }
    let mut db = Database::new();
    db.add_table(parent);
    db.add_table(child);
    db.add_foreign_key(ForeignKey::new("c", "p_id", "p", "id"))
        .unwrap();
    db
}

/// Both children incomplete → two distinct completion chains (`p→c1`,
/// `p→c2`), so eviction under a one-entry budget is observable end-to-end.
fn two_chain_restore(budget: usize, seed: u64) -> ReStore {
    let mut cfg = quick_config();
    cfg.cache_budget_bytes = budget;
    let mut rs = ReStore::new(two_children_db(seed), cfg);
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

/// A completed relation is half as large as the join it hangs off, so it
/// counts: the entry grows by it on the first single-table query and by
/// nothing after, and growth past the budget evicts the least recently
/// used *other* entry, never the grown one.
#[test]
fn attached_relations_count_against_the_cache_budget() {
    let q1 = Query::new(["c1"]).aggregate(Agg::CountStar);
    let q2 = Query::new(["c2"]).aggregate(Agg::CountStar);
    let build = |budget| {
        let mut rs = two_chain_restore(budget, 36);
        rs.train(36).expect("train");
        for q in [&q1, &q2] {
            rs.ensure_query_models(&q.tables, 36).expect("ensure");
        }
        rs.seal(36)
    };
    let snap = build(0);
    let chain_of = |q: &Query| {
        let probe = Snapshot::from_bytes(&snap.to_bytes()).expect("load");
        probe.execute(q, 1).expect("execute");
        probe.cached_completions().pop().expect("one completion").0
    };
    let (chain1, chain2) = (chain_of(&q1), chain_of(&q2));
    assert_ne!(chain1, chain2);

    // The joins alone, then the first query over `c1`, then more of them.
    let out1 = snap.complete_join(&chain1).expect("complete");
    let out2 = snap.complete_join(&chain2).expect("complete");
    let (join1, join2) = (out1.approx_bytes(), out2.approx_bytes());
    assert_eq!(snap.full_cache_stats().bytes, join1 + join2);

    snap.execute(&q1, 1).expect("execute");
    let relation = out1.approx_bytes() - join1;
    let c1 = snap.db().table("c1").expect("c1");
    assert!(
        relation >= c1.n_rows() * c1.n_cols() * 8,
        "a relation holds at least the base rows: {relation} bytes"
    );
    assert_eq!(snap.full_cache_stats().bytes, join1 + join2 + relation);
    snap.execute(&q1, 2).expect("execute");
    snap.execute(&q1.clone().group_by(["x"]), 3)
        .expect("execute");
    snap.completed_table("c1", 4).expect("completed table");
    assert_eq!(snap.full_cache_stats().bytes, join1 + join2 + relation);
    assert_eq!(
        out2.approx_bytes(),
        join2,
        "nothing was attached to c2's join"
    );

    // The same build with room for the two joins and nothing else, where
    // `chain1` is the least recently used entry: charging the growth evicts
    // the other entry, never the grown one.
    let tight = build(join1 + join2);
    tight.complete_join(&chain1).expect("complete");
    tight.complete_join(&chain2).expect("complete");
    assert_eq!(tight.full_cache_stats().evictions, 0);
    tight.execute(&q1, 1).expect("execute");
    let stats = tight.full_cache_stats();
    assert_eq!((stats.entries, stats.evictions), (1, 1), "{stats:?}");
    assert_eq!(stats.bytes, join1 + relation);
    let (resident, _) = tight.cached_completions().pop().expect("one entry");
    assert_eq!(resident, chain1, "the grown entry stays");
}

/// Retired formulations, kept as oracles. Of `Snapshot::execute`: the warm
/// path as it was before queries ran in place — the §4.4 projection copied
/// into a table (the retired `Snapshot::project_completed`), the completed
/// relation built cell by cell, and the materializing tail (mask → filtered
/// copy → aggregate) on `Expr::eval_mask`. Of `Snapshot::confidence`: §6 as
/// it was computed before it read only what it uses.
mod oracle {
    use std::collections::HashSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use restore::core::wire::query_response_json;
    use restore::core::{
        CompletionModel, CompletionOutput, ConfidenceInterval, ConfidenceQuery, Snapshot,
    };
    use restore::db::{aggregate, DataType, Database, Query, QueryResult, Table, Value};
    use restore::nn::{kl_divergence, InferenceSession};

    /// §6 over the whole join: every attribute of every row encoded, the
    /// conditionals of all synthesized rows as one batch on a fresh
    /// session, `token_numeric` per token per row, one `to_string()` per
    /// real cell, the marginal one `Value` at a time.
    pub fn confidence(
        model: &CompletionModel,
        db: &Database,
        out: &CompletionOutput,
        query: &ConfidenceQuery,
        level: f64,
    ) -> ConfidenceInterval {
        let (table, column) = match query {
            ConfidenceQuery::CountFraction { table, column, .. }
            | ConfidenceQuery::Avg { table, column }
            | ConfidenceQuery::Sum { table, column } => (table.as_str(), column.as_str()),
        };
        let attr_idx = model.attr_index(table, column).unwrap();
        let encoder = &model.attrs()[attr_idx].encoder;
        let syn = out.synthesized_for(table).unwrap();
        let join = &out.join;
        let col = join.resolve(&format!("{table}.{column}")).unwrap();
        let n = join.n_rows();
        let syn_rows: Vec<usize> = (0..n).filter(|&r| syn[r]).collect();
        let real_rows: Vec<usize> = (0..n).filter(|&r| !syn[r]).collect();

        let encoded = model.encode_tokens(join, &out.tf);
        let mut dists: Vec<Vec<f32>> = Vec::new();
        if !syn_rows.is_empty() {
            let mut session = InferenceSession::new();
            model
                .conditional_dists_encoded_in(
                    &mut session,
                    join,
                    &encoded,
                    attr_idx,
                    &syn_rows,
                    |_, d| dists.push(d.to_vec()),
                )
                .unwrap();
        }
        let trained_on = db.table(table).unwrap().column_by_name(column).unwrap();
        let mut marginal = vec![0.0f32; encoder.cardinality()];
        let mut total = 0.0f32;
        for r in 0..trained_on.len() {
            if let Some(token) = encoder.encode(&trained_on.get(r)) {
                marginal[token as usize] += 1.0;
                total += 1.0;
            }
        }
        if total > 0.0 {
            marginal.iter_mut().for_each(|c| *c /= total);
        }
        let certainty =
            |d: &[f32]| (1.0 - (-kl_divergence(d, &marginal)).exp()).clamp(0.0, 1.0) as f64;

        if let ConfidenceQuery::CountFraction { value, .. } = query {
            let target = encoder.encode(&Value::str(value)).or_else(|| {
                let number = value.parse::<f64>().ok()?;
                encoder.encode(&Value::Float(number))
            });
            let holds = |r: &&usize| join.value(**r, col).to_string() == *value;
            let existing = real_rows.iter().filter(holds).count() as f64;
            let (mut lo, mut hi, mut est) = (existing, existing, existing);
            for d in &dists {
                let p = target.map_or(0.0, |t| d.get(t as usize).copied().unwrap_or(0.0)) as f64;
                let c = certainty(d);
                lo += c * p + (1.0 - c) * (1.0 - level);
                hi += c * p + (1.0 - c) * level;
                est += p;
            }
            let total = n.max(1) as f64;
            let all = existing + syn_rows.len() as f64;
            return ConfidenceInterval {
                lo: lo / total,
                hi: hi / total,
                estimate: est / total,
                theoretical: Some((existing / total, all / total)),
            };
        }
        let mut known: Vec<f64> = (0..trained_on.len())
            .filter_map(|r| trained_on.get(r).as_f64())
            .collect();
        known.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pick = |q: f64| known[((known.len() - 1) as f64 * q).round() as usize];
        let (q_lo, q_hi) = (pick(1.0 - level), pick(level));
        let (mut lo, mut hi, mut est, mut count) = (0.0, 0.0, 0.0, 0usize);
        for &r in &real_rows {
            if let Some(x) = join.value(r, col).as_f64() {
                lo += x;
                hi += x;
                est += x;
                count += 1;
            }
        }
        for d in &dists {
            let expected: f64 = d
                .iter()
                .enumerate()
                .map(|(t, &p)| p as f64 * encoder.token_numeric(t as u32).unwrap_or(0.0))
                .sum();
            let c = certainty(d);
            lo += c * expected + (1.0 - c) * q_lo;
            hi += c * expected + (1.0 - c) * q_hi;
            est += expected;
            count += 1;
        }
        let per = match query {
            ConfidenceQuery::Avg { .. } => count.max(1) as f64,
            _ => 1.0,
        };
        ConfidenceInterval {
            lo: lo / per,
            hi: hi / per,
            estimate: est / per,
            theoretical: None,
        }
    }

    fn project_completed(out: &CompletionOutput, query_tables: &[String], seed: u64) -> Table {
        let (chain, join) = (&out.tables, &out.join);
        if chain.iter().all(|t| query_tables.contains(t)) {
            return join.clone();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let in_query = |name: &str| {
            query_tables
                .iter()
                .any(|q| name.starts_with(&format!("{q}.")))
        };
        let fields = join.fields().iter().map(|f| f.name.as_str());
        let query_cols: Vec<&str> = fields.filter(|name| in_query(name)).collect();
        let pivot = chain.iter().position(|t| query_tables.contains(t)).unwrap();
        let key_cols: Vec<usize> = chain[pivot..]
            .iter()
            .filter(|t| query_tables.contains(t))
            .filter_map(|t| join.resolve(&format!("{t}.id")).ok())
            .collect();
        if key_cols.is_empty() {
            return join.project(&query_cols).unwrap();
        }
        let is_syn =
            |r: usize| (0..chain.len()).any(|i| query_tables.contains(&chain[i]) && out.syn[i][r]);
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let (mut real_rows, mut syn_rows) = (0usize, Vec::new());
        let mut keep = vec![false; join.n_rows()];
        for (r, keep) in keep.iter_mut().enumerate() {
            let key: Vec<Value> = key_cols.iter().map(|&c| join.value(r, c)).collect();
            if is_syn(r) {
                syn_rows.push(r);
            } else if key.iter().any(Value::is_null) {
                *keep = true;
            } else {
                real_rows += 1;
                *keep = seen.insert(key);
            }
        }
        let p_keep = 1.0 / (real_rows as f64 / seen.len().max(1) as f64).max(1.0);
        for r in syn_rows {
            keep[r] = rng.random::<f64>() < p_keep;
        }
        join.filter(&keep).project(&query_cols).unwrap()
    }

    fn completed_table(snap: &Snapshot, out: &CompletionOutput, table: &str, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x517e);
        let base = snap.db().table(table).unwrap();
        let (join, syn) = (&out.join, out.synthesized_for(table).unwrap());
        let id = join.resolve(&format!("{table}.id")).unwrap();
        let real_ids = (0..join.n_rows()).filter(|&r| !syn[r] && !join.value(r, id).is_null());
        let distinct: HashSet<String> = real_ids
            .clone()
            .map(|r| join.value(r, id).to_string())
            .collect();
        let p_keep = 1.0 / (real_ids.count() as f64 / distinct.len().max(1) as f64).max(1.0);
        let mut result = base.clone();
        for r in (0..join.n_rows()).filter(|&r| syn[r]) {
            if rng.random::<f64>() >= p_keep {
                continue;
            }
            let cell = |f: &restore::db::Field| match join.resolve(&format!("{table}.{}", f.name)) {
                Err(_) => Value::Null,
                Ok(c) => match (join.value(r, c), f.dtype) {
                    (Value::Float(x), DataType::Int) => Value::Int(x.round() as i64),
                    (Value::Int(i), DataType::Float) => Value::Float(i as f64),
                    (v, _) => v,
                },
            };
            let row: Vec<Value> = base.fields().iter().map(cell).collect();
            result.push_row(&row).unwrap();
        }
        result
    }

    /// The response body the old path gives `query` over the completion
    /// `out` of the chain the snapshot serves it from.
    pub fn body(snap: &Snapshot, out: &CompletionOutput, query: &Query, seed: u64) -> String {
        let joined = match &query.tables[..] {
            [table] => completed_table(snap, out, table, seed),
            tables => project_completed(out, tables, seed),
        };
        let filtered = match &query.filter {
            Some(pred) => joined.filter(&pred.eval_mask(&joined).unwrap()),
            None => joined,
        };
        let table = match query.aggregates.is_empty() {
            true => filtered,
            false => aggregate(&filtered, &query.group_by, &query.aggregates).unwrap(),
        };
        let group_cols = query.group_by.len();
        query_response_json(&QueryResult { table, group_cols }, None)
    }
}

/// What the cache reports resident is what its entries weigh now — true
/// only if every projection and relation a query attached to a completion
/// since its insert was charged to the entry. For a quiescent snapshot.
fn assert_resident_bytes_are_current(snap: &Snapshot) {
    let entries = snap.cached_completions();
    let weight: usize = entries.iter().map(|(_, out)| out.approx_bytes()).sum();
    assert_eq!(snap.full_cache_stats().bytes, weight, "stale cache bytes");
}

/// `GET /v1/{t}/tables/{name}`'s body for the table of the single-table
/// shape `q`, asserted equal to what the oracle builds from `out`. The
/// oracle's `completed_table` is private to its module; `oracle::body` of
/// the bare query over the table is that relation as a response — its
/// column names and every row — and its name and dtypes are the base
/// table's, which the oracle starts from. Together that is every byte of
/// `wire::table_json`.
fn table_body_matching_oracle(
    snap: &Snapshot,
    out: &restore::core::CompletionOutput,
    q: &Query,
    seed: u64,
) -> String {
    use restore::core::wire::{query_response_json, table_json};
    let name = q.tables[0].as_str();
    let focus = restore::core::query_focus_columns(q);
    let table = snap
        .completed_table_focused(name, &focus, seed)
        .expect("completed table");
    let base = snap.db().table(name).expect("base table");
    assert_eq!(table.name(), base.name());
    assert_eq!(table.fields(), base.fields());
    let body = table_json(&table);
    let as_response = restore::db::QueryResult {
        table,
        group_cols: 0,
    };
    assert_eq!(
        query_response_json(&as_response, None),
        oracle::body(snap, out, &Query::new([name]), seed),
        "completed table of {q:?}, seed {seed}"
    );
    body
}

/// Asserts that `Snapshot::execute` over views of what the cache holds
/// answers byte for byte what the copying path answered — on the call that
/// builds a projection or a completed relation, on the next one, after the
/// join was evicted and re-synthesized, from eight threads racing the first
/// build, and from a saved→loaded snapshot — and that `completed_table`
/// renders the relation of every single-table shape as the oracle builds
/// it, at each of those points. `shapes[0]` must be served from a chain
/// with an extra evidence table; `rs` must have a one-byte cache, which
/// keeps only the newest completion resident: every change of chain evicts.
/// Returns the evictions of the sealed snapshot's cache.
fn assert_matches_copying_oracle(mut rs: ReStore, shapes: &[Query], seed: u64) -> u64 {
    use restore::core::wire::query_response_json;
    for q in shapes {
        rs.ensure_query_models(&q.tables, seed).expect("ensure");
    }
    let sealed = rs.seal(seed);
    assert_eq!(sealed.config().cache_budget_bytes, 1);
    let bytes = sealed.to_bytes();
    let load = || Snapshot::from_bytes(&bytes).expect("load");
    let body = |snap: &Snapshot, q: &Query, seed: u64| {
        query_response_json(&snap.execute(q, seed).expect("execute"), None)
    };

    // The completion each shape is served from, every column drawn, out of
    // a cache that has seen nothing else (synthesis is a function of serve
    // seed and chain).
    let outputs: Vec<_> = shapes
        .iter()
        .map(|q| {
            let fresh = load();
            fresh.execute(q, 0).expect("execute");
            let (chain, _) = fresh.cached_completions().pop().expect("one completion");
            assert!(q.tables.iter().all(|t| chain.contains(t)));
            fresh.complete_join(&chain).expect("complete")
        })
        .collect();
    assert!(
        outputs[0].tables.len() > shapes[0].tables.len(),
        "shape 0 must be served from a chain with an extra evidence table: {:?}",
        outputs[0].tables
    );

    let loaded = load();
    for round in 0..2 {
        for (q, out) in shapes.iter().zip(&outputs) {
            // First call (re-)synthesizes and builds the projection, the
            // second finds both.
            for seed in [1u64, 1, 2] {
                // On the sealed snapshot the table route is the first to
                // need a single-table shape's relation, on the loaded one
                // the query is.
                let single = q.tables.len() == 1;
                let table = single.then(|| table_body_matching_oracle(&sealed, out, q, seed));
                let expect = oracle::body(&sealed, out, q, seed);
                assert_eq!(body(&sealed, q, seed), expect, "round {round}: {q:?}");
                assert_eq!(body(&loaded, q, seed), expect, "loaded, {round}: {q:?}");
                if single {
                    let loaded_table = table_body_matching_oracle(&loaded, out, q, seed);
                    assert_eq!(Some(loaded_table), table, "loaded, {round}: {q:?}");
                }
                assert_resident_bytes_are_current(&sealed);
                assert_resident_bytes_are_current(&loaded);
            }
        }
    }
    // Eight threads race the first projection of a fresh join, then the
    // first relation of one: half of them through the query, half through
    // the table route.
    let single = shapes.iter().position(|q| q.tables.len() == 1);
    for shape in [0, single.expect("a single-table shape")] {
        let racing = load();
        let barrier = std::sync::Barrier::new(8);
        let (q, out) = (&shapes[shape], &outputs[shape]);
        std::thread::scope(|scope| {
            for seed in 0..8u64 {
                let (racing, barrier, sealed) = (&racing, &barrier, &sealed);
                scope.spawn(move || {
                    barrier.wait();
                    if shape > 0 && seed % 2 == 1 {
                        table_body_matching_oracle(racing, out, q, seed);
                    }
                    assert_eq!(body(racing, q, seed), oracle::body(sealed, out, q, seed));
                });
            }
        });
        assert_resident_bytes_are_current(&racing);
    }
    sealed.full_cache_stats().evictions
}

/// Housing: apartments completed from their neighborhood, which makes
/// `neighborhood` an extra evidence table of `landlord ⋈ apartment`;
/// filters on string and numeric columns, group-bys, queries without
/// aggregates, single-table and join shapes.
#[test]
fn in_place_execution_matches_the_copying_oracle_on_housing() {
    use restore::data::housing::{generate_housing, HousingConfig};
    use restore::db::Expr;

    let complete = generate_housing(&HousingConfig::scaled(0.1), 41);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
    removal.tf_keep_rate = 0.3;
    removal.seed = 41;
    let mut config = quick_config();
    config.cache_budget_bytes = 1;
    let mut rs = ReStore::new(apply_removal(&complete, &removal).incomplete, config);
    rs.mark_incomplete("apartment");
    rs.set_selected_path(
        "apartment",
        &["neighborhood".into(), "apartment".into()],
        41,
    )
    .expect("train the forced path");

    let entire = || Expr::col("room_type").eq(Expr::lit("Entire home/apt"));
    let shapes = [
        Query::new(["landlord", "apartment"])
            .filter(entire())
            .group_by(["landlord_since"])
            .aggregate(Agg::Avg("price".into())),
        Query::new(["neighborhood", "apartment"])
            .group_by(["state"])
            .aggregate(Agg::CountStar)
            .aggregate(Agg::Avg("price".into())),
        Query::new(["apartment"])
            .filter(entire().and(Expr::col("property_type").eq(Expr::lit("House"))))
            .group_by(["property_type"])
            .aggregate(Agg::CountStar),
        Query::new(["landlord", "apartment"])
            .filter(Expr::col("accommodates").ge(Expr::lit(3i64)))
            .aggregate(Agg::Sum("landlord_since".into())),
        Query::new(["apartment"])
            .filter(Expr::col("price").lt(Expr::lit(150.5)))
            .aggregate(Agg::Sum("price".into())),
        Query::new(["landlord", "apartment"]).filter(
            Expr::col("property_type")
                .ne(Expr::lit("no such type"))
                .not(),
        ),
        Query::new(["landlord", "apartment"]).filter(Expr::col("accommodates").gt(Expr::lit(5.5))),
    ];
    let evictions = assert_matches_copying_oracle(rs, &shapes, 41);
    assert!(evictions >= 2, "two chains must have evicted each other");
}

/// `c1` completed along `c2 → p → c1`: every `(p, c1)` pair appears once
/// per `c2` sibling, so the §4.4 projection of `p ⋈ c1` de-duplicates real
/// rows and thins synthesized ones with the query seed, and the hidden
/// `c2.p_id` would make the filter column `p_id` ambiguous.
#[test]
fn in_place_execution_matches_the_copying_oracle_under_thinning() {
    use restore::core::wire::query_response_json;
    use restore::db::Expr;

    let mut config = quick_config();
    config.cache_budget_bytes = 1;
    let mut rs = ReStore::new(two_children_db(43), config);
    rs.mark_incomplete("c1");
    let path = ["c2", "p", "c1"].map(String::from);
    rs.set_selected_path("c1", &path, 43)
        .expect("train the forced path");

    let shapes = [
        Query::new(["p", "c1"])
            .filter(Expr::col("a").ne(Expr::lit("a0")))
            .group_by(["x"])
            .aggregate(Agg::CountStar),
        Query::new(["c1"]).group_by(["x"]).aggregate(Agg::CountStar),
        Query::new(["p", "c1"])
            .filter(Expr::col("p_id").lt(Expr::lit(40i64)))
            .group_by(["a"])
            .aggregate(Agg::CountStar),
        Query::new(["p", "c1"])
            .filter(
                Expr::col("a")
                    .eq(Expr::lit("a1"))
                    .or(Expr::col("x").gt(Expr::lit("x2"))),
            )
            .aggregate(Agg::Sum("c1.id".into())),
        Query::new(["c2", "p", "c1"])
            .group_by(["y"])
            .aggregate(Agg::CountStar),
        Query::new(["c1"])
            .filter(Expr::col("x").ne(Expr::lit("x0")))
            .aggregate(Agg::CountStar),
        Query::new(["p", "c1"]).filter(Expr::col("a").eq(Expr::lit("a3"))),
    ];
    // The seed matters here: the draws of the thinning decide the answer.
    let probe = rs.seal(43);
    let count = |q: &Query, seed| query_response_json(&probe.execute(q, seed).unwrap(), None);
    for q in &shapes[..2] {
        assert!((2..6).any(|seed| count(q, seed) != count(q, 1)), "{q:?}");
    }
    // The projection of `p ⋈ c1` is charged to its entry as a relation is:
    // when the first query builds it, and once.
    let fresh = Snapshot::from_bytes(&probe.to_bytes()).expect("load");
    let out = fresh.complete_join(&path).expect("complete");
    let join = out.approx_bytes();
    assert_eq!(fresh.full_cache_stats().bytes, join);
    fresh.execute(&shapes[0], 1).expect("execute");
    let projection = out.approx_bytes() - join;
    assert!(projection > 0, "index vectors weigh something");
    fresh.execute(&shapes[0], 2).expect("execute");
    assert_eq!(fresh.full_cache_stats().bytes, join + projection);
    assert_matches_copying_oracle(rs, &shapes, 43);
}

/// Asserts that `Snapshot::confidence` on a fresh `snapshot` answers, bit
/// for bit, what the whole-join formulation answers over the completion it
/// was served from (the one entry of the cache afterwards); returns the
/// chain.
fn assert_confidence_matches_oracle(
    snapshot: &Snapshot,
    tables: &[&str],
    query: &restore::core::ConfidenceQuery,
) -> Vec<String> {
    let tables: Vec<String> = tables.iter().map(|t| t.to_string()).collect();
    let got = snapshot
        .confidence(&tables, query, 0.9, 3)
        .expect("confidence");
    let (chain, out) = snapshot.cached_completions().pop().expect("a completion");
    assert!(out.n_synthesized() > 100, "several ragged chunks of rows");
    let model = snapshot.model_for_path(&chain).expect("model");
    let expect = oracle::confidence(&model, snapshot.db(), &out, query, 0.9);
    let bits = |ci: &restore::core::ConfidenceInterval| {
        let theoretical = ci.theoretical.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        (
            ci.lo.to_bits(),
            ci.hi.to_bits(),
            ci.estimate.to_bits(),
            theoretical,
        )
    };
    assert_eq!(
        bits(&got),
        bits(&expect),
        "{query:?}: {got:?} vs {expect:?}"
    );
    assert!(got.lo < got.hi, "{got:?}");
    chain
}

/// §6 reads only the attributes before the queried one, only for the
/// synthesized rows, in `batch_size` chunks on one session — and answers
/// what encoding the whole join and evaluating one batch answered: `Avg`
/// and `Sum` over a binned float and a year-like categorical on housing,
/// `CountFraction` on the synthetic schema under an AR and an SSAR model
/// (whose evidence sets hang off the *join* rows of each chunk), and a
/// three-table chain.
#[test]
fn confidence_matches_the_whole_join_oracle() {
    use restore::core::ConfidenceQuery::{Avg, CountFraction, Sum};
    use restore::data::housing::{generate_housing, HousingConfig};

    // 48-row chunks: every case below evaluates several, the last ragged.
    let chunked = |mut config: RestoreConfig| {
        config.completer.batch_size = 48;
        config
    };
    let count = |table: &str, column: &str, value: &str| CountFraction {
        table: table.into(),
        column: column.into(),
        value: value.into(),
    };

    for ssar in [false, true] {
        let mut config = chunked(quick_config());
        if ssar {
            config.train = config.train.ssar();
        }
        let db = generate_synthetic(
            &SyntheticConfig {
                predictability: 0.9,
                n_parent: 150,
                ..Default::default()
            },
            44,
        );
        let mut removal = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
        removal.seed = 44;
        let mut rs = ReStore::new(apply_removal(&db, &removal).incomplete, config);
        rs.mark_incomplete("tb");
        rs.train(44).expect("train");
        let snapshot = rs.seal(44);
        let chain =
            assert_confidence_matches_oracle(&snapshot, &["ta", "tb"], &count("tb", "b", "b1"));
        assert_eq!(snapshot.model_for_path(&chain).unwrap().is_ssar(), ssar);
    }

    let complete = generate_housing(&HousingConfig::scaled(0.1), 45);
    let mut removal = RemovalConfig::new(BiasSpec::continuous("apartment", "price"), 0.4, 0.6);
    removal.tf_keep_rate = 0.3;
    removal.seed = 45;
    let incomplete = apply_removal(&complete, &removal).incomplete;
    let mut rs = ReStore::new(incomplete, chunked(quick_config()));
    rs.mark_incomplete("apartment");
    rs.train(45).expect("train");
    let tables = ["landlord", "apartment"];
    rs.ensure_query_models(&tables.map(String::from), 45)
        .expect("ensure");
    let sealed = rs.seal(45).to_bytes();
    let avg = |column: &str| Avg {
        table: "apartment".into(),
        column: column.into(),
    };
    let sum_price = Sum {
        table: "apartment".into(),
        column: "price".into(),
    };
    for query in [
        avg("price"),
        sum_price,
        avg("accommodates"),
        count("apartment", "accommodates", "2"),
    ] {
        let snapshot = Snapshot::from_bytes(&sealed).expect("load");
        assert_confidence_matches_oracle(&snapshot, &tables, &query);
    }

    let mut rs = ReStore::new(two_children_db(46), chunked(quick_config()));
    rs.mark_incomplete("c1");
    let path = ["c2", "p", "c1"].map(String::from);
    rs.set_selected_path("c1", &path, 46)
        .expect("train the forced path");
    let snapshot = rs.seal(46);
    let chain = assert_confidence_matches_oracle(&snapshot, &["p", "c1"], &count("c1", "x", "x1"));
    assert_eq!(chain, path);

    // The sweep evaluates a conditional once per distinct evidence prefix:
    // 116 synthesized rows that are all duplicates of two parents (the runs
    // split by the 48-row chunks), and 120 of which no two share a parent.
    for (parents, existing, tf) in [(2, 6, 64), (120, 1, 2)] {
        let mut rs = ReStore::new(fan_out_db(parents, existing, tf), chunked(quick_config()));
        rs.mark_incomplete("c");
        rs.train(47).expect("train");
        let snapshot = rs.seal(47);
        assert_confidence_matches_oracle(&snapshot, &["p", "c"], &count("c", "x", "x1"));
        let (_, out) = snapshot.cached_completions().pop().expect("a completion");
        let syn = out.synthesized_for("c").expect("c is on the path");
        let ids = out.join.column(out.join.resolve("p.id").unwrap());
        let evidence: std::collections::HashSet<String> = (0..out.join.n_rows())
            .filter(|&r| syn[r])
            .map(|r| ids.get(r).to_string())
            .collect();
        assert_eq!(
            evidence.len() as i64,
            parents.min(out.n_synthesized() as i64)
        );
        assert_eq!(out.n_synthesized() as i64, parents * (tf - existing));
    }
}
