//! Cross-crate randomized property tests on the invariants the system
//! relies on: autograd correctness, MADE autoregressiveness, encoder
//! round-trips, removal accounting, and join/aggregate semantics.
//!
//! Written as plain seeded-random sweeps (no proptest in this offline
//! environment): each property is checked over a fixed number of random
//! cases drawn from a seeded generator, so failures are reproducible.

use std::convert::Infallible;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use restore::nn::{AttrSpec, Forward, Made, MadeConfig, Matrix, ParamStore, Tape, TrainEngine};

const CASES: usize = 24;

/// d(sum((x·W)·2 + x·W))/dW matches finite differences for random shapes
/// (smooth ops only — ReLU's kink makes finite differences unreliable and
/// is covered by targeted unit tests in restore-nn).
#[test]
fn autograd_matches_finite_differences() {
    let mut meta = StdRng::seed_from_u64(0xa0);
    for case in 0..CASES {
        let rows = meta.random_range(1..4usize);
        let inner = meta.random_range(1..4usize);
        let cols = meta.random_range(1..4usize);
        let seed = meta.random_range(0..1000u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::rand_uniform(rows, inner, -1.0, 1.0, &mut rng);
        let mut store = ParamStore::new();
        let w = store.register(Matrix::rand_uniform(inner, cols, -1.0, 1.0, &mut rng));

        // sum((x·W + x·W) + x·W), recorded on a tape.
        fn pass<F: Forward>(f: &mut F, store: &ParamStore, x: &Matrix, w: usize) -> F::Id {
            let xi = f.input(x);
            let wi = f.param(store, w);
            let h = f.matmul(xi, wi);
            let s = f.add(h, h);
            f.add(s, h)
        }
        let forward = |store: &ParamStore| -> f32 {
            let mut tape = Tape::new();
            let mut f = tape.ctx(store);
            let y = pass(&mut f, store, &x, w);
            f.value(y).data().iter().sum()
        };

        let mut engine = TrainEngine::new(1);
        engine
            .step(&mut store, &[0], 1, |tape, store, _, grads| {
                let mut f = tape.ctx(store);
                let y = pass(&mut f, store, &x, w);
                let (r, c) = f.value(y).shape();
                tape.backward_with(y, Matrix::filled(r, c, 1.0), store, grads);
                Ok::<f64, Infallible>(0.0)
            })
            .unwrap();
        let analytic = store.grad(w).clone();

        let eps = 1e-2f32;
        for i in 0..inner {
            for j in 0..cols {
                let orig = store.value(w).get(i, j);
                store.value_mut(w).set(i, j, orig + eps);
                let up = forward(&store);
                store.value_mut(w).set(i, j, orig - eps);
                let down = forward(&store);
                store.value_mut(w).set(i, j, orig);
                let numeric = (up - down) / (2.0 * eps);
                let a = analytic.get(i, j);
                assert!(
                    (a - numeric).abs() < 0.05 * (1.0 + a.abs().max(numeric.abs())),
                    "case {case}: dW[{i}][{j}]: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }
}

/// The MADE autoregressive property holds for random architectures:
/// perturbing attribute j never changes the logits of attributes ≤ j.
#[test]
fn made_is_autoregressive() {
    let mut meta = StdRng::seed_from_u64(0xa1);
    for case in 0..CASES {
        let n_attrs = meta.random_range(2..5usize);
        let card = meta.random_range(2..6u32);
        let hidden = meta.random_range(8..24usize);
        let seed = meta.random_range(0..1000u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let attrs = (0..n_attrs)
            .map(|_| AttrSpec::new(card as usize, 3))
            .collect();
        let cfg = MadeConfig::new(attrs).with_hidden(vec![hidden, hidden]);
        let made = Made::new(cfg, &mut store, &mut rng);
        let base: Vec<Arc<Vec<u32>>> = (0..n_attrs).map(|_| Arc::new(vec![0u32])).collect();
        let logits0 = made.logits(&store, &base, None);
        for j in 0..n_attrs {
            let mut toks = base.clone();
            toks[j] = Arc::new(vec![card - 1]);
            let logits = made.logits(&store, &toks, None);
            for i in 0..=j {
                let (off, c) = made.layout().block(i);
                for k in off..off + c {
                    assert_eq!(
                        logits0.get(0, k),
                        logits.get(0, k),
                        "case {case}: attr {i} depends on attr {j}"
                    );
                }
            }
        }
    }
}

/// Encoders round-trip every encodable value onto a representative of the
/// same token, and encoding is total on the fitted column.
#[test]
fn encoder_round_trip() {
    use restore::core::AttrEncoder;
    use restore::db::{Column, DataType, Value};
    let mut meta = StdRng::seed_from_u64(0xa2);
    for case in 0..CASES {
        let n = meta.random_range(2..200usize);
        let bins = meta.random_range(2..32usize);
        let vals: Vec<f64> = (0..n).map(|_| meta.random_range(-1e6..1e6f64)).collect();
        let mut col = Column::new(DataType::Float);
        for &v in &vals {
            col.push(&Value::Float(v)).unwrap();
        }
        let enc = AttrEncoder::fit(&col, bins);
        for &v in &vals {
            let tok = enc.encode(&Value::Float(v));
            assert!(tok.is_some(), "case {case}: fitted value must encode");
            let tok = tok.unwrap();
            assert!((tok as usize) < enc.cardinality());
            // Decoding then re-encoding is stable (token fixpoint).
            let dec = enc.decode(tok);
            assert_eq!(enc.encode(&dec), Some(tok), "case {case}: token fixpoint");
        }
    }
}

/// Biased removal hits the requested keep rate exactly (rounded).
#[test]
fn removal_keep_rate_is_exact() {
    use restore::data::{
        apply_removal, generate_synthetic, BiasSpec, RemovalConfig, SyntheticConfig,
    };
    let mut meta = StdRng::seed_from_u64(0xa3);
    for case in 0..CASES {
        let keep = meta.random_range(0.05..0.95f64);
        let corr = meta.random_range(0.0..1.0f64);
        let seed = meta.random_range(0..500u64);
        let db = generate_synthetic(
            &SyntheticConfig {
                n_parent: 60,
                ..Default::default()
            },
            seed,
        );
        let n = db.table("tb").unwrap().n_rows();
        let mut cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), keep, corr);
        cfg.seed = seed;
        let sc = apply_removal(&db, &cfg);
        assert_eq!(
            sc.incomplete.table("tb").unwrap().n_rows(),
            (keep * n as f64).round() as usize,
            "case {case}: keep {keep}, corr {corr}, seed {seed}"
        );
    }
}

/// Hash join row count equals the nested-loop reference on random data.
#[test]
fn hash_join_matches_nested_loop() {
    use restore::db::{hash_join, DataType, Field, Table, Value};
    let mut meta = StdRng::seed_from_u64(0xa4);
    for case in 0..CASES {
        let nl = meta.random_range(1..40usize);
        let nr = meta.random_range(1..40usize);
        let left_keys: Vec<i64> = (0..nl).map(|_| meta.random_range(0..8i64)).collect();
        let right_keys: Vec<i64> = (0..nr).map(|_| meta.random_range(0..8i64)).collect();
        let mut l = Table::new("l", vec![Field::new("k", DataType::Int)]);
        for &k in &left_keys {
            l.push_row(&[Value::Int(k)]).unwrap();
        }
        let mut r = Table::new("r", vec![Field::new("k", DataType::Int)]);
        for &k in &right_keys {
            r.push_row(&[Value::Int(k)]).unwrap();
        }
        let out = hash_join(&l, "k", &r, "k", "j").unwrap();
        let expect: usize = left_keys
            .iter()
            .map(|lk| right_keys.iter().filter(|rk| *rk == lk).count())
            .sum();
        assert_eq!(out.n_rows(), expect, "case {case}");
    }
}

/// Grouped COUNT totals the table size for any grouping column.
#[test]
fn group_counts_partition_the_table() {
    use restore::db::{aggregate, Agg, DataType, Field, Table, Value};
    let mut meta = StdRng::seed_from_u64(0xa5);
    for case in 0..CASES {
        let n = meta.random_range(1..60usize);
        let keys: Vec<i64> = (0..n).map(|_| meta.random_range(0..5i64)).collect();
        let mut t = Table::new("t", vec![Field::new("g", DataType::Int)]);
        for &k in &keys {
            t.push_row(&[Value::Int(k)]).unwrap();
        }
        let out = aggregate(&t, &["g".to_string()], &[Agg::CountStar]).unwrap();
        let total: i64 = (0..out.n_rows())
            .map(|r| out.value(r, 1).as_i64().unwrap())
            .sum();
        assert_eq!(total as usize, keys.len(), "case {case}");
    }
}

/// Generators for the differential tests of the warm query tail: a random
/// table over all three dtypes, predicate trees that reach every node kind
/// of `BoundExpr` and its interpreter fallback, group-by and aggregate
/// lists over every column — keys that reach both of `aggregate`'s group
/// tables and the edges of the rule between them — and the `Value`-keyed
/// `aggregate` the typed one replaced, as the reference.
mod tail {
    use super::*;
    use restore::db::{
        Agg, ArithOp, CmpOp, DataType, DbError, DbResult, Expr, Field, Query, Table, TableView,
        Value,
    };
    use std::collections::HashMap;

    /// Columns of two "joined" tables `a` and `b` (`k` exists in both), a
    /// bare group key column `g` and the row number `n`, the one column that
    /// holds no NULL.
    pub const COLUMNS: [(&str, DataType); 8] = [
        ("a.i", DataType::Int),
        ("a.f", DataType::Float),
        ("a.s", DataType::Str),
        ("a.k", DataType::Int),
        ("b.k", DataType::Int),
        ("b.s", DataType::Str),
        ("g", DataType::Int),
        ("n", DataType::Int),
    ];
    const STRINGS: [&str; 4] = ["x", "y", "zz", "x y"];
    /// Both zeros, and NaNs of two payloads.
    const FLOATS: [f64; 7] = [0.0, -0.0, 0.5, 1.0, 2.0, f64::NAN, -f64::NAN];
    /// Neighbours that are one `f64` and two `i64`s, and the ends.
    const WIDE_INTS: [i64; 4] = [1 << 53, (1 << 53) + 1, i64::MIN, i64::MAX];
    /// `restore-db`'s rule for a direct group table (`query/aggregate.rs`):
    /// a one-column key gets one when its slots are at most this many or the
    /// number of selected rows, whichever is larger.
    pub const DIRECT_SLOTS: u128 = 1 << 12;

    /// Half the tables are short (empty now and then); a quarter run to
    /// 300 rows, for merges over long runs and group tables that grow; a
    /// quarter hold 300 to 330.
    pub fn table(rng: &mut StdRng) -> Table {
        let n = match rng.random_range(0..4u32) {
            0 | 1 => rng.random_range(0..40),
            2 => rng.random_range(40..300),
            _ => rng.random_range(300..=330),
        };
        table_of(rng, n)
    }

    /// A table of `n` rows. Half the tables draw their `Int` cells from
    /// `0..4` only, the others now and then from the wide ones; `b.s` draws
    /// from up to 300 strings, `g` from [`key_cells`].
    pub fn table_of(rng: &mut StdRng, n: usize) -> Table {
        let fields = COLUMNS.iter().map(|(n, t)| Field::new(*n, *t)).collect();
        let mut t = Table::new("t", fields);
        let wide = rng.random_range(0..2u32) == 0;
        let strings = rng.random_range(3..=300usize);
        let keys = key_cells(rng, n);
        for (r, key) in keys.iter().enumerate() {
            let cell =
                |&(name, dtype): &(&str, DataType)| match (name, rng.random_range(0..6), dtype) {
                    ("g", ..) => key.map_or(Value::Null, Value::Int),
                    ("n", ..) => Value::Int(r as i64),
                    (_, 0, _) => Value::Null,
                    (_, 1, DataType::Int) if wide => {
                        Value::Int(WIDE_INTS[rng.random_range(0..4usize)])
                    }
                    (_, _, DataType::Int) => Value::Int(rng.random_range(0..4i64)),
                    (_, _, DataType::Float) => Value::Float(FLOATS[rng.random_range(0..7usize)]),
                    ("b.s", ..) => match rng.random_range(0..strings) {
                        i @ 0..3 => Value::str(STRINGS[i]),
                        i => Value::str(format!("s{i}")),
                    },
                    (_, _, DataType::Str) => Value::str(STRINGS[rng.random_range(0..3usize)]),
                };
            t.push_row(&COLUMNS.iter().map(cell).collect::<Vec<_>>())
                .unwrap();
        }
        t
    }

    /// The cells of `g`, of one kind per table: values in `0..4` and NULLs
    /// (a third of the tables); two values whose span puts the direct
    /// table's slots exactly at [`DIRECT_SLOTS`], or one past it, and NULLs;
    /// `i64::MIN`, `i64::MAX`, 0 and NULLs; NULL alone.
    fn key_cells(rng: &mut StdRng, n: usize) -> Vec<Option<i64>> {
        let low = rng.random_range(-1000..1000i64);
        let at_limit = low + DIRECT_SLOTS as i64 - 2;
        let values = match rng.random_range(0..6u32) {
            0 | 1 => vec![Some(0), Some(1), Some(2), Some(3), None],
            2 => vec![Some(low), Some(at_limit), None],
            3 => vec![Some(low), Some(at_limit + 1), None],
            4 => vec![Some(i64::MIN), Some(i64::MAX), Some(0), None],
            _ => vec![None],
        };
        (0..n)
            .map(|_| values[rng.random_range(0..values.len())])
            .collect()
    }

    /// The slots the direct group table needs for the key `column` over
    /// `rows`: the dictionary's entries and NULL, or the `Int` values from
    /// the least to the greatest and NULL; `None` for a `Float` column.
    pub fn direct_slots(t: &Table, column: &str, rows: &[u32]) -> Option<u128> {
        use restore::db::Column;
        match t.column_by_name(column).ok()? {
            Column::Str { dict, .. } => Some(dict.len() as u128 + 1),
            Column::Int(v) => {
                let cells = rows.iter().filter_map(|&r| v[r as usize]);
                let (min, max) = (cells.clone().min(), cells.max());
                Some(
                    min.zip(max)
                        .map_or(1, |(min, max)| (max as i128 - min as i128) as u128 + 2),
                )
            }
            Column::Float(_) => None,
        }
    }

    /// A reference that resolves in the full table: qualified, or a bare
    /// name only one column ends in.
    fn column(rng: &mut StdRng) -> Expr {
        const REFS: [&str; 10] = ["a.i", "a.f", "a.s", "a.k", "b.k", "b.s", "g", "n", "i", "f"];
        Expr::col(REFS[rng.random_range(0..REFS.len())])
    }

    /// Int and Float literals, strings in and absent from the dictionaries,
    /// NaN and NULL.
    fn literal(rng: &mut StdRng) -> Expr {
        Expr::Lit(match rng.random_range(0..8u32) {
            0 => Value::Null,
            1 | 2 => Value::Int(rng.random_range(0..4i64)),
            3 | 4 => Value::Float(FLOATS[rng.random_range(0..7usize)]),
            _ => Value::str(STRINGS[rng.random_range(0..4usize)]),
        })
    }

    fn cmp_op(rng: &mut StdRng) -> CmpOp {
        use CmpOp::*;
        [Eq, Ne, Lt, Le, Gt, Ge][rng.random_range(0..6usize)]
    }

    pub fn predicate(rng: &mut StdRng, depth: u32) -> Expr {
        let cmp = |a: Expr, op, b: Expr| Expr::Cmp(Box::new(a), op, Box::new(b));
        match rng.random_range(0..if depth == 0 { 6u32 } else { 10 }) {
            0..=2 => cmp(column(rng), cmp_op(rng), literal(rng)),
            3 => cmp(column(rng), cmp_op(rng), column(rng)),
            4 => match rng.random_range(0..3u32) {
                0 => cmp(literal(rng), cmp_op(rng), literal(rng)),
                1 => Expr::IsNull(Box::new(column(rng))),
                _ => column(rng),
            },
            5 => {
                let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div]
                    [rng.random_range(0..4usize)];
                let sum = Expr::Arith(Box::new(column(rng)), op, Box::new(literal(rng)));
                cmp(sum, cmp_op(rng), literal(rng))
            }
            6 | 7 => predicate(rng, depth - 1).and(predicate(rng, depth - 1)),
            8 => predicate(rng, depth - 1).or(predicate(rng, depth - 1)),
            _ => predicate(rng, depth - 1).not(),
        }
    }

    pub fn query(rng: &mut StdRng) -> Query {
        let mut q = Query::new(["t"]);
        if rng.random_range(0..4u32) > 0 {
            q = q.filter(predicate(rng, 2));
        }
        // Any 0–3 of the columns (one twice now and then; `g`, the key at the
        // direct group table's edges, one time in three), every aggregate
        // over every dtype.
        let column = |rng: &mut StdRng| match rng.random_range(0..4u32) {
            0 => "g".to_string(),
            _ => COLUMNS[rng.random_range(0..COLUMNS.len())].0.to_string(),
        };
        let groups = [0, 0, 1, 1, 1, 2, 2, 3][rng.random_range(0..8usize)];
        q = q.group_by((0..groups).map(|_| column(rng)));
        for _ in 0..rng.random_range(0..4u32) {
            q = q.aggregate(match (rng.random_range(0..6u32), column(rng)) {
                (0, _) => Agg::CountStar,
                (1, c) => Agg::Count(c),
                (2, c) => Agg::Sum(c),
                (3, c) => Agg::Avg(c),
                (4, c) => Agg::Min(c),
                (_, c) => Agg::Max(c),
            });
        }
        q
    }

    /// `restore_db::aggregate` as it was while it grouped through a map
    /// from a `Vec<Value>` key to row indices and folded every cell as a
    /// `Value` — the semantics of record of the typed one. Copied as it
    /// stood but for one thing it left to the hasher: `i64` keys that are
    /// one `f64` (2^53 and 2^53 + 1) are two groups the sort calls equal,
    /// and they came out in the map's order; here, as in the typed
    /// `aggregate`, in order of first appearance.
    pub fn reference_aggregate(
        view: TableView,
        group_by: &[String],
        aggs: &[Agg],
    ) -> DbResult<Table> {
        struct AggState {
            count: usize,
            sum: f64,
            min: Option<Value>,
            max: Option<Value>,
        }

        impl AggState {
            fn update(&mut self, v: &Value) {
                use std::cmp::Ordering::{Greater, Less};
                if v.is_null() {
                    return;
                }
                self.count += 1;
                if let Some(x) = v.as_f64() {
                    self.sum += x;
                }
                let is = |m: &Option<Value>, want| {
                    m.as_ref()
                        .is_none_or(|m| v.partial_cmp_sql(m) == Some(want))
                };
                if is(&self.min, Less) {
                    self.min = Some(v.clone());
                }
                if is(&self.max, Greater) {
                    self.max = Some(v.clone());
                }
            }

            fn finish(&self, agg: &Agg, group_rows: usize) -> Value {
                match agg {
                    Agg::CountStar => Value::Int(group_rows as i64),
                    Agg::Count(_) => Value::Int(self.count as i64),
                    Agg::Sum(_) => Value::Float(self.sum),
                    Agg::Avg(_) if self.count == 0 => Value::Null,
                    Agg::Avg(_) => Value::Float(self.sum / self.count as f64),
                    Agg::Min(_) => self.min.clone().unwrap_or(Value::Null),
                    Agg::Max(_) => self.max.clone().unwrap_or(Value::Null),
                }
            }
        }

        if aggs.is_empty() {
            return Err(DbError::InvalidQuery(
                "aggregation without aggregate functions".into(),
            ));
        }
        let table = view.table;
        let group_idx: Vec<usize> = group_by
            .iter()
            .map(|g| view.resolve(g))
            .collect::<DbResult<_>>()?;
        let agg_idx: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| a.input_column().map(|c| view.resolve(c)).transpose())
            .collect::<DbResult<_>>()?;

        let view_rows: Vec<usize> = match view.rows {
            Some(rows) => rows.iter().map(|&r| r as usize).collect(),
            None => (0..table.n_rows()).collect(),
        };
        let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        if group_idx.is_empty() {
            groups.insert(Vec::new(), view_rows);
            keys.push(Vec::new());
        } else {
            for r in view_rows {
                let key: Vec<Value> = group_idx.iter().map(|&c| table.value(r, c)).collect();
                let rows = groups.entry(key.clone()).or_default();
                if rows.is_empty() {
                    keys.push(key);
                }
                rows.push(r);
            }
        }

        let rank = |v: &Value| 2 * v.is_null() as u8 + v.as_f64().is_some_and(f64::is_nan) as u8;
        keys.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                let ord = x
                    .partial_cmp_sql(y)
                    .unwrap_or_else(|| rank(x).cmp(&rank(y)));
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });

        let mut fields: Vec<Field> = group_idx
            .iter()
            .map(|&i| table.fields()[i].clone())
            .collect();
        for (agg, idx) in aggs.iter().zip(&agg_idx) {
            let dtype = match agg {
                Agg::CountStar | Agg::Count(_) => DataType::Int,
                Agg::Sum(_) | Agg::Avg(_) => DataType::Float,
                Agg::Min(_) | Agg::Max(_) => table.fields()[idx.unwrap()].dtype,
            };
            fields.push(Field::new(agg.output_name(), dtype));
        }
        let mut out = Table::new(format!("{}_agg", table.name()), fields);

        for key in keys {
            let rows = &groups[&key];
            let mut row: Vec<Value> = key.clone();
            for (agg, idx) in aggs.iter().zip(&agg_idx) {
                let mut state = AggState {
                    count: 0,
                    sum: 0.0,
                    min: None,
                    max: None,
                };
                if let Some(c) = idx {
                    for &r in rows {
                        state.update(&table.value(r, *c));
                    }
                }
                row.push(state.finish(agg, rows.len()));
            }
            out.push_row(&row)?;
        }
        Ok(out)
    }

    /// A random ascending subset of `0..n`: two rows in three, one in
    /// five, none or all.
    pub fn selection(rng: &mut StdRng, n: usize) -> Vec<u32> {
        let (keep, of) =
            [(2, 3), (2, 3), (2, 3), (1, 5), (0, 1), (1, 1)][rng.random_range(0..6usize)];
        (0..n as u32)
            .filter(|_| rng.random_range(0..of) < keep)
            .collect()
    }
}

/// A bound predicate over a row selection picks exactly the rows the
/// `Value` interpreter accepts, for every node kind and operand mix.
#[test]
fn bound_predicates_match_the_interpreter() {
    use restore::db::TableView;
    let mut rng = StdRng::seed_from_u64(0xa6);
    for case in 0..40 * CASES {
        let t = tail::table(&mut rng);
        let pred = tail::predicate(&mut rng, 4);
        let rows = tail::selection(&mut rng, t.n_rows());
        let expect: Vec<u32> = rows
            .iter()
            .copied()
            .filter(|&r| pred.eval_bool(&t, r as usize).unwrap())
            .collect();
        let view = TableView {
            rows: Some(&rows),
            ..(&t).into()
        };
        assert_eq!(pred.select(view).unwrap(), expect, "case {case}: {pred:?}");
    }
    // Leaves that keep all and none of 300 rows and more, where the cursor a
    // leaf writes its rows at ends at the end or stays at the start: on the
    // row number, which is never NULL.
    use restore::db::Expr;
    for case in 0..CASES {
        let n = rng.random_range(300..=330);
        let t = tail::table_of(&mut rng, n);
        let rows: Vec<u32> = (0..n as u32).collect();
        let view = TableView {
            rows: Some(&rows),
            ..(&t).into()
        };
        let (row, lit) = (|| Expr::col("n"), |x: i64| Expr::lit(x));
        let all = [row().ge(lit(0)), row().ne(lit(-1)), row().lt(lit(n as i64))];
        let none = [row().lt(lit(0)), row().eq(lit(-1)), row().gt(lit(n as i64))];
        for (pred, expect) in all
            .iter()
            .map(|p| (p, &rows[..]))
            .chain(none.iter().map(|p| (p, &[][..])))
        {
            assert_eq!(pred.select(view).unwrap(), expect, "case {case}: {pred:?}");
        }
    }
}

/// The filter/aggregate tail over a row selection answers byte for byte
/// what it answers over a gathered copy of those rows.
#[test]
fn tail_over_a_selection_matches_tail_over_a_copy() {
    use restore::core::wire::query_response_json;
    use restore::db::{execute_on_join, TableView};
    let mut rng = StdRng::seed_from_u64(0xa7);
    for case in 0..40 * CASES {
        let t = tail::table(&mut rng);
        let q = tail::query(&mut rng);
        let rows = tail::selection(&mut rng, t.n_rows());
        let view = TableView {
            rows: Some(&rows),
            ..(&t).into()
        };
        let copy = t.gather(&rows.iter().map(|&r| r as usize).collect::<Vec<_>>());
        let body = |r| query_response_json(&r, None);
        match (execute_on_join(view, &q), execute_on_join(&copy, &q)) {
            (Ok(a), Ok(b)) => assert_eq!(body(a), body(b), "case {case}: {q:?}"),
            (a, b) => assert_eq!(
                format!("{:?}", a.err()),
                format!("{:?}", b.err()),
                "case {case}: {q:?}"
            ),
        }
    }
}

/// The typed `aggregate` — packed keys, dense group ids, one loop per
/// aggregate — returns the table the `Value`-keyed one it replaced returns:
/// names, dtypes, every cell bit for bit and the response's bytes, over
/// 0–3 group columns of every dtype (`a.f` with NaN and both zeros, `i64`s
/// that are one `f64`), every aggregate over every dtype, groups that hold
/// only NULLs, the whole table, a selection of it and none of it.
#[test]
fn typed_aggregation_matches_the_value_keyed_reference() {
    use restore::core::wire::query_response_json;
    use restore::db::{aggregate, Agg, QueryResult, TableView};
    let mut rng = StdRng::seed_from_u64(0xae);
    let mut most_groups = 0;
    let (mut direct, mut hashed, mut edges) = (0, 0, [0; 5]);
    for case in 0..40 * CASES {
        let t = tail::table(&mut rng);
        let mut q = tail::query(&mut rng);
        // No aggregate is the same error on both sides; once is enough.
        if q.aggregates.is_empty() && case > 0 {
            q = q.aggregate(Agg::CountStar);
        }
        let rows = tail::selection(&mut rng, t.n_rows());
        let view = TableView {
            rows: (case % 4 > 0).then_some(&rows[..]),
            ..(&t).into()
        };
        let typed = aggregate(view, &q.group_by, &q.aggregates);
        let reference = tail::reference_aggregate(view, &q.group_by, &q.aggregates);
        let (typed, reference) = match (typed, reference) {
            (Ok(typed), Ok(reference)) => (typed, reference),
            (typed, reference) => {
                assert_eq!(typed.err(), reference.err(), "case {case}: {q:?}");
                continue;
            }
        };
        assert_eq!(
            typed::table_repr(&typed),
            typed::table_repr(&reference),
            "case {case}: {q:?}"
        );
        // Which of the two group tables ran, by `restore-db`'s rule over the
        // data, and which edges of the rule the case sits on.
        let all: Vec<u32> = (0..t.n_rows() as u32).collect();
        let selected = view.rows.unwrap_or(&all);
        let limit = tail::DIRECT_SLOTS.max(selected.len() as u128);
        let slots = match &q.group_by[..] {
            [key] => tail::direct_slots(&t, key, selected),
            _ => None,
        };
        if let ([key], Some(slots)) = (&q.group_by[..], slots) {
            let column = t.resolve(key).unwrap();
            let null = |&r: &u32| t.value(r as usize, column).is_null();
            let all_null = !selected.is_empty() && selected.iter().all(null);
            let reached = [
                slots == limit,
                slots == limit + 1,
                slots > 1 << 64,
                all_null,
            ];
            edges
                .iter_mut()
                .zip(reached)
                .for_each(|(n, hit)| *n += hit as usize);
        }
        edges[4] += (!q.group_by.is_empty() && selected.is_empty()) as usize;
        match slots {
            Some(slots) if slots <= limit => direct += 1,
            _ if !q.group_by.is_empty() => {
                hashed += 1;
                most_groups = most_groups.max(typed.n_rows());
            }
            _ => {}
        }
        let body = |table| {
            let group_cols = q.group_by.len();
            query_response_json(&QueryResult { table, group_cols }, None)
        };
        assert_eq!(body(typed), body(reference), "case {case}: {q:?}");
    }
    // 16 slots → 64 → 256 → 1024: the group table grew three times.
    assert!(most_groups > 128, "{most_groups}");
    assert!(
        direct >= 100 && hashed >= 100,
        "direct {direct}, hashed {hashed}"
    );
    // Slots at the limit and one past it, an `Int` span that overflows, an
    // all-NULL key, a grouped query over no row.
    assert!(edges.iter().all(|&n| n > 0), "{edges:?}");
}

/// Grouping on a float column with NULLs, NaNs and both zeros gives one
/// group per value — `-0.0` and `0.0` are one value, every NaN another —
/// in one order, numbers < NaN < NULL, whatever the hash map's layout in
/// this process.
#[test]
fn grouping_on_floats_is_exact_and_ordered() {
    use restore::db::{aggregate, Agg};
    let mut rng = StdRng::seed_from_u64(0xad);
    let mut t = tail::table(&mut rng);
    while t.n_rows() < 200 {
        t.union(&tail::table(&mut rng)).unwrap();
    }
    let f = t.resolve("a.f").unwrap();
    let cells: Vec<Option<f64>> = (0..t.n_rows()).map(|r| t.value(r, f).as_f64()).collect();
    let count = |pick: &dyn Fn(&Option<f64>) -> bool| cells.iter().filter(|c| pick(c)).count();
    // `-0.0` and `0.0` are one key, spelled as the group's first row is.
    let zeros: Vec<f64> = cells
        .iter()
        .flatten()
        .copied()
        .filter(|x| *x == 0.0)
        .collect();
    assert!(
        zeros.iter().any(|x| x.is_sign_negative()) && zeros.iter().any(|x| x.is_sign_positive())
    );
    let expect = [
        (zeros[0].to_string(), zeros.len()),
        ("0.5".into(), count(&|c| *c == Some(0.5))),
        ("1".into(), count(&|c| *c == Some(1.0))),
        ("2".into(), count(&|c| *c == Some(2.0))),
        ("NaN".into(), count(&|c| c.is_some_and(f64::is_nan))),
        ("NULL".into(), count(&|c| c.is_none())),
    ];
    assert!(expect.iter().all(|(_, n)| *n > 0), "{expect:?}");
    assert_eq!(expect.iter().map(|(_, n)| n).sum::<usize>(), t.n_rows());

    let out = aggregate(&t, &["a.f".into()], &[Agg::CountStar]).unwrap();
    let groups: Vec<(String, usize)> = (0..out.n_rows())
        .map(|r| {
            let count = out.value(r, 1).as_i64().unwrap() as usize;
            (out.value(r, 0).to_string(), count)
        })
        .collect();
    assert_eq!(groups, expect);
}

/// Names resolve in a view with hidden columns exactly as in a projected
/// copy of the visible ones — `AmbiguousColumn` / `UnknownColumn` included.
#[test]
fn hidden_columns_resolve_like_a_projection() {
    use restore::db::TableView;
    const REFS: [&str; 12] = [
        "a.i", "i", "k", "a.k", "b.k", "s", "b.s", "g", "t.g", "t.k", "nope", "a.nope",
    ];
    let mut rng = StdRng::seed_from_u64(0xa8);
    let t = tail::table(&mut rng);
    for case in 0..CASES {
        let mut visible: Vec<usize> = (0..t.n_cols())
            .filter(|_| rng.random_range(0..2u32) == 0)
            .collect();
        // Views keep table order or not; resolution must not care.
        if case % 2 == 1 {
            visible.reverse();
        }
        let names: Vec<&str> = visible.iter().map(|&c| tail::COLUMNS[c].0).collect();
        let projected = t.project(&names).unwrap();
        let view = TableView {
            cols: Some(&visible),
            ..(&t).into()
        };
        for reference in REFS {
            let in_view = view.resolve(reference).map(|c| &t.fields()[c].name);
            let in_copy = projected
                .resolve(reference)
                .map(|c| &projected.fields()[c].name);
            assert_eq!(
                format!("{in_view:?}"),
                format!("{in_copy:?}"),
                "case {case}: {reference} among {names:?}"
            );
        }
    }
}

/// Generators and comparisons for the differential tests of the typed
/// column plumbing of a cold request: the column-wise encoder and decoder,
/// `Column::extend_from`, and the typed-key hash join.
mod typed {
    use super::*;
    use restore::db::{Column, DataType, Table, Value};

    /// Numbers that print as integers, as decimals, as `-0`, `inf` and
    /// `NaN`, and one no `i64` holds.
    pub const FLOATS: [f64; 11] = [
        0.0,
        -0.0,
        0.5,
        1.0,
        2.0,
        f64::NAN,
        2013.0,
        1e3,
        f64::INFINITY,
        -1.5,
        1e20,
    ];
    pub const INTS: [i64; 8] = [0, 1, 2, 5, 7, 2013, -3, 1000];
    /// Strings some number prints as, strings that parse to a number
    /// without being what it prints as, and plain ones.
    pub const STRINGS: [&str; 14] = [
        "x", "y", "zz", "2013", "1", "0.5", "-0", "+5", "007", "1e3", "inf", "NaN", "NULL", "1000",
    ];

    pub fn value(rng: &mut StdRng, dtype: DataType, spread: bool) -> Value {
        match (rng.random_range(0..6u32), dtype) {
            (0, _) => Value::Null,
            (1..=3, DataType::Int) if spread => Value::Int(rng.random_range(-500..500i64)),
            (1..=3, DataType::Float) if spread => Value::Float(rng.random_range(-50.0..50.0f64)),
            (_, DataType::Int) => Value::Int(INTS[rng.random_range(0..INTS.len())]),
            (_, DataType::Float) => Value::Float(FLOATS[rng.random_range(0..FLOATS.len())]),
            (_, DataType::Str) => Value::str(STRINGS[rng.random_range(0..STRINGS.len())]),
        }
    }

    /// A column of `n` values; `spread` draws most numbers from a range
    /// wide enough that fitting it bins instead of listing.
    pub fn column(rng: &mut StdRng, dtype: DataType, n: usize, spread: bool) -> Column {
        let mut col = Column::new(dtype);
        for _ in 0..n {
            col.push(&value(rng, dtype, spread)).unwrap();
        }
        col
    }

    /// Row indices into a column of `n` rows, unordered, with duplicates.
    pub fn row_list(rng: &mut StdRng, n: usize) -> Vec<usize> {
        let len = if n == 0 {
            0
        } else {
            rng.random_range(0..2 * n)
        };
        (0..len).map(|_| rng.random_range(0..n)).collect()
    }

    /// Everything two equal columns agree on: dtype, cells bit for bit
    /// (codes for strings), the dictionary in entry order, and the byte
    /// estimate the cache budgets with.
    pub type Repr = (DataType, Vec<Option<u64>>, Vec<String>, usize);

    pub fn repr(col: &Column) -> Repr {
        let (cells, dict) = match col {
            Column::Int(v) => (v.iter().map(|c| c.map(|i| i as u64)).collect(), vec![]),
            Column::Float(v) => (v.iter().map(|c| c.map(f64::to_bits)).collect(), vec![]),
            Column::Str { dict, codes } => (
                codes.iter().map(|c| c.map(u64::from)).collect(),
                (0..dict.len() as u32)
                    .map(|c| dict.value(c).to_string())
                    .collect(),
            ),
        };
        (col.dtype(), cells, dict, col.approx_bytes())
    }

    pub fn table_repr(t: &Table) -> Vec<(String, Repr)> {
        let named = |(f, c): (&restore::db::Field, &Column)| (f.name.clone(), repr(c));
        t.fields().iter().zip(t.columns()).map(named).collect()
    }
}

/// The column-wise encoder gives every row the token `AttrEncoder::encode`
/// gives its value — for every pairing of column dtype and encoder kind,
/// NULLs, NaN, -0.0, values the encoder never saw, encoders fitted on a
/// column with another dictionary (or another dtype), and row lists with
/// duplicates.
#[test]
fn column_encoding_matches_value_encoding() {
    use restore::core::AttrEncoder;
    use restore::db::DataType::{Float, Int, Str};
    let mut rng = StdRng::seed_from_u64(0xa9);
    let mut kinds = [0usize; 3];
    for case in 0..20 * CASES {
        let fitted_on = [Int, Float, Str][case % 3];
        let spread = case % 2 == 0;
        let n_fit = rng.random_range(0..300usize);
        let encoder = match case % 7 {
            0 => AttrEncoder::fit_tuple_factor([rng.random_range(0..9i64)], 64),
            _ => AttrEncoder::fit(&typed::column(&mut rng, fitted_on, n_fit, spread), 8),
        };
        kinds[match encoder {
            AttrEncoder::Categorical { .. } => 0,
            AttrEncoder::Binned { .. } => 1,
            AttrEncoder::IntRange { .. } => 2,
        }] += 1;
        for dtype in [Int, Float, Str] {
            let n = rng.random_range(0..60usize);
            let spread = rng.random_range(0..2u32) == 0;
            let col = typed::column(&mut rng, dtype, n, spread);
            let by_value = |r: usize| {
                let token = encoder.encode(&col.get(r));
                assert!(token.is_none_or(|t| t < encoder.mask_token()));
                token.unwrap_or(encoder.mask_token())
            };
            let all: Vec<u32> = (0..n).map(by_value).collect();
            assert_eq!(
                encoder.encode_column(&col, None),
                all,
                "case {case}: {dtype}"
            );
            let rows = typed::row_list(&mut rng, n);
            let listed: Vec<u32> = rows.iter().map(|&r| by_value(r)).collect();
            assert_eq!(
                encoder.encode_column(&col, Some(&rows)),
                listed,
                "case {case}: {dtype}, rows {rows:?}"
            );
        }
    }
    assert!(kinds.iter().all(|&k| k > 20), "encoder kinds {kinds:?}");
}

/// A column decoded from tokens is the column the decoded, coerced values
/// build when pushed one by one: same cells, same dictionary order (the
/// sampled strings, by first appearance), NULL for MASK — into the
/// encoder's own dtype and across the Int/Float coercions.
#[test]
fn column_decoding_matches_value_decoding() {
    use restore::core::AttrEncoder;
    use restore::db::DataType::{Float, Int, Str};
    use restore::db::{Column, Value};
    let mut rng = StdRng::seed_from_u64(0xaa);
    for case in 0..10 * CASES {
        let fitted_on = [Int, Float, Str][case % 3];
        let n_fit = rng.random_range(1..300usize);
        let fitted = typed::column(&mut rng, fitted_on, n_fit, case % 2 == 0);
        let encoder = AttrEncoder::fit(&fitted, 8);
        let n = rng.random_range(0..80usize);
        let tokens: Vec<u32> = (0..n)
            .map(|_| rng.random_range(0..=encoder.mask_token()))
            .collect();
        let into = match fitted_on {
            Str => vec![Str],
            _ => vec![Int, Float],
        };
        for dtype in into {
            let mut pushed = Column::new(dtype);
            for &t in &tokens {
                pushed
                    .push(&match (encoder.decode(t), dtype) {
                        (Value::Float(f), Int) => Value::Int(f.round() as i64),
                        (Value::Int(i), Float) => Value::Float(i as f64),
                        (v, _) => v,
                    })
                    .unwrap();
            }
            let decoded = encoder.decode_column(&tokens, dtype).unwrap();
            assert_eq!(typed::repr(&decoded), typed::repr(&pushed), "case {case}");
        }
    }
}

/// Appending a column's storage — strings through a code remap — builds
/// the column that pushing its values one by one builds: same cells, same
/// dictionary in the same order, same byte estimate. Sources are gathers,
/// so their dictionaries carry entries no row references.
#[test]
fn typed_append_matches_pushing_values() {
    use restore::db::{Column, DataType};
    let mut rng = StdRng::seed_from_u64(0xab);
    let gathered = |rng: &mut StdRng, dtype: DataType| {
        let n = rng.random_range(0..40usize);
        let col = typed::column(rng, dtype, n, false);
        col.gather(&typed::row_list(rng, n))
    };
    for case in 0..10 * CASES {
        for dtype in [DataType::Int, DataType::Float, DataType::Str] {
            let (head, tail) = (gathered(&mut rng, dtype), gathered(&mut rng, dtype));
            let mut pushed = Column::new(dtype);
            for col in [&head, &tail, &tail] {
                (0..col.len()).for_each(|r| pushed.push(&col.get(r)).unwrap());
            }
            let mut appended = Column::new(dtype);
            for col in [&head, &tail, &tail] {
                appended.extend_from(col).unwrap();
            }
            assert_eq!(typed::repr(&appended), typed::repr(&pushed), "case {case}");
            // A compact gather is the same thing from a row list.
            let rows = typed::row_list(&mut rng, head.len());
            let mut pushed = Column::new(dtype);
            (rows.iter()).for_each(|&r| pushed.push(&head.get(r)).unwrap());
            let compact = head.gather_compact(&rows);
            assert_eq!(typed::repr(&compact), typed::repr(&pushed), "case {case}");
        }
        // The same through `Table::union`, over all dtypes at once.
        let (t, u) = (tail::table(&mut rng), tail::table(&mut rng));
        let u = u.gather(&typed::row_list(&mut rng, u.n_rows()));
        let mut pushed = t.clone();
        (0..u.n_rows()).for_each(|r| pushed.push_row(&u.row(r)).unwrap());
        let mut unioned = t.clone();
        unioned.union(&u).unwrap();
        assert_eq!(unioned.n_rows(), pushed.n_rows());
        assert_eq!(typed::table_repr(&unioned), typed::table_repr(&pushed));
    }
    let (mut ints, floats) = (Column::new(DataType::Int), Column::new(DataType::Float));
    assert!(ints.extend_from(&floats).is_err(), "dtypes must agree");
}

/// The hash join over typed keys pairs the rows a join keyed by `Value`
/// pairs, in the same order, and stacks the same table — for `Int` keys,
/// `Str` keys held in different dictionaries, `Int` against `Float` (equal
/// under `Value`'s `Eq`), NULL keys and duplicates on both sides.
#[test]
fn typed_hash_join_matches_the_value_keyed_join() {
    use restore::db::DataType::{Float, Int, Str};
    use restore::db::{hash_join, join_pairs, Field, Table, Value};
    use std::collections::HashMap;
    let mut rng = StdRng::seed_from_u64(0xac);
    let keys: [&[Value]; 3] = [
        &[0, 1, 2, 3, 2013].map(Value::Int),
        &[0.0, 1.0, 2.5, 3.0, 2013.0].map(Value::Float),
        &["x", "y", "2013", "1", "zz"].map(Value::str),
    ];
    let side = |rng: &mut StdRng, name: &str, dtype| {
        let pool = keys[[Int, Float, Str].iter().position(|d| *d == dtype).unwrap()];
        let fields = vec![Field::new("k", dtype), Field::new("payload", Str)];
        let mut t = Table::new(name, fields);
        for _ in 0..rng.random_range(0..30usize) {
            let key = match rng.random_range(0..5u32) {
                0 => Value::Null,
                _ => pool[rng.random_range(0..pool.len())].clone(),
            };
            t.push_row(&[key, typed::value(rng, Str, false)]).unwrap();
        }
        // Dictionaries with entries in another order than the other side's,
        // some of them unreferenced.
        t.gather(&typed::row_list(rng, t.n_rows()))
    };
    let pairings = [
        (Int, Int),
        (Str, Str),
        (Int, Float),
        (Float, Int),
        (Float, Float),
    ];
    for case in 0..10 * CASES {
        let (ldtype, rdtype) = pairings[case % pairings.len()];
        let (l, r) = (side(&mut rng, "l", ldtype), side(&mut rng, "r", rdtype));

        let mut build: HashMap<Value, Vec<usize>> = HashMap::new();
        for row in (0..r.n_rows()).filter(|&row| !r.value(row, 0).is_null()) {
            build.entry(r.value(row, 0)).or_default().push(row);
        }
        let (mut li, mut ri, mut counts) = (vec![], vec![], vec![]);
        for row in 0..l.n_rows() {
            let partners = build.get(&l.value(row, 0)).map_or(&[][..], Vec::as_slice);
            let partners = if l.value(row, 0).is_null() {
                &[]
            } else {
                partners
            };
            counts.push(partners.len());
            for &partner in partners {
                li.push(row);
                ri.push(partner);
            }
        }
        let stacked = (l.qualified().gather(&li))
            .hstack(r.qualified().gather(&ri), "j")
            .unwrap();

        let pairs = join_pairs(&l, "k", &r, "r.k").unwrap();
        assert_eq!(pairs.left_indices, li, "case {case}");
        assert_eq!(pairs.right_indices, ri, "case {case}");
        assert_eq!(pairs.partners, counts, "case {case}");
        let out = hash_join(&l, "k", &r, "r.k", "j").unwrap();
        assert_eq!(out.name(), "j");
        assert_eq!(typed::table_repr(&out), typed::table_repr(&stacked));
    }
}

/// `enumerate_paths` returns exactly the simple FK chains that end at the
/// target, start at a complete table and have 2..=`max_len` tables — each
/// once, shortest first, then by rendering. The oracle is brute force:
/// every sequence of distinct tables, filtered, over random FK schemas of
/// up to seven tables with parallel edges and random complete/incomplete
/// marks.
#[test]
fn enumerate_paths_matches_a_brute_force_oracle() {
    use restore::core::{enumerate_paths, SchemaAnnotation};
    use restore::db::{DataType, Database, Field, ForeignKey, Table};
    let mut meta = StdRng::seed_from_u64(0xaf);
    for case in 0..4 * CASES {
        let n = meta.random_range(1..=7usize);
        let name = |t: usize| format!("t{t}");
        // FK edges (child, parent): parallel edges allowed, no self-loops.
        let fks: Vec<(usize, usize)> = (0..meta.random_range(0..=2 * n))
            .map(|_| (meta.random_range(0..n), meta.random_range(0..n)))
            .filter(|(c, p)| c != p)
            .collect();
        let mut db = Database::new();
        for t in 0..n {
            let mut fields = vec![Field::new("id", DataType::Int)];
            for (k, _) in fks.iter().enumerate().filter(|(_, fk)| fk.0 == t) {
                fields.push(Field::new(format!("fk{k}"), DataType::Int));
            }
            db.add_table(Table::new(name(t), fields));
        }
        for (k, &(c, p)) in fks.iter().enumerate() {
            db.add_foreign_key(ForeignKey::new(name(c), format!("fk{k}"), name(p), "id"))
                .unwrap();
        }
        let complete: Vec<bool> = (0..n).map(|_| meta.random_bool(0.5)).collect();
        let ann = SchemaAnnotation::with_incomplete((0..n).filter(|&t| !complete[t]).map(name));
        let target = meta.random_range(0..n);
        let max_len = meta.random_range(1..=n + 1);

        let linked = |a: usize, b: usize| fks.contains(&(a, b)) || fks.contains(&(b, a));
        let mut sequences: Vec<Vec<usize>> = vec![Vec::new()];
        let mut expected: Vec<Vec<String>> = Vec::new();
        for _ in 0..max_len.min(n) {
            sequences = (sequences.iter())
                .flat_map(|s| {
                    (0..n)
                        .filter(|t| !s.contains(t))
                        .map(|t| [&s[..], &[t]].concat())
                })
                .collect();
            expected.extend(
                (sequences.iter())
                    .filter(|s| s.len() >= 2 && s[s.len() - 1] == target && complete[s[0]])
                    .filter(|s| s.windows(2).all(|w| linked(w[0], w[1])))
                    .map(|s| s.iter().map(|&t| name(t)).collect()),
            );
        }
        expected.sort_by_key(|tables| (tables.len(), tables.join("→")));

        let paths = enumerate_paths(&db, &ann, &name(target), max_len);
        let got: Vec<Vec<String>> = paths.iter().map(|p| p.tables().to_vec()).collect();
        assert_eq!(
            got, expected,
            "case {case}: fks {fks:?}, complete {complete:?}, target t{target}, max_len {max_len}"
        );
    }
}
