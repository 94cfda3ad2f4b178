//! Systematic biased removal — turns a complete database into an incomplete
//! one the way the paper does (§7.2, §7.3):
//!
//! * a **keep rate** fixes the fraction of tuples that survive;
//! * a **removal correlation** couples the removal probability with a biased
//!   attribute (one value of a categorical attribute, or the normalized
//!   magnitude of a continuous attribute);
//! * only a share of **tuple factors** survives as known metadata (the
//!   `__tf_<child>` columns on parent tables, NULL where unknown — the
//!   `TFApartments = ?` column of Fig. 1a);
//! * optional extra uniform removals and dangling-reference cascades model
//!   the harder movie setups (M4/M5 drop 20% of movies; m:n link tuples
//!   without a matching movie are dropped too).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use restore_db::{tf_column_name, Column, DataType, Database, Field, Table, Value};

/// How removal correlates with the biased attribute.
#[derive(Clone, Debug, PartialEq)]
pub enum BiasKind {
    /// Correlate removal with one categorical value (`None` = use the most
    /// frequent value of the column).
    Categorical(Option<String>),
    /// Correlate removal with the min-max-normalized attribute value
    /// (larger values are more likely to be removed).
    Continuous,
}

/// The biased attribute of a removal scenario.
#[derive(Clone, Debug)]
pub struct BiasSpec {
    pub table: String,
    pub column: String,
    pub kind: BiasKind,
}

impl BiasSpec {
    pub fn categorical(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            column: column.into(),
            kind: BiasKind::Categorical(None),
        }
    }

    pub fn continuous(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            column: column.into(),
            kind: BiasKind::Continuous,
        }
    }
}

/// Full configuration of a removal scenario.
#[derive(Clone, Debug)]
pub struct RemovalConfig {
    pub bias: BiasSpec,
    /// Fraction of the biased table's tuples that survive.
    pub keep_rate: f64,
    /// Strength of the bias (0 = uniform removal, 1 = fully biased).
    pub removal_correlation: f64,
    /// Fraction of parent tuples whose true tuple factor stays known.
    pub tf_keep_rate: f64,
    /// Additional `(table, keep_rate)` uniform removals.
    pub extra_removals: Vec<(String, f64)>,
    /// Tables whose rows are dropped when an FK parent row disappeared.
    pub cascade: Vec<String>,
    pub seed: u64,
}

impl RemovalConfig {
    pub fn new(bias: BiasSpec, keep_rate: f64, removal_correlation: f64) -> Self {
        Self {
            bias,
            keep_rate,
            removal_correlation,
            tf_keep_rate: 0.3,
            extra_removals: Vec::new(),
            cascade: Vec::new(),
            seed: 0,
        }
    }
}

/// A complete/incomplete database pair plus bookkeeping for evaluation.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub complete: Database,
    pub incomplete: Database,
    /// Every table that lost tuples (bias target, extra removals, cascades).
    pub incomplete_tables: Vec<String>,
    pub bias: BiasSpec,
    /// The concrete categorical value the removal was biased towards
    /// (`None` for continuous bias).
    pub bias_value: Option<String>,
}

/// Most frequent non-null value of a column (ties broken lexicographically).
pub fn most_frequent_value(table: &Table, column: &str) -> Option<String> {
    let idx = table.resolve(column).ok()?;
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for r in 0..table.n_rows() {
        let v = table.value(r, idx);
        if !v.is_null() {
            *counts.entry(v.to_string()).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(v, _)| v)
}

/// Per-row bias score in `[0, 1]` (1 = most likely to be removed).
fn bias_scores(table: &Table, spec: &BiasSpec, bias_value: &Option<String>) -> Vec<f64> {
    let idx = table.resolve(&spec.column).expect("bias column must exist");
    match spec.kind {
        BiasKind::Categorical(_) => {
            let target = bias_value.as_deref().unwrap_or_default();
            (0..table.n_rows())
                .map(|r| (table.value(r, idx).to_string() == target) as u8 as f64)
                .collect()
        }
        BiasKind::Continuous => {
            let vals: Vec<f64> = (0..table.n_rows())
                .map(|r| table.value(r, idx).as_f64().unwrap_or(0.0))
                .collect();
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &v in &vals {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let span = (hi - lo).max(1e-12);
            vals.into_iter().map(|v| (v - lo) / span).collect()
        }
    }
}

/// Keeps exactly `⌈keep_rate · n⌉` rows. The removal probability of row
/// `i` is `q + ρ·√(q(1−q))·(bᵢ−b̄)/σ_b` (clamped), which yields a Pearson
/// correlation of ≈`ρ` between removal and the biased attribute — the
/// construction the paper describes ("to obtain a specific Pearson
/// correlation coefficient", §7.3). Importantly, removal stays
/// *probabilistic*: even at high correlation a few biased tuples survive,
/// so the conditional stays learnable (this drives the paper's observation
/// that lower correlations are easier to correct).
fn biased_keep_mask<R: Rng>(
    scores: &[f64],
    keep_rate: f64,
    correlation: f64,
    rng: &mut R,
) -> Vec<bool> {
    let n = scores.len();
    if n == 0 {
        return Vec::new();
    }
    let n_remove = n - ((keep_rate * n as f64).round() as usize).min(n);
    let q = n_remove as f64 / n as f64;
    let mean = scores.iter().sum::<f64>() / n as f64;
    let var = scores.iter().map(|b| (b - mean) * (b - mean)).sum::<f64>() / n as f64;
    let std = var.sqrt();
    // Per-row removal probabilities (uniform when the attribute is
    // constant or the correlation is zero).
    let probs: Vec<f64> = if std < 1e-12 || correlation == 0.0 {
        vec![q.max(1e-6); n]
    } else {
        scores
            .iter()
            .map(|&b| {
                (q + correlation * (q * (1.0 - q)).sqrt() * (b - mean) / std).clamp(0.02, 0.98)
            })
            .collect()
    };
    // Efraimidis–Spirakis weighted sampling without replacement: remove the
    // `n_remove` rows with the largest u^(1/w) keys.
    let mut keys: Vec<(f64, usize)> = probs
        .iter()
        .enumerate()
        .map(|(i, &w)| (rng.random::<f64>().powf(1.0 / w.max(1e-9)), i))
        .collect();
    keys.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let mut mask = vec![true; n];
    for &(_, i) in keys.iter().take(n_remove) {
        mask[i] = false;
    }
    mask
}

/// Applies the removal scenario and returns the complete/incomplete pair.
pub fn apply_removal(complete: &Database, cfg: &RemovalConfig) -> Scenario {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_da7a);
    let mut incomplete = complete.clone();
    let mut incomplete_tables: Vec<String> = Vec::new();

    // Resolve the concrete bias value for categorical targets.
    let bias_value = match &cfg.bias.kind {
        BiasKind::Categorical(Some(v)) => Some(v.clone()),
        BiasKind::Categorical(None) => most_frequent_value(
            complete.table(&cfg.bias.table).expect("bias table"),
            &cfg.bias.column,
        ),
        BiasKind::Continuous => None,
    };

    // 1. Primary biased removal.
    {
        let table = incomplete
            .table(&cfg.bias.table)
            .expect("bias table")
            .clone();
        let scores = bias_scores(&table, &cfg.bias, &bias_value);
        let mask = biased_keep_mask(&scores, cfg.keep_rate, cfg.removal_correlation, &mut rng);
        incomplete.replace_table(table.filter(&mask));
        incomplete_tables.push(cfg.bias.table.clone());
    }

    // 2. Extra uniform removals (e.g. "additionally remove 20% of movies").
    for (name, keep) in &cfg.extra_removals {
        let table = incomplete.table(name).expect("extra removal table").clone();
        let scores = vec![0.0; table.n_rows()];
        let mask = biased_keep_mask(&scores, *keep, 0.0, &mut rng);
        incomplete.replace_table(table.filter(&mask));
        if !incomplete_tables.contains(name) {
            incomplete_tables.push(name.clone());
        }
    }

    // 3. Cascade: drop rows whose FK parents vanished.
    for name in &cfg.cascade {
        let fks: Vec<_> = incomplete
            .foreign_keys()
            .iter()
            .filter(|fk| &fk.child == name)
            .cloned()
            .collect();
        let mut table = incomplete.table(name).expect("cascade table").clone();
        let before = table.n_rows();
        for fk in fks {
            let parent = incomplete.table(&fk.parent).expect("cascade parent");
            let pcol = parent.resolve(&fk.parent_col).unwrap();
            let keys: HashSet<Value> = (0..parent.n_rows())
                .map(|r| parent.value(r, pcol))
                .collect();
            let ccol = table.resolve(&fk.child_col).unwrap();
            let mask: Vec<bool> = (0..table.n_rows())
                .map(|r| keys.contains(&table.value(r, ccol)))
                .collect();
            table = table.filter(&mask);
        }
        if table.n_rows() != before && !incomplete_tables.contains(name) {
            incomplete_tables.push(name.clone());
        }
        incomplete.replace_table(table);
    }

    // 4. Tuple-factor metadata: for every FK whose child lost tuples, attach
    //    a __tf_<child> column to the (incomplete) parent table with the
    //    TRUE pre-removal count, known only for a tf_keep_rate share.
    let fks: Vec<_> = incomplete.foreign_keys().to_vec();
    for fk in fks {
        if !incomplete_tables.contains(&fk.child) {
            continue;
        }
        let complete_child = complete.table(&fk.child).expect("complete child").clone();
        let parent = incomplete.table(&fk.parent).expect("parent").clone();
        let counts =
            restore_db::partner_counts(&parent, &fk.parent_col, &complete_child, &fk.child_col)
                .expect("tuple factor computation");
        let mut col = Column::new(DataType::Int);
        for &c in &counts {
            if rng.random::<f64>() < cfg.tf_keep_rate {
                col.push(&Value::Int(c as i64)).unwrap();
            } else {
                col.push(&Value::Null).unwrap();
            }
        }
        let mut parent = parent;
        parent
            .add_column(Field::new(tf_column_name(&fk.child), DataType::Int), col)
            .expect("tf column");
        incomplete.replace_table(parent);
    }

    Scenario {
        complete: complete.clone(),
        incomplete,
        incomplete_tables,
        bias: cfg.bias.clone(),
        bias_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate_synthetic, SyntheticConfig};

    fn base_db() -> Database {
        generate_synthetic(
            &SyntheticConfig {
                n_parent: 300,
                ..Default::default()
            },
            11,
        )
    }

    fn fraction_of(table: &Table, col: &str, value: &str) -> f64 {
        let idx = table.resolve(col).unwrap();
        let hits = (0..table.n_rows())
            .filter(|&r| table.value(r, idx).to_string() == value)
            .count();
        hits as f64 / table.n_rows() as f64
    }

    #[test]
    fn keep_rate_is_exact() {
        let db = base_db();
        let n = db.table("tb").unwrap().n_rows();
        for keep in [0.2, 0.5, 0.8] {
            let cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), keep, 0.5);
            let sc = apply_removal(&db, &cfg);
            let kept = sc.incomplete.table("tb").unwrap().n_rows();
            assert_eq!(kept, (keep * n as f64).round() as usize);
        }
    }

    #[test]
    fn categorical_bias_reduces_target_fraction() {
        let db = base_db();
        let cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.8);
        let sc = apply_removal(&db, &cfg);
        let value = sc.bias_value.clone().unwrap();
        let before = fraction_of(db.table("tb").unwrap(), "b", &value);
        let after = fraction_of(sc.incomplete.table("tb").unwrap(), "b", &value);
        assert!(
            after < before * 0.8,
            "biased removal should deplete '{value}': before {before}, after {after}"
        );
    }

    #[test]
    fn zero_correlation_preserves_distribution() {
        let db = base_db();
        let cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.0);
        let sc = apply_removal(&db, &cfg);
        let value = sc.bias_value.clone().unwrap();
        let before = fraction_of(db.table("tb").unwrap(), "b", &value);
        let after = fraction_of(sc.incomplete.table("tb").unwrap(), "b", &value);
        assert!(
            (after - before).abs() < 0.07,
            "uniform removal shifted {before} -> {after}"
        );
    }

    #[test]
    fn tf_column_is_added_with_nulls() {
        let db = base_db();
        let mut cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.5);
        cfg.tf_keep_rate = 0.3;
        let sc = apply_removal(&db, &cfg);
        let ta = sc.incomplete.table("ta").unwrap();
        let tf = ta.column_by_name(&tf_column_name("tb")).unwrap();
        let known = ta.n_rows() - tf.null_count();
        let share = known as f64 / ta.n_rows() as f64;
        assert!((share - 0.3).abs() < 0.1, "tf keep share {share}");
        // Known TFs must equal the true (complete) fan-out.
        let counts = restore_db::partner_counts(ta, "id", db.table("tb").unwrap(), "a_id").unwrap();
        // counts here are against the complete child (db is the original).
        let idx = ta.resolve(&tf_column_name("tb")).unwrap();
        for (r, &count) in counts.iter().enumerate() {
            if let Some(v) = ta.value(r, idx).as_i64() {
                assert_eq!(v as usize, count, "known TF must be the true count");
            }
        }
    }

    #[test]
    fn continuous_bias_lowers_the_mean() {
        // Build a db whose child has a numeric column by reusing ta ids.
        let mut db = Database::new();
        let mut parent = Table::new("p", vec![Field::new("id", DataType::Int)]);
        let mut child = Table::new(
            "c",
            vec![
                Field::new("id", DataType::Int),
                Field::new("p_id", DataType::Int),
                Field::new("x", DataType::Float),
            ],
        );
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..50 {
            parent.push_row(&[Value::Int(i)]).unwrap();
        }
        for i in 0..2000 {
            child
                .push_row(&[
                    Value::Int(i),
                    Value::Int(i % 50),
                    Value::Float(rng.random::<f64>() * 100.0),
                ])
                .unwrap();
        }
        db.add_table(parent);
        db.add_table(child);
        db.add_foreign_key(restore_db::ForeignKey::new("c", "p_id", "p", "id"))
            .unwrap();

        let cfg = RemovalConfig::new(BiasSpec::continuous("c", "x"), 0.5, 0.9);
        let sc = apply_removal(&db, &cfg);
        let before = db
            .table("c")
            .unwrap()
            .column_by_name("x")
            .unwrap()
            .mean()
            .unwrap();
        let after = sc
            .incomplete
            .table("c")
            .unwrap()
            .column_by_name("x")
            .unwrap()
            .mean()
            .unwrap();
        assert!(
            after < before - 10.0,
            "continuous bias should remove large values: {before} -> {after}"
        );
    }

    #[test]
    fn cascade_drops_dangling_children() {
        let db = base_db();
        // Remove parents, cascade children.
        let mut cfg = RemovalConfig::new(BiasSpec::categorical("ta", "a"), 0.5, 0.0);
        cfg.cascade = vec!["tb".to_string()];
        let sc = apply_removal(&db, &cfg);
        let ta = sc.incomplete.table("ta").unwrap();
        let tb = sc.incomplete.table("tb").unwrap();
        let pcol = ta.resolve("id").unwrap();
        let keys: HashSet<Value> = (0..ta.n_rows()).map(|r| ta.value(r, pcol)).collect();
        let ccol = tb.resolve("a_id").unwrap();
        for r in 0..tb.n_rows() {
            assert!(
                keys.contains(&tb.value(r, ccol)),
                "dangling child survived cascade"
            );
        }
        assert!(sc.incomplete_tables.contains(&"tb".to_string()));
    }
}
