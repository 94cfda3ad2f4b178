//! The synthetic two-table dataset of Exp. 1 (§7.2).
//!
//! A complete parent table `ta(id, a)` and an incomplete child table
//! `tb(id, a_id, b)` connected by a foreign key. The generator controls the
//! knobs the paper sweeps:
//!
//! * **predictability** — probability that `B` equals a deterministic
//!   function of `A` (the rest is uniform noise);
//! * **skew** — Zipf exponent of `A`'s distribution;
//! * **fan-out predictability** — coherence of `B` *within* the children of
//!   one parent, driven by a latent per-parent group value that `A` does not
//!   reveal (this is what SSAR's self-evidence can exploit but plain AR
//!   cannot, Fig. 5c).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use restore_db::{Database, Field, ForeignKey, Table, Value};

use crate::zipf::Zipf;

/// Domain size of attribute `A`.
const CARD_A: usize = 10;
/// Domain size of attribute `B`.
const CARD_B: usize = 10;
/// Mean children per parent.
const FANOUT_MEAN: usize = 5;

/// Configuration of the synthetic dataset.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Number of parent (`ta`) tuples.
    pub n_parent: usize,
    /// `P(B = f(A))`; the paper sweeps 20%–100%.
    pub predictability: f64,
    /// Zipf exponent of `A` (`None` = uniform).
    pub zipf_a: Option<f64>,
    /// When `Some(q)`, `B` follows a latent per-parent group value with
    /// coherence `q` instead of `f(A)` — the fan-out predictability setting.
    pub group_coherence: Option<f64>,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            n_parent: 400,
            predictability: 0.8,
            zipf_a: None,
            group_coherence: None,
        }
    }
}

/// Generates the two-table synthetic database.
pub fn generate_synthetic(cfg: &SyntheticConfig, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();

    let mut ta = Table::new(
        "ta",
        vec![
            Field::new("id", restore_db::DataType::Int),
            Field::new("a", restore_db::DataType::Str),
        ],
    );
    let zipf = cfg.zipf_a.map(|s| Zipf::new(CARD_A, s));
    let mut a_vals = Vec::with_capacity(cfg.n_parent);
    for id in 0..cfg.n_parent {
        let a = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.random_range(0..CARD_A),
        };
        a_vals.push(a);
        ta.push_row(&[Value::Int(id as i64), Value::str(format!("a{a}"))])
            .unwrap();
    }
    db.add_table(ta);

    let mut tb = Table::new(
        "tb",
        vec![
            Field::new("id", restore_db::DataType::Int),
            Field::new("a_id", restore_db::DataType::Int),
            Field::new("b", restore_db::DataType::Str),
        ],
    );
    let mut next_id = 0i64;
    for (pid, &a) in a_vals.iter().enumerate() {
        // Fan-out mildly depends on A so tuple factors are learnable.
        let fanout = FANOUT_MEAN + (a % 3);
        // Latent group value for the fan-out-predictability experiments.
        let group_b = rng.random_range(0..CARD_B);
        for _ in 0..fanout {
            let b = match cfg.group_coherence {
                Some(q) => {
                    if rng.random::<f64>() < q {
                        group_b
                    } else {
                        rng.random_range(0..CARD_B)
                    }
                }
                None => {
                    if rng.random::<f64>() < cfg.predictability {
                        // Deterministic dependency: f(A) = A mod |B|.
                        a % CARD_B
                    } else {
                        rng.random_range(0..CARD_B)
                    }
                }
            };
            tb.push_row(&[
                Value::Int(next_id),
                Value::Int(pid as i64),
                Value::str(format!("b{b}")),
            ])
            .unwrap();
            next_id += 1;
        }
    }
    db.add_table(tb);
    db.add_foreign_key(ForeignKey::new("tb", "a_id", "ta", "id"))
        .unwrap();
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape_matches_paper() {
        let db = generate_synthetic(&SyntheticConfig::default(), 1);
        let ta = db.table("ta").unwrap();
        let tb = db.table("tb").unwrap();
        assert_eq!(ta.n_rows(), 400);
        assert!(tb.n_rows() >= 400 * 5);
        assert_eq!(db.foreign_keys().len(), 1);
    }

    #[test]
    fn full_predictability_makes_b_a_function_of_a() {
        let cfg = SyntheticConfig {
            predictability: 1.0,
            ..Default::default()
        };
        let db = generate_synthetic(&cfg, 2);
        let joined =
            restore_db::query::executor::join_tables(&db, &["ta".to_string(), "tb".to_string()])
                .unwrap();
        let a_idx = joined.resolve("ta.a").unwrap();
        let b_idx = joined.resolve("tb.b").unwrap();
        for r in 0..joined.n_rows() {
            let a: usize = joined.value(r, a_idx).as_str().unwrap()[1..]
                .parse()
                .unwrap();
            let b: usize = joined.value(r, b_idx).as_str().unwrap()[1..]
                .parse()
                .unwrap();
            assert_eq!(b, a % 10, "B must equal f(A) at predictability 1.0");
        }
    }

    #[test]
    fn zero_predictability_is_noise() {
        let cfg = SyntheticConfig {
            predictability: 0.0,
            n_parent: 600,
            ..Default::default()
        };
        let db = generate_synthetic(&cfg, 3);
        // The most frequent B value should be near uniform share (10%).
        let tb = db.table("tb").unwrap();
        let mut counts = std::collections::HashMap::new();
        for r in 0..tb.n_rows() {
            *counts.entry(tb.value(r, 2).to_string()).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap() as f64 / tb.n_rows() as f64;
        assert!(max < 0.15, "max B share {max} too large for pure noise");
    }

    #[test]
    fn zipf_skews_a_distribution() {
        let cfg = SyntheticConfig {
            zipf_a: Some(2.0),
            n_parent: 2000,
            ..Default::default()
        };
        let db = generate_synthetic(&cfg, 4);
        let ta = db.table("ta").unwrap();
        let mut counts = std::collections::HashMap::new();
        for r in 0..ta.n_rows() {
            *counts.entry(ta.value(r, 1).to_string()).or_insert(0usize) += 1;
        }
        let a0 = counts.get("a0").copied().unwrap_or(0) as f64 / 2000.0;
        assert!(a0 > 0.4, "zipf(2.0) should concentrate on a0, got {a0}");
    }

    #[test]
    fn group_coherence_makes_siblings_agree() {
        let cfg = SyntheticConfig {
            group_coherence: Some(1.0),
            n_parent: 100,
            ..Default::default()
        };
        let db = generate_synthetic(&cfg, 5);
        let tb = db.table("tb").unwrap();
        let mut per_parent: std::collections::HashMap<i64, Vec<String>> = Default::default();
        for r in 0..tb.n_rows() {
            per_parent
                .entry(tb.value(r, 1).as_i64().unwrap())
                .or_default()
                .push(tb.value(r, 2).to_string());
        }
        for (_, vals) in per_parent {
            assert!(
                vals.windows(2).all(|w| w[0] == w[1]),
                "coherence 1.0 ⇒ all siblings equal"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SyntheticConfig::default();
        let a = generate_synthetic(&cfg, 9);
        let b = generate_synthetic(&cfg, 9);
        let (ta, tb) = (a.table("tb").unwrap(), b.table("tb").unwrap());
        assert_eq!(ta.n_rows(), tb.n_rows());
        for r in (0..ta.n_rows()).step_by(97) {
            assert_eq!(ta.row(r), tb.row(r));
        }
    }
}
