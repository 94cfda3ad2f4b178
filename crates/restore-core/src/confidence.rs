//! Completion confidence (§6): per-tuple certainty from the KL divergence
//! between the model's predictive distribution and the training-data
//! marginal, mixed with pessimistic bound distributions `P_lower`/`P_upper`
//! to yield confidence intervals for COUNT / AVG / SUM aggregates over
//! completed data.

use std::collections::HashMap;

use restore_db::{Database, Value};
use restore_nn::kl_divergence;

use crate::completion::CompletionOutput;
use crate::encoding::AttrEncoder;
use crate::error::{CoreError, CoreResult};
use crate::model::CompletionModel;

/// The aggregate a confidence interval is requested for.
#[derive(Clone, Debug)]
pub enum ConfidenceQuery {
    /// Fraction of rows where `table.column == value` (count-queries of
    /// Figs. 6/13/14 report this fraction).
    CountFraction {
        table: String,
        column: String,
        value: String,
    },
    /// Average of `table.column` over the completed join.
    Avg { table: String, column: String },
    /// Sum of `table.column` over the completed join.
    Sum { table: String, column: String },
}

/// A confidence interval plus the point estimate and — for count-queries —
/// the theoretical min/max obtained by setting all synthesized values to /
/// away from the target value.
#[derive(Clone, Debug)]
pub struct ConfidenceInterval {
    pub lo: f64,
    pub hi: f64,
    pub estimate: f64,
    pub theoretical: Option<(f64, f64)>,
}

/// Per-row certainty `C(t_e) = 1 − exp(−D_KL(P_model ‖ P_incomplete))`.
fn certainty(dist: &[f32], marginal: &[f32]) -> f32 {
    (1.0 - (-kl_divergence(dist, marginal)).exp()).clamp(0.0, 1.0)
}

/// Computes the §6 confidence interval for an aggregate over a completed
/// join. `level` is the confidence level (e.g. 0.95); `batch_size` is how
/// many synthesized rows the model evaluates per pass
/// ([`CompleterConfig::batch_size`](crate::completion::CompleterConfig::batch_size)
/// — it moves memory and time, never the interval).
pub fn confidence_interval(
    model: &CompletionModel,
    db: &Database,
    output: &CompletionOutput,
    query: &ConfidenceQuery,
    level: f64,
    batch_size: usize,
) -> CoreResult<ConfidenceInterval> {
    let (table, column) = match query {
        ConfidenceQuery::CountFraction { table, column, .. }
        | ConfidenceQuery::Avg { table, column }
        | ConfidenceQuery::Sum { table, column } => (table.as_str(), column.as_str()),
    };
    let attr_idx = model
        .attr_index(table, column)
        .ok_or_else(|| CoreError::Invalid(format!("{table}.{column} is not a model attribute")))?;
    let encoder = &model.attrs()[attr_idx].encoder;
    let syn_flags = output
        .synthesized_for(table)
        .ok_or_else(|| CoreError::Invalid(format!("{table} is not on the completed path")))?;

    let join = &output.join;
    let cells = join.column(join.resolve(&format!("{table}.{column}"))?);
    let n = join.n_rows();
    let (syn_rows, real_rows): (Vec<usize>, Vec<usize>) = (0..n).partition(|&r| syn_flags[r]);

    // Per aggregate: what the real rows contribute and how many of them
    // count, the pessimistic bounds a synthesized row falls back to
    // (P_lower / P_upper), and what each token is worth — a row's value
    // under the model is its conditional's expectation of that (for a
    // count: of the indicator of the target token, i.e. its probability).
    let tokens = 0..encoder.cardinality() as u32;
    let (existing, counted, (bound_lo, bound_hi), worth): (f64, usize, _, Vec<f64>) = match query {
        ConfidenceQuery::CountFraction { value, .. } => {
            let target_tok = encoder.encode(&Value::str(value)).or_else(|| {
                // Numeric categorical values arrive as strings too.
                let number = value.parse::<f64>().ok()?;
                encoder.encode(&Value::Float(number))
            });
            // A real cell holds the value when it prints as it — the rule
            // dictionaries match by — so a one-key dictionary finds the
            // cells: one comparison per distinct string or number, not one
            // `to_string()` per row.
            let holds = AttrEncoder::Categorical {
                values: vec![Value::str(value)],
                index: HashMap::from([(value.clone(), 0)]),
            };
            let held = holds.encode_column(cells, Some(&real_rows));
            let existing = held.iter().filter(|&&token| token == 0).count();
            let is_target = tokens.map(|t| f64::from(Some(t) == target_tok));
            (
                existing as f64,
                0,
                (1.0 - level, level),
                is_target.collect(),
            )
        }
        ConfidenceQuery::Avg { .. } | ConfidenceQuery::Sum { .. } => {
            // The level-quantiles of the training data: P_lower / P_upper
            // concentrated on extreme values.
            let bounds = training_quantiles(db, table, column, 1.0 - level, level)?;
            let known = real_rows.iter().filter_map(|&r| cells.get(r).as_f64());
            let known: Vec<f64> = known.filter(|x| !x.is_nan()).collect();
            let sum = known.iter().fold(0.0, |sum, x| sum + x);
            let numeric = tokens.map(|t| encoder.token_numeric(t).unwrap_or(0.0));
            (sum, known.len(), bounds, numeric.collect())
        }
    };

    // Model conditionals of the synthesized rows against the training
    // marginal, in row order. Rows sharing an evidence prefix share one
    // conditional, back to back (Algorithm 1): a row whose distribution is
    // bit-equal to the last one's reuses its worth and certainty.
    let marginal = model.training_marginal(db, attr_idx)?;
    let (mut lo, mut hi, mut estimate) = (existing, existing, existing);
    let (mut prev, mut value, mut c) = (Vec::new(), 0.0, 0.0);
    let accumulate = |d: &[f32]| {
        let bits = d.iter().map(|p| p.to_bits());
        if prev.is_empty() || !bits.clone().eq(prev.iter().copied()) {
            value = d.iter().zip(&worth).map(|(&p, w)| p as f64 * w).sum();
            c = certainty(d, &marginal) as f64;
            prev.clear();
            prev.extend(bits);
        }
        lo += c * value + (1.0 - c) * bound_lo;
        hi += c * value + (1.0 - c) * bound_hi;
        estimate += value;
    };
    model.conditional_dists(
        join, &output.tf, attr_idx, &syn_rows, batch_size, accumulate,
    )?;

    let (per, theoretical) = match query {
        ConfidenceQuery::CountFraction { .. } => {
            let total = n.max(1) as f64;
            let all = existing + syn_rows.len() as f64;
            (total, Some((existing / total, all / total)))
        }
        ConfidenceQuery::Avg { .. } => ((counted + syn_rows.len()).max(1) as f64, None),
        ConfidenceQuery::Sum { .. } => (1.0, None),
    };
    Ok(ConfidenceInterval {
        lo: lo / per,
        hi: hi / per,
        estimate: estimate / per,
        theoretical,
    })
}

/// Quantiles of the available (incomplete) data for a numeric column.
fn training_quantiles(
    db: &Database,
    table: &str,
    column: &str,
    lo_q: f64,
    hi_q: f64,
) -> CoreResult<(f64, f64)> {
    let t = db.table(table)?;
    let col = t.column_by_name(column)?;
    let vals = (0..col.len()).filter_map(|r| col.get(r).as_f64());
    let mut vals: Vec<f64> = vals.filter(|x| !x.is_nan()).collect();
    if vals.is_empty() {
        return Ok((0.0, 0.0));
    }
    vals.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        let i = ((vals.len() - 1) as f64 * q).round() as usize;
        vals[i]
    };
    Ok((pick(lo_q.clamp(0.0, 1.0)), pick(hi_q.clamp(0.0, 1.0))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::SchemaAnnotation;
    use crate::completion::Completer;
    use crate::model::{CompletionModel, TrainConfig};
    use crate::paths::CompletionPath;
    use restore_data::{apply_removal, BiasSpec, RemovalConfig, SyntheticConfig};

    fn run_scenario(
        predictability: f64,
        seed: u64,
    ) -> (restore_data::Scenario, CompletionModel, CompletionOutput) {
        let db = restore_data::generate_synthetic(
            &SyntheticConfig {
                predictability,
                n_parent: 200,
                ..Default::default()
            },
            seed,
        );
        let mut rcfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.4);
        rcfg.seed = seed;
        let sc = apply_removal(&db, &rcfg);
        let ann = SchemaAnnotation::with_incomplete(["tb"]);
        let path =
            CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
        let cfg = TrainConfig {
            epochs: 10,
            hidden: vec![32, 32],
            ..Default::default()
        };
        let model = CompletionModel::train(&sc.incomplete, &ann, path, &cfg, seed).unwrap();
        let completer = Completer::new(&sc.incomplete, &ann);
        let out = completer.complete(&model, seed).unwrap();
        (sc, model, out)
    }

    fn true_fraction(sc: &restore_data::Scenario, value: &str) -> f64 {
        let t = sc.complete.table("tb").unwrap();
        let i = t.resolve("b").unwrap();
        (0..t.n_rows())
            .filter(|&r| t.value(r, i).to_string() == value)
            .count() as f64
            / t.n_rows() as f64
    }

    #[test]
    fn count_interval_contains_truth_and_theoretical_bounds() {
        let (sc, model, out) = run_scenario(0.9, 31);
        let value = sc.bias_value.clone().unwrap();
        let q = ConfidenceQuery::CountFraction {
            table: "tb".into(),
            column: "b".into(),
            value: value.clone(),
        };
        let ci = confidence_interval(&model, &sc.incomplete, &out, &q, 0.95, 64).unwrap();
        let truth = true_fraction(&sc, &value);
        let (tmin, tmax) = ci.theoretical.unwrap();
        assert!(ci.lo <= ci.hi);
        assert!(
            tmin <= ci.lo + 1e-9 && ci.hi <= tmax + 1e-9,
            "CI outside theoretical bounds"
        );
        assert!(
            ci.lo - 0.05 <= truth && truth <= ci.hi + 0.05,
            "true fraction {truth:.3} outside CI [{:.3}, {:.3}]",
            ci.lo,
            ci.hi
        );
    }

    #[test]
    fn higher_predictability_tightens_the_interval() {
        let (sc_hi, model_hi, out_hi) = run_scenario(1.0, 32);
        let (sc_lo, model_lo, out_lo) = run_scenario(0.2, 32);
        let q = |sc: &restore_data::Scenario| ConfidenceQuery::CountFraction {
            table: "tb".into(),
            column: "b".into(),
            value: sc.bias_value.clone().unwrap(),
        };
        let ci_hi =
            confidence_interval(&model_hi, &sc_hi.incomplete, &out_hi, &q(&sc_hi), 0.95, 64)
                .unwrap();
        let ci_lo =
            confidence_interval(&model_lo, &sc_lo.incomplete, &out_lo, &q(&sc_lo), 0.95, 64)
                .unwrap();
        assert!(
            ci_hi.hi - ci_hi.lo < ci_lo.hi - ci_lo.lo,
            "predictable CI ({:.3}) should be tighter than noise CI ({:.3})",
            ci_hi.hi - ci_hi.lo,
            ci_lo.hi - ci_lo.lo
        );
    }

    #[test]
    fn avg_interval_brackets_estimate() {
        let (sc, model, out) = run_scenario(0.8, 33);
        // `b` is categorical; use the tuple-factor-free parent attr instead —
        // avg over a categorical attr is meaningless, so test Sum over a
        // synthetic numeric view: here we simply check the Avg machinery on
        // the `a` attribute of the (complete) evidence table is rejected,
        // and Sum on `b` is rejected for non-numeric decode.
        let q = ConfidenceQuery::Avg {
            table: "tb".into(),
            column: "b".into(),
        };
        let ci = confidence_interval(&model, &sc.incomplete, &out, &q, 0.95, 64).unwrap();
        // Categorical tokens decode to strings → numeric view is 0; the
        // interval still must be ordered and finite.
        assert!(ci.lo <= ci.hi);
        assert!(ci.lo.is_finite() && ci.hi.is_finite());
    }

    #[test]
    fn unknown_attr_is_an_error() {
        let (sc, model, out) = run_scenario(0.8, 34);
        let q = ConfidenceQuery::Avg {
            table: "tb".into(),
            column: "nope".into(),
        };
        assert!(confidence_interval(&model, &sc.incomplete, &out, &q, 0.95, 64).is_err());
    }

    /// A snapshot file can carry any `f64` bits: NaN in a float column is
    /// one more unknown — it trains as MASK, is no quantile, and is left
    /// out of the sums like NULL.
    #[test]
    fn nan_cells_leave_the_interval_finite() {
        use restore_db::{DataType, Database, Field, ForeignKey, Table};
        let mut parent = Table::new(
            "p",
            vec![
                Field::new("id", DataType::Int),
                Field::new("a", DataType::Str),
                // Every parent is known to have three children.
                Field::new(restore_db::tf_column_name("c"), DataType::Int),
            ],
        );
        let mut child = Table::new(
            "c",
            vec![
                Field::new("id", DataType::Int),
                Field::new("p_id", DataType::Int),
                Field::new("v", DataType::Float),
            ],
        );
        for i in 0..80i64 {
            let a = Value::str(format!("a{}", i % 4));
            parent.push_row(&[Value::Int(i), a, Value::Int(3)]).unwrap();
            // Two of them are left, one in nine of those NaN.
            for j in 0..2i64 {
                let v = match (3 * i + j) % 9 {
                    0 => f64::NAN,
                    _ => (i % 4 * 100 + 7 * i + j) as f64,
                };
                child
                    .push_row(&[Value::Int(3 * i + j), Value::Int(i), Value::Float(v)])
                    .unwrap();
            }
        }
        let mut db = Database::new();
        db.add_table(parent);
        db.add_table(child);
        db.add_foreign_key(ForeignKey::new("c", "p_id", "p", "id"))
            .unwrap();
        let ann = SchemaAnnotation::with_incomplete(["c"]);
        let path = CompletionPath::from_tables(&db, &["p".into(), "c".into()]).unwrap();
        let cfg = TrainConfig {
            epochs: 3,
            min_steps: 60,
            hidden: vec![16, 16],
            ..Default::default()
        };
        let model = CompletionModel::train(&db, &ann, path, &cfg, 35).unwrap();
        let out = Completer::new(&db, &ann).complete(&model, 35).unwrap();
        assert_eq!(out.n_synthesized(), 80);
        for q in [
            ConfidenceQuery::Avg {
                table: "c".into(),
                column: "v".into(),
            },
            ConfidenceQuery::Sum {
                table: "c".into(),
                column: "v".into(),
            },
        ] {
            let ci = confidence_interval(&model, &db, &out, &q, 0.95, 64).unwrap();
            assert!(ci.lo.is_finite() && ci.hi.is_finite() && ci.estimate.is_finite());
            assert!(ci.lo <= ci.hi, "{ci:?}");
        }
    }
}
