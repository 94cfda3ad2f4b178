//! Shared experiment plumbing: scenario construction, model training with
//! evaluation-sized defaults, and statistic extraction.

use restore_core::{
    Completer, CompletionModel, CompletionOutput, CompletionPath, CoreResult, SchemaAnnotation,
    TrainConfig,
};
use restore_data::{
    apply_removal, generate_synthetic, BiasSpec, RemovalConfig, Scenario, SyntheticConfig,
};
use restore_db::Table;

use crate::metrics::bias_reduction;

/// Training configuration sized for the evaluation sweeps (hundreds of
/// models on a laptop). The harness fans experiment cells out with
/// `parallel_map`, and a training or completion inside a cell shares the
/// process's core budget with it: a nested map adds helpers only on idle
/// cores. Trained weights and completions never depend on the worker count.
pub fn eval_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 15,
        batch_size: 256,
        hidden: vec![48, 48],
        max_train_rows: 8_000,
        ..TrainConfig::default()
    }
}

/// The cells of a sweep: every `outer` value × keep rate × removal
/// correlation, in that nesting order, each with its index — which the
/// runners turn into the cell's seed.
pub(crate) fn grid<T: Clone>(outer: &[T], keeps: &[f64], corrs: &[f64]) -> Vec<(T, f64, f64, u64)> {
    let cells = outer.iter().flat_map(|o| {
        keeps
            .iter()
            .flat_map(move |&k| corrs.iter().map(move |&c| (o.clone(), k, c)))
    });
    cells
        .zip(0..)
        .map(|((o, k, c), id)| (o, k, c, id))
        .collect()
}

/// Builds the Exp. 1 synthetic scenario: two tables, biased removal on the
/// most frequent `b` value.
pub(crate) fn synthetic_scenario(
    predictability: f64,
    zipf: Option<f64>,
    coherence: Option<f64>,
    n_parent: usize,
    keep: f64,
    corr: f64,
    seed: u64,
) -> Scenario {
    let db = generate_synthetic(
        &SyntheticConfig {
            n_parent,
            predictability,
            zipf_a: zipf,
            group_coherence: coherence,
        },
        seed,
    );
    let mut cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), keep, corr);
    cfg.tf_keep_rate = 0.3;
    cfg.seed = seed ^ 0xeee1;
    apply_removal(&db, &cfg)
}

/// Trains the `ta → tb` completion model on a synthetic scenario.
pub(crate) fn train_synthetic_model(
    sc: &Scenario,
    train: &TrainConfig,
    seed: u64,
) -> CoreResult<CompletionModel> {
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let path = CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()])?;
    CompletionModel::train(&sc.incomplete, &ann, path, train, seed)
}

/// Runs Algorithm 1 for `model` on the scenario's incomplete database.
pub(crate) fn complete_scenario(
    sc: &Scenario,
    model: &CompletionModel,
    seed: u64,
) -> CoreResult<CompletionOutput> {
    let ann = SchemaAnnotation::with_incomplete(sc.incomplete_tables.iter().map(String::as_str));
    Completer::new(&sc.incomplete, &ann).complete(model, seed)
}

/// Fraction of rows where `column == value`, or the mean of `column` when
/// `value` is `None` — the statistic the bias-reduction metric tracks.
pub(crate) fn stat_of(table: &Table, column: &str, value: Option<&str>) -> f64 {
    let Ok(idx) = table.resolve(column) else {
        return f64::NAN;
    };
    let n = table.n_rows();
    if n == 0 {
        return f64::NAN;
    }
    match value {
        Some(v) => {
            (0..n)
                .filter(|&r| table.value(r, idx).to_string() == v)
                .count() as f64
                / n as f64
        }
        None => {
            let vals: Vec<f64> = (0..n)
                .filter_map(|r| table.value(r, idx).as_f64())
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        }
    }
}

/// Bias statistic of a scenario's biased attribute on an arbitrary table
/// (complete table, incomplete table, or a completed join using qualified
/// column names).
pub(crate) fn scenario_stat(sc: &Scenario, table: &Table, qualified: bool) -> f64 {
    let col = if qualified {
        format!("{}.{}", sc.bias.table, sc.bias.column)
    } else {
        sc.bias.column.clone()
    };
    stat_of(table, &col, sc.bias_value.as_deref())
}

/// Bias reduction (Eq. 2) of a scenario's biased attribute in `completed`:
/// the completed table, or a completed join with qualified column names.
pub(crate) fn scenario_bias_reduction(sc: &Scenario, completed: &Table, qualified: bool) -> f64 {
    let target = &sc.bias.table;
    let truth = scenario_stat(sc, sc.complete.table(target).unwrap(), false);
    let inc = scenario_stat(sc, sc.incomplete.table(target).unwrap(), false);
    bias_reduction(truth, inc, scenario_stat(sc, completed, qualified))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_of_fraction_and_mean() {
        let mut t = Table::new(
            "t",
            vec![
                restore_db::Field::new("c", restore_db::DataType::Str),
                restore_db::Field::new("x", restore_db::DataType::Float),
            ],
        );
        t.push_row(&[restore_db::Value::str("a"), restore_db::Value::Float(1.0)])
            .unwrap();
        t.push_row(&[restore_db::Value::str("b"), restore_db::Value::Float(3.0)])
            .unwrap();
        assert_eq!(stat_of(&t, "c", Some("a")), 0.5);
        assert_eq!(stat_of(&t, "x", None), 2.0);
        assert!(stat_of(&t, "missing", None).is_nan());
    }

    #[test]
    fn synthetic_pipeline_runs_end_to_end() {
        let sc = synthetic_scenario(0.9, None, None, 120, 0.5, 0.5, 3);
        let mut cfg = eval_train_config();
        cfg.epochs = 4;
        let model = train_synthetic_model(&sc, &cfg, 3).unwrap();
        let out = complete_scenario(&sc, &model, 3).unwrap();
        assert!(out.join.n_rows() > sc.incomplete.table("tb").unwrap().n_rows());
    }
}
