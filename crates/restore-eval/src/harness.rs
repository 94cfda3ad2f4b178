//! Shared experiment plumbing: scenario construction, model training with
//! evaluation-sized defaults, and statistic extraction.

use restore_core::{
    Completer, CompleterConfig, CompletionModel, CompletionOutput, CompletionPath,
    SchemaAnnotation, TrainConfig,
};
use restore_data::{
    apply_removal, generate_synthetic, BiasSpec, RemovalConfig, Scenario, SyntheticConfig,
};
use restore_db::Table;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads each *training run* may use (the data-parallel gradient
/// engine). Defaults to 1 because the harness already fans experiment
/// cells out over the worker pool — same nested-ncpu² reasoning as
/// [`eval_completer_config`] — and training results are worker-count
/// invariant anyway. `--train-workers=N` raises it for single-model runs
/// (timing sweeps, `exp4_timing`).
static TRAIN_WORKERS: AtomicUsize = AtomicUsize::new(1);

/// Sets the per-training-run worker count used by [`eval_train_config`]
/// (`0` = one per hardware thread).
pub(crate) fn set_train_workers(workers: usize) {
    TRAIN_WORKERS.store(workers, Ordering::Relaxed);
}

/// The current per-training-run worker count.
pub(crate) fn train_workers() -> usize {
    TRAIN_WORKERS.load(Ordering::Relaxed)
}

/// Training configuration sized for the evaluation sweeps (hundreds of
/// models on a laptop).
pub fn eval_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 15,
        batch_size: 256,
        hidden: vec![48, 48],
        embed_dim: 8,
        max_train_rows: 8_000,
        workers: train_workers(),
        ..TrainConfig::default()
    }
}

/// SSAR variant of [`eval_train_config`].
pub(crate) fn eval_train_config_ssar() -> TrainConfig {
    eval_train_config().ssar()
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
            ..SyntheticConfig::default()
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
) -> restore_core::CoreResult<CompletionModel> {
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let path = CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()])?;
    CompletionModel::train(&sc.incomplete, &ann, path, train, seed)
}

/// Completer configuration for experiment cells: the harness already
/// fans cells out over the worker pool (`parallel_map`), so the inner
/// sampling stays single-threaded to avoid a nested ncpu² thread blowup.
/// Results are identical either way (worker-count invariance).
pub(crate) fn eval_completer_config() -> CompleterConfig {
    CompleterConfig {
        workers: 1,
        ..CompleterConfig::default()
    }
}

/// Runs Algorithm 1 for a synthetic model.
pub(crate) fn complete_synthetic(
    sc: &Scenario,
    model: &CompletionModel,
    completer_cfg: CompleterConfig,
    seed: u64,
) -> restore_core::CoreResult<CompletionOutput> {
    let ann = SchemaAnnotation::with_incomplete(["tb"]);
    let completer = Completer::new(&sc.incomplete, &ann).with_config(completer_cfg);
    completer.complete(model, seed ^ 0xc0ffee)
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
        let out = complete_synthetic(&sc, &model, CompleterConfig::default(), 3).unwrap();
        assert!(out.join.n_rows() > sc.incomplete.table("tb").unwrap().n_rows());
    }
}
