//! Model & path selection (§5).
//!
//! Selection trains nothing: [`ReStore::train`](crate::ReStore::train)
//! trains one model per candidate path and keeps them all, and
//! [`score_candidates`] ranks what it is handed. *Basic selection* filters
//! models by their held-out test loss — an unpredictable target attribute
//! means the bias cannot be corrected (Fig. 5b validates the criterion).
//! When the user *suspects* the direction of the bias, the candidates that
//! pass the filter are ranked by how strongly they correct in that
//! direction.

use std::sync::Arc;

use restore_db::{Database, Table};

use crate::annotation::SchemaAnnotation;
use crate::completion::Completer;
use crate::error::{CoreError, CoreResult};
use crate::model::CompletionModel;

/// The direction of a suspected bias on an attribute (§5): does the
/// incomplete data over- or under-estimate it?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BiasDirection {
    Overestimated,
    Underestimated,
}

/// User-provided hint that an attribute's aggregate is biased.
#[derive(Clone, Debug)]
pub struct SuspectedBias {
    pub table: String,
    pub column: String,
    pub direction: BiasDirection,
    /// For categorical attributes: the value whose share is biased.
    pub value: Option<String>,
}

/// How [`ReStore::train`](crate::ReStore::train) ranks the candidate paths
/// of an incomplete table. Every candidate is trained and kept under either
/// strategy (`RestoreConfig::max_candidates = 1` is how to train only the
/// shortest path); the strategy decides which one the build reports as
/// selected and whether that choice binds the serving side.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// The lowest held-out target NLL wins (basic selection, §5). The
    /// winner is reported and persisted; a snapshot still picks per query
    /// among all trained candidates.
    #[default]
    BestValLoss,
    /// Candidates that pass the basic filter are ranked by completing the
    /// data and scoring the shift against the suspected bias direction.
    /// The hint is the user's, so the winner is recorded like a forced
    /// path: it is the one that serves.
    SuspectedBiasRanking,
}

/// Score sheet of one candidate path.
#[derive(Clone, Debug)]
pub struct CandidateScore {
    pub path: String,
    pub val_loss: f32,
    pub target_val_loss: f32,
    /// Strategy-specific ranking score (higher is better); `-inf` for a
    /// candidate the basic filter rules out.
    pub score: f64,
    pub selected: bool,
}

/// Basic filter (§5): a model whose held-out NLL on the target attributes
/// is close to the uninformative (marginal-entropy) bound cannot correct
/// the bias. A candidate is filtered when its target NLL exceeds `factor` ×
/// the best candidate's.
fn filtered(models: &[Arc<CompletionModel>], factor: f32) -> Vec<bool> {
    let best = models
        .iter()
        .map(|m| m.target_val_loss())
        .fold(f32::INFINITY, f32::min);
    models
        .iter()
        .map(|m| m.target_val_loss() > best * factor + 1e-3)
        .collect()
}

/// Scores the trained candidate models of one incomplete table under
/// `strategy` and marks the winner — one sheet per model, in order. A
/// filtered candidate stays on the sheet at `-inf`; it just cannot win.
pub fn score_candidates(
    db: &Database,
    annotation: &SchemaAnnotation,
    models: &[Arc<CompletionModel>],
    strategy: &SelectionStrategy,
    suspected: Option<&SuspectedBias>,
    seed: u64,
) -> CoreResult<Vec<CandidateScore>> {
    let scores: Vec<f64> = match strategy {
        SelectionStrategy::BestValLoss => models
            .iter()
            .map(|m| -(m.target_val_loss() as f64))
            .collect(),
        SelectionStrategy::SuspectedBiasRanking => {
            let sus = suspected.ok_or_else(|| {
                CoreError::Invalid("SuspectedBiasRanking needs a SuspectedBias hint".into())
            })?;
            models
                .iter()
                .zip(filtered(models, 1.5))
                .map(|(m, out)| {
                    if out {
                        Ok(f64::NEG_INFINITY)
                    } else {
                        suspected_bias_score(db, annotation, m, sus, seed)
                    }
                })
                .collect::<CoreResult<_>>()?
        }
    };
    let best = (0..scores.len()).max_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    Ok(models
        .iter()
        .enumerate()
        .map(|(i, m)| CandidateScore {
            path: m.path().describe(),
            val_loss: m.val_loss,
            target_val_loss: m.target_val_loss(),
            score: scores[i],
            selected: Some(i) == best,
        })
        .collect())
}

/// Scores a candidate by how strongly its completion corrects the
/// suspected bias: completes the data and measures the shift of the
/// attribute's mean (continuous) or target-value share (categorical) in the
/// suspected direction.
fn suspected_bias_score(
    db: &Database,
    annotation: &SchemaAnnotation,
    model: &CompletionModel,
    suspected: &SuspectedBias,
    seed: u64,
) -> CoreResult<f64> {
    let completer = Completer::new(db, annotation);
    let out = completer.complete(model, seed ^ 0xb1a5)?;
    let SuspectedBias { table, column, .. } = suspected;
    let value = suspected.value.as_deref();
    let before = attr_statistic(db.table(table)?, column, value)?;
    let after = attr_statistic(&out.join, &format!("{table}.{column}"), value)?;
    let shift = after - before;
    Ok(match suspected.direction {
        // Incomplete data overestimates → a good completion lowers it.
        BiasDirection::Overestimated => -shift,
        BiasDirection::Underestimated => shift,
    })
}

/// Mean of `column` (continuous), or the share of its rows that read `value`
/// (categorical).
fn attr_statistic(table: &Table, column: &str, value: Option<&str>) -> CoreResult<f64> {
    let idx = table.resolve(column)?;
    let n = table.n_rows();
    if n == 0 {
        return Ok(0.0);
    }
    let values = (0..n).map(|r| table.value(r, idx));
    Ok(match value {
        Some(v) => values.filter(|x| x.to_string() == v).count() as f64 / n as f64,
        None => {
            let nums: Vec<f64> = values.filter_map(|x| x.as_f64()).collect();
            if nums.is_empty() {
                0.0
            } else {
                nums.iter().sum::<f64>() / nums.len() as f64
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainConfig;
    use crate::paths::CompletionPath;
    use restore_data::{apply_removal, BiasSpec, RemovalConfig, Scenario, SyntheticConfig};

    /// A biased removal on `tb.b` and two models of its one path `ta→tb`:
    /// a trained one, then an untrained one (0 epochs, no minimum-step
    /// floor).
    fn trained_and_untrained(seed: u64) -> (Scenario, SchemaAnnotation, Vec<Arc<CompletionModel>>) {
        let db = restore_data::generate_synthetic(
            &SyntheticConfig {
                predictability: 0.95,
                n_parent: 200,
                ..Default::default()
            },
            seed,
        );
        let mut cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.6);
        cfg.seed = seed;
        let sc = apply_removal(&db, &cfg);
        let ann = SchemaAnnotation::with_incomplete(["tb"]);
        let path =
            CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
        let good = TrainConfig {
            epochs: 6,
            hidden: vec![32, 32],
            max_train_rows: 4000,
            ..Default::default()
        };
        let bad = TrainConfig {
            epochs: 0,
            min_steps: 0,
            ..good.clone()
        };
        let models = [good, bad]
            .map(|cfg| CompletionModel::train(&sc.incomplete, &ann, path.clone(), &cfg, 1).unwrap())
            .map(Arc::new)
            .to_vec();
        (sc, ann, models)
    }

    #[test]
    fn best_val_loss_marks_the_trained_model() {
        let (sc, ann, models) = trained_and_untrained(41);
        let strategy = SelectionStrategy::BestValLoss;
        let sheet = score_candidates(&sc.incomplete, &ann, &models, &strategy, None, 41).unwrap();
        let selected: Vec<bool> = sheet.iter().map(|c| c.selected).collect();
        assert_eq!(selected, [true, false]);
    }

    #[test]
    fn suspected_bias_ranking_prefers_correcting_models() {
        let (sc, ann, models) = trained_and_untrained(43);
        let strategy = SelectionStrategy::SuspectedBiasRanking;
        let score = |sus| score_candidates(&sc.incomplete, &ann, &models, &strategy, sus, 43);
        assert!(matches!(score(None), Err(CoreError::Invalid(_))));
        let sus = SuspectedBias {
            table: "tb".into(),
            column: "b".into(),
            direction: BiasDirection::Underestimated,
            value: sc.bias_value.clone(),
        };
        let sheet = score(Some(&sus)).unwrap();
        // The uninformative model is reported, and cannot win.
        assert_eq!(sheet[1].score, f64::NEG_INFINITY);
        // The biased value was depleted; a good completion raises its share,
        // so the winning score must be positive.
        assert!(sheet[0].selected && !sheet[1].selected);
        assert!(
            sheet[0].score > 0.0,
            "winning score {} should correct the bias",
            sheet[0].score
        );
    }

    #[test]
    fn basic_filter_flags_bad_models() {
        let (_, _, models) = trained_and_untrained(44);
        assert_eq!(filtered(&models, 1.1), [false, true]);
    }
}
