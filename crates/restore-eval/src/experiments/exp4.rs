//! Exp. 4 — accuracy and performance aspects (§7.5): Fig. 9 (AR vs SSAR
//! bias-reduction distributions), Fig. 10 (model/path selection quality),
//! Fig. 11 (training time) and Fig. 12 (completion time per path).

use std::sync::Arc;
use std::time::Instant;

use restore_util::impl_to_json;

use restore_core::{
    enumerate_paths, score_candidates, BiasDirection, CompletionModel, ReplacementMode,
    SchemaAnnotation, SelectionStrategy, SuspectedBias, TrainConfig,
};
use restore_data::{build_scenario, Scenario, Setup};

use crate::harness::{complete_scenario, eval_train_config, grid, scenario_bias_reduction};
use restore_util::parallel_map;

/// One completed candidate: setup × model class × correlation → bias red.
#[derive(Clone, Debug)]
pub struct Fig9Cell {
    pub setup: String,
    pub model_class: String,
    pub removal_correlation: f64,
    pub bias_reduction: f64,
}
impl_to_json!(Fig9Cell {
    setup,
    model_class,
    removal_correlation,
    bias_reduction
});

/// The bias reduction of completing the biased attribute with `model`.
fn complete_and_score(sc: &Scenario, model: &CompletionModel, seed: u64) -> f64 {
    complete_scenario(sc, model, ReplacementMode::Auto, seed ^ 0xf19)
        .map_or(f64::NAN, |out| scenario_bias_reduction(sc, &out.join, true))
}

/// The model of the first candidate path (of up to five tables) that trains.
fn first_path_model(sc: &Scenario, train: &TrainConfig, seed: u64) -> Option<CompletionModel> {
    let ann = SchemaAnnotation::with_incomplete(sc.incomplete_tables.iter().map(String::as_str));
    let paths = enumerate_paths(&sc.incomplete, &ann, &sc.bias.table, 5);
    for p in paths {
        if let Ok(m) = CompletionModel::train(&sc.incomplete, &ann, p, train, seed) {
            return Some(m);
        }
    }
    None
}

/// Runs the Fig. 9 comparison: AR vs SSAR bias reductions per setup.
pub fn run_fig9(setups: &[Setup], corrs: &[f64], scale: f64, seed: u64) -> Vec<Fig9Cell> {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for setup in setups {
        for &c in corrs {
            for ssar in [false, true] {
                jobs.push((setup.clone(), c, ssar, id));
                id += 1;
            }
        }
    }
    parallel_map(jobs, |(setup, corr, ssar, id)| {
        let s = seed.wrapping_add(id.wrapping_mul(6151));
        let sc = build_scenario(setup, 0.4, *corr, scale, s);
        let train = if *ssar {
            eval_train_config().ssar()
        } else {
            eval_train_config()
        };
        let br = first_path_model(&sc, &train, s)
            .map(|m| complete_and_score(&sc, &m, s))
            .unwrap_or(f64::NAN);
        Fig9Cell {
            setup: setup.id.to_string(),
            model_class: if *ssar { "SSAR" } else { "AR" }.to_string(),
            removal_correlation: *corr,
            bias_reduction: br,
        }
    })
}

/// One Fig. 10 cell: all candidate models plus the two selection answers.
#[derive(Clone, Debug)]
pub struct Fig10Cell {
    pub setup: String,
    pub removal_correlation: f64,
    /// Bias reduction of every candidate path ("All Models" scatter).
    pub all_models: Vec<(String, f64)>,
    /// Candidate picked by test-loss selection ("Model Selection").
    pub selected: f64,
    /// Candidate picked with the suspected-bias hint.
    pub selected_suspected: f64,
    /// The best candidate in hindsight (oracle).
    pub best: f64,
}
impl_to_json!(Fig10Cell {
    setup,
    removal_correlation,
    all_models,
    selected,
    selected_suspected,
    best
});

/// Runs the Fig. 10 selection-quality sweep (keep rate fixed at 40%).
pub fn run_fig10(setups: &[Setup], corrs: &[f64], scale: f64, seed: u64) -> Vec<Fig10Cell> {
    parallel_map(grid(setups, &[0.4], corrs), |(setup, keep, corr, id)| {
        let s = seed.wrapping_add(id.wrapping_mul(12289));
        let sc = build_scenario(setup, *keep, *corr, scale, s);
        let ann =
            SchemaAnnotation::with_incomplete(sc.incomplete_tables.iter().map(String::as_str));
        let paths = enumerate_paths(&sc.incomplete, &ann, &sc.bias.table, 5);
        let train = eval_train_config();

        let mut models = Vec::new();
        let mut all = Vec::new();
        for p in paths.into_iter().take(3) {
            let Ok(m) = CompletionModel::train(&sc.incomplete, &ann, p, &train, s) else {
                continue;
            };
            let br = complete_and_score(&sc, &m, s);
            if br.is_nan() {
                continue;
            }
            all.push((m.path().describe(), br));
            models.push(Arc::new(m));
        }
        // Which candidate §5 picks is the library's answer. The removal
        // depletes the biased attribute, so the hint is "underestimated".
        let hint = SuspectedBias {
            table: sc.bias.table.clone(),
            column: sc.bias.column.clone(),
            direction: BiasDirection::Underestimated,
            value: sc.bias_value.clone(),
        };
        let pick = |strategy| {
            score_candidates(&sc.incomplete, &ann, &models, &strategy, Some(&hint), s)
                .ok()
                .and_then(|sheet| sheet.iter().position(|c| c.selected))
                .map_or(f64::NAN, |i| all[i].1)
        };
        let best = all
            .iter()
            .map(|(_, b)| *b)
            .fold(f64::NEG_INFINITY, f64::max);
        Fig10Cell {
            setup: setup.id.to_string(),
            removal_correlation: *corr,
            selected: pick(SelectionStrategy::BestValLoss),
            selected_suspected: pick(SelectionStrategy::SuspectedBiasRanking),
            best: if best.is_finite() { best } else { f64::NAN },
            all_models: all,
        }
    })
}

/// One Fig. 11/12 timing row.
#[derive(Clone, Debug)]
pub struct TimingCell {
    pub dataset: String,
    pub setup: String,
    pub model_class: String,
    pub path: String,
    pub train_seconds: f64,
    /// Completion time without euclidean replacement.
    pub completion_seconds: f64,
    /// Completion time with euclidean replacement forced on.
    pub completion_nn_seconds: f64,
    pub synthesized_tuples: usize,
}
impl_to_json!(TimingCell {
    dataset,
    setup,
    model_class,
    path,
    train_seconds,
    completion_seconds,
    completion_nn_seconds,
    synthesized_tuples
});

/// Runs the Fig. 11/12 timing measurements: per setup, train AR and SSAR
/// models and time the completion of one path with and without nearest-
/// neighbor replacement.
pub fn run_timings(setups: &[Setup], scale: f64, seed: u64) -> Vec<TimingCell> {
    let mut jobs = Vec::new();
    for (i, setup) in setups.iter().enumerate() {
        for ssar in [false, true] {
            jobs.push((setup.clone(), ssar, seed.wrapping_add(i as u64 * 17)));
        }
    }
    parallel_map(jobs, |(setup, ssar, s)| {
        let sc = build_scenario(setup, 0.4, 0.4, scale, *s);
        let train = if *ssar {
            eval_train_config().ssar()
        } else {
            eval_train_config()
        };
        let mut cell = TimingCell {
            dataset: format!("{:?}", setup.dataset),
            setup: setup.id.to_string(),
            model_class: if *ssar { "SSAR" } else { "AR" }.to_string(),
            path: String::new(),
            train_seconds: f64::NAN,
            completion_seconds: f64::NAN,
            completion_nn_seconds: f64::NAN,
            synthesized_tuples: 0,
        };
        let Some(model) = first_path_model(&sc, &train, *s) else {
            return cell;
        };
        cell.path = model.path().describe();
        cell.train_seconds = model.train_seconds;
        let timed = |mode| {
            let started = Instant::now();
            let out = complete_scenario(&sc, &model, mode, *s ^ 0x71e5).ok()?;
            Some((started.elapsed().as_secs_f64(), out.n_synthesized()))
        };
        if let Some((seconds, synthesized)) = timed(ReplacementMode::Never) {
            cell.completion_seconds = seconds;
            cell.synthesized_tuples = synthesized;
        }
        if let Some((seconds, _)) = timed(ReplacementMode::Always) {
            cell.completion_nn_seconds = seconds;
        }
        cell
    })
}
