//! Exp. 4 — accuracy and performance aspects (§7.5): Fig. 9 (AR vs SSAR
//! bias-reduction distributions), Fig. 10 (model/path selection quality),
//! Fig. 11 (training time) and Fig. 12 (completion time per path).

use std::sync::Arc;
use std::time::Instant;

use restore_util::impl_to_json;

use restore_core::{
    enumerate_paths, score_candidates, BiasDirection, Completer, CompleterConfig, CompletionModel,
    ReplacementMode, SchemaAnnotation, SelectionStrategy, SuspectedBias, TrainConfig,
};
use restore_data::{build_scenario, Scenario, Setup};

use crate::harness::{eval_completer_config, eval_train_config, stat_of};
use crate::metrics::bias_reduction;
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

/// Trains a model on a scenario path and measures the bias reduction of
/// the completed biased attribute. Returns `(bias_reduction, model)`.
fn complete_and_score(
    sc: &Scenario,
    model: &CompletionModel,
    seed: u64,
    replacement: ReplacementMode,
) -> f64 {
    let ann = SchemaAnnotation::with_incomplete(sc.incomplete_tables.iter().map(String::as_str));
    let cfg = CompleterConfig {
        replacement,
        ..eval_completer_config()
    };
    let completer = Completer::new(&sc.incomplete, &ann).with_config(cfg);
    let Ok(out) = completer.complete(model, seed ^ 0xf19) else {
        return f64::NAN;
    };
    let target = &sc.bias.table;
    let value = sc.bias_value.as_deref();
    let truth = stat_of(sc.complete.table(target).unwrap(), &sc.bias.column, value);
    let inc = stat_of(sc.incomplete.table(target).unwrap(), &sc.bias.column, value);
    let comp = stat_of(&out.join, &format!("{target}.{}", sc.bias.column), value);
    bias_reduction(truth, inc, comp)
}

fn first_path_model(
    sc: &Scenario,
    train: &TrainConfig,
    max_len: usize,
    seed: u64,
) -> Option<CompletionModel> {
    let ann = SchemaAnnotation::with_incomplete(sc.incomplete_tables.iter().map(String::as_str));
    let paths = enumerate_paths(&sc.incomplete, &ann, &sc.bias.table, max_len);
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
        let br = first_path_model(&sc, &train, 5, s)
            .map(|m| complete_and_score(&sc, &m, s, ReplacementMode::Auto))
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
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for setup in setups {
        for &c in corrs {
            jobs.push((setup.clone(), c, id));
            id += 1;
        }
    }
    parallel_map(jobs, |(setup, corr, id)| {
        let s = seed.wrapping_add(id.wrapping_mul(12289));
        let sc = build_scenario(setup, 0.4, *corr, scale, s);
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
            let br = complete_and_score(&sc, &m, s, ReplacementMode::Auto);
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
        let dataset = if setup.id.starts_with('H') {
            "Housing"
        } else {
            "Movies"
        };
        let sc = build_scenario(setup, 0.4, 0.4, scale, *s);
        let train = if *ssar {
            eval_train_config().ssar()
        } else {
            eval_train_config()
        };
        let mut cell = TimingCell {
            dataset: dataset.to_string(),
            setup: setup.id.to_string(),
            model_class: if *ssar { "SSAR" } else { "AR" }.to_string(),
            path: String::new(),
            train_seconds: f64::NAN,
            completion_seconds: f64::NAN,
            completion_nn_seconds: f64::NAN,
            synthesized_tuples: 0,
        };
        let Some(model) = first_path_model(&sc, &train, 5, *s) else {
            return cell;
        };
        cell.path = model.path().describe();
        cell.train_seconds = model.train_seconds;
        let ann =
            SchemaAnnotation::with_incomplete(sc.incomplete_tables.iter().map(String::as_str));
        for (mode, slot) in [
            (ReplacementMode::Never, 0usize),
            (ReplacementMode::Always, 1usize),
        ] {
            let cfg = CompleterConfig {
                replacement: mode,
                ..eval_completer_config()
            };
            let completer = Completer::new(&sc.incomplete, &ann).with_config(cfg);
            let started = Instant::now();
            if let Ok(out) = completer.complete(&model, *s ^ 0x71e5) {
                let elapsed = started.elapsed().as_secs_f64();
                if slot == 0 {
                    cell.completion_seconds = elapsed;
                    cell.synthesized_tuples = out.n_synthesized();
                } else {
                    cell.completion_nn_seconds = elapsed;
                }
            }
        }
        cell
    })
}
