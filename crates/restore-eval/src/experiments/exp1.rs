//! Exp. 1 — data completion on synthetic data (§7.2): Fig. 5a (bias
//! reductions vs predictability / skew), Fig. 5b (training loss vs
//! predictability), Fig. 5c (SSAR vs AR under fan-out predictability).

use restore_util::json_fields;

use crate::harness::{
    complete_scenario, eval_train_config, grid, scenario_bias_reduction, synthetic_scenario,
    train_synthetic_model,
};
use restore_util::parallel_map;

/// One cell of Fig. 5a / 5b.
#[derive(Clone, Debug)]
pub struct Exp1Cell {
    /// Panel: `predictability=0.6` or `zipf=1.5`.
    pub panel: String,
    pub keep_rate: f64,
    pub removal_correlation: f64,
    pub bias_reduction: f64,
    /// Held-out NLL of the target attribute (Fig. 5b uses this).
    pub val_loss: f32,
    /// Final training loss.
    pub train_loss: f32,
}
json_fields!(Exp1Cell {
    panel,
    keep_rate,
    removal_correlation,
    bias_reduction,
    val_loss,
    train_loss
});

/// Configuration of the Fig. 5a sweep.
#[derive(Clone, Debug)]
pub struct Exp1Config {
    pub predictabilities: Vec<f64>,
    pub zipfs: Vec<f64>,
    pub keeps: Vec<f64>,
    pub corrs: Vec<f64>,
    pub n_parent: usize,
    pub seed: u64,
}

impl Default for Exp1Config {
    fn default() -> Self {
        Self {
            predictabilities: vec![0.2, 0.4, 0.6, 0.8, 1.0],
            zipfs: vec![1.0, 1.5, 2.0, 2.5, 3.0],
            keeps: vec![0.2, 0.4, 0.6, 0.8],
            corrs: vec![0.2, 0.4, 0.6, 0.8],
            n_parent: 200,
            seed: 7,
        }
    }
}

#[derive(Clone)]
enum Panel {
    Predictability(f64),
    Zipf(f64),
}

/// Runs the Fig. 5a/5b sweep and returns one row per cell.
pub fn run_exp1(cfg: &Exp1Config) -> Vec<Exp1Cell> {
    let predictability = cfg
        .predictabilities
        .iter()
        .map(|&p| Panel::Predictability(p));
    let skew = cfg.zipfs.iter().map(|&z| Panel::Zipf(z));
    let panels: Vec<Panel> = predictability.chain(skew).collect();
    let jobs = grid(&panels, &cfg.keeps, &cfg.corrs);
    parallel_map(jobs, |(panel, keep, corr, id)| {
        let seed = cfg.seed.wrapping_add(id.wrapping_mul(0x9e37_79b9));
        let (pred, zipf, label) = match panel {
            Panel::Predictability(p) => (*p, None, format!("predictability={p}")),
            // The skew panels fix predictability at 80% (as in the paper).
            Panel::Zipf(z) => (0.8, Some(*z), format!("zipf={z}")),
        };
        let sc = synthetic_scenario(pred, zipf, None, cfg.n_parent, *keep, *corr, seed);
        let cell = |br: f64, val: f32, train: f32| Exp1Cell {
            panel: label.clone(),
            keep_rate: *keep,
            removal_correlation: *corr,
            bias_reduction: br,
            val_loss: val,
            train_loss: train,
        };
        let model = match train_synthetic_model(&sc, &eval_train_config(), seed) {
            Ok(m) => m,
            Err(_) => return cell(f64::NAN, f32::NAN, f32::NAN),
        };
        let out = match complete_scenario(&sc, &model, seed ^ 0xc0ffee) {
            Ok(o) => o,
            Err(_) => return cell(f64::NAN, model.target_val_loss(), f32::NAN),
        };
        cell(
            scenario_bias_reduction(&sc, &out.join, true),
            model.target_val_loss(),
            model.train_losses.last().copied().unwrap_or(f32::NAN),
        )
    })
}

/// One point of Fig. 5c.
#[derive(Clone, Debug)]
pub struct FanoutCell {
    pub fanout_predictability: f64,
    pub ar_bias_reduction: f64,
    pub ssar_bias_reduction: f64,
    /// `ssar − ar` — the y-axis of Fig. 5c.
    pub improvement: f64,
}
json_fields!(FanoutCell {
    fanout_predictability,
    ar_bias_reduction,
    ssar_bias_reduction,
    improvement
});

/// Runs the Fig. 5c sweep: `B` follows a latent per-parent group value that
/// only self-evidence (available siblings) reveals; plain AR models cannot
/// exploit it, SSAR models can.
pub fn run_exp1_fanout(coherences: &[f64], n_parent: usize, seed: u64) -> Vec<FanoutCell> {
    let jobs: Vec<(f64, u64)> = coherences
        .iter()
        .enumerate()
        .map(|(i, &q)| (q, seed.wrapping_add(i as u64 * 31)))
        .collect();
    parallel_map(jobs, |(q, s)| {
        let sc = synthetic_scenario(0.0, None, Some(*q), n_parent, 0.5, 0.5, *s);
        let br_of = |train: &restore_core::TrainConfig| -> f64 {
            let Ok(model) = train_synthetic_model(&sc, train, *s) else {
                return f64::NAN;
            };
            let Ok(out) = complete_scenario(&sc, &model, *s ^ 0xc0ffee) else {
                return f64::NAN;
            };
            scenario_bias_reduction(&sc, &out.join, true)
        };
        let ar = br_of(&eval_train_config());
        let ssar = br_of(&eval_train_config().ssar());
        FanoutCell {
            fanout_predictability: *q,
            ar_bias_reduction: ar,
            ssar_bias_reduction: ssar,
            improvement: ssar - ar,
        }
    })
}
