//! Confidence-interval experiments: Fig. 6 (synthetic, removal correlation
//! 40%), Fig. 13 (synthetic, all correlations) and Fig. 14 (real-world
//! categorical setups).

use restore_util::impl_to_json;

use restore_core::{
    confidence_interval, ConfidenceInterval, ConfidenceQuery, ReStore, ReplacementMode,
    RestoreConfig, SelectionStrategy,
};
use restore_data::{build_scenario, setup_by_id, Scenario};

use crate::harness::{
    complete_scenario, eval_completer_config, eval_train_config, grid, scenario_stat,
    synthetic_scenario, train_synthetic_model,
};
use restore_util::parallel_map;

/// One confidence cell: predicted bounds vs the true fraction.
#[derive(Clone, Debug)]
pub struct ConfidenceCell {
    pub panel: String,
    pub predictability: f64,
    pub keep_rate: f64,
    pub removal_correlation: f64,
    pub ci_lo: f64,
    pub ci_hi: f64,
    pub estimate: f64,
    pub true_fraction: f64,
    pub theoretical_min: f64,
    pub theoretical_max: f64,
    /// Whether the true fraction falls inside the predicted interval.
    pub covered: bool,
}
impl_to_json!(ConfidenceCell {
    panel,
    predictability,
    keep_rate,
    removal_correlation,
    ci_lo,
    ci_hi,
    estimate,
    true_fraction,
    theoretical_min,
    theoretical_max,
    covered
});

impl ConfidenceCell {
    /// The cell for `truth` and the interval computed for it — or, when
    /// there is none, the reason in the panel name.
    fn new(
        panel: &str,
        predictability: f64,
        keep_rate: f64,
        removal_correlation: f64,
        truth: f64,
        ci: Result<ConfidenceInterval, String>,
    ) -> Self {
        let (panel, ci) = match ci {
            Ok(ci) => (panel.to_string(), ci),
            Err(msg) => {
                let none = ConfidenceInterval {
                    lo: f64::NAN,
                    hi: f64::NAN,
                    estimate: f64::NAN,
                    theoretical: None,
                };
                (format!("{panel} failed: {msg}"), none)
            }
        };
        let (theoretical_min, theoretical_max) = ci.theoretical.unwrap_or((f64::NAN, f64::NAN));
        Self {
            panel,
            predictability,
            keep_rate,
            removal_correlation,
            ci_lo: ci.lo,
            ci_hi: ci.hi,
            estimate: ci.estimate,
            true_fraction: truth,
            theoretical_min,
            theoretical_max,
            covered: ci.lo - 0.02 <= truth && truth <= ci.hi + 0.02,
        }
    }
}

/// Runs the synthetic confidence sweep (Figs. 6 and 13).
pub fn run_confidence_synthetic(
    predictabilities: &[f64],
    keeps: &[f64],
    corrs: &[f64],
    n_parent: usize,
    seed: u64,
) -> Vec<ConfidenceCell> {
    parallel_map(grid(predictabilities, keeps, corrs), |&(p, k, c, id)| {
        let s = seed.wrapping_add(id.wrapping_mul(0x517c_c1e5));
        let sc = synthetic_scenario(p, None, None, n_parent, k, c, s);
        let truth = scenario_stat(&sc, sc.complete.table("tb").unwrap(), false);
        let ci = synthetic_interval(&sc, s).map_err(String::from);
        ConfidenceCell::new("synthetic", p, k, c, truth, ci)
    })
}

/// Trains, completes and computes the §6 interval of one synthetic cell;
/// the error names the stage that failed.
fn synthetic_interval(sc: &Scenario, seed: u64) -> Result<ConfidenceInterval, &'static str> {
    let model = train_synthetic_model(sc, &eval_train_config(), seed).map_err(|_| "train")?;
    let out = complete_scenario(sc, &model, ReplacementMode::Auto, seed ^ 0xc0ffee)
        .map_err(|_| "complete")?;
    let q = ConfidenceQuery::CountFraction {
        table: "tb".into(),
        column: "b".into(),
        value: sc.bias_value.clone().unwrap_or_default(),
    };
    let batch_size = eval_completer_config().batch_size;
    confidence_interval(&model, &sc.incomplete, &out, &q, 0.95, batch_size).map_err(|_| "ci")
}

/// Runs the real-world confidence sweep (Fig. 14) over the categorical
/// setups H2, H3, M2, M3, M5.
pub fn run_confidence_real(
    setups: &[&str],
    keeps: &[f64],
    corrs: &[f64],
    scale: f64,
    seed: u64,
) -> Vec<ConfidenceCell> {
    parallel_map(grid(setups, keeps, corrs), |&(setup_id, k, c, id)| {
        let s = seed.wrapping_add(id.wrapping_mul(0xfa14_70e5));
        let setup = setup_by_id(setup_id).expect("known setup id");
        let sc = build_scenario(&setup, k, c, scale, s);
        let truth = scenario_stat(&sc, sc.complete.table(&sc.bias.table).unwrap(), false);
        let cfg = RestoreConfig {
            train: eval_train_config(),
            strategy: SelectionStrategy::BestValLoss,
            max_candidates: 2,
            completer: eval_completer_config(),
            ..RestoreConfig::default()
        };
        let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
        for t in &sc.incomplete_tables {
            rs.mark_incomplete(t.clone());
        }
        let q = ConfidenceQuery::CountFraction {
            table: sc.bias.table.clone(),
            column: sc.bias.column.clone(),
            value: sc.bias_value.clone().unwrap_or_default(),
        };
        // Sealed per cell: the serve seed is what resamples the synthesized
        // tuples. A cell that fails reports why training failed, if it did.
        let tables = std::slice::from_ref(&sc.bias.table);
        let ci = rs.ensure_query_models(tables, s).and_then(|train_err| {
            let ci = rs.seal(s).confidence(tables, &q, 0.95, s);
            ci.map_err(|e| train_err.unwrap_or(e))
        });
        let ci = ci.map_err(|e| e.to_string());
        ConfidenceCell::new(setup_id, f64::NAN, k, c, truth, ci)
    })
}
