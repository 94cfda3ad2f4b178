//! Exp. 2 — data completion on the real-world schemas (§7.3): Fig. 7a
//! (bias reductions per setup) and Fig. 7b (cardinality corrections).
//!
//! Following §7.2 ("unless otherwise stated, we report the metrics for an
//! optimal model and path selection"), each cell tries the candidate
//! completion paths and reports the best completion; the test-loss
//! selection is evaluated separately in Fig. 10.

use restore_util::json_fields;

use restore_core::{ReStore, RestoreConfig};
use restore_data::{build_scenario, Setup};

use crate::harness::{eval_train_config, grid, scenario_bias_reduction};
use crate::metrics::cardinality_correction;
use restore_util::parallel_map;

/// One cell of Fig. 7a/7b.
#[derive(Clone, Debug)]
pub struct Exp2Cell {
    pub setup: String,
    pub keep_rate: f64,
    pub removal_correlation: f64,
    /// Bias reduction under optimal path selection (as reported in Fig. 7).
    pub bias_reduction: f64,
    pub cardinality_correction: f64,
    /// The path achieving the reported bias reduction.
    pub path: String,
    /// Bias reduction of every candidate path (diagnostics / Fig. 10 input).
    pub per_path: Vec<(String, f64)>,
    pub error: Option<String>,
}
json_fields!(Exp2Cell {
    setup,
    keep_rate,
    removal_correlation,
    bias_reduction,
    cardinality_correction,
    path,
    per_path,
    error
});

/// Runs the Fig. 7 sweep over the given setups × keep rates × correlations.
pub fn run_exp2(
    setups: &[Setup],
    keeps: &[f64],
    corrs: &[f64],
    scale: f64,
    seed: u64,
    ssar: bool,
) -> Vec<Exp2Cell> {
    parallel_map(
        grid(setups, keeps, corrs),
        |&(ref setup, keep, corr, id)| {
            let seed = seed.wrapping_add(id.wrapping_mul(7919));
            let sc = build_scenario(setup, keep, corr, scale, seed);
            let mut cell = Exp2Cell {
                setup: setup.id.to_string(),
                keep_rate: keep,
                removal_correlation: corr,
                bias_reduction: f64::NAN,
                cardinality_correction: f64::NAN,
                path: String::new(),
                per_path: Vec::new(),
                error: None,
            };

            let cfg = RestoreConfig {
                train: if ssar {
                    eval_train_config().ssar()
                } else {
                    eval_train_config()
                },
                ..RestoreConfig::default()
            };
            let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
            for t in &sc.incomplete_tables {
                rs.mark_incomplete(t.clone());
            }

            let target = &sc.bias.table;
            let n_complete = sc.complete.table(target).unwrap().n_rows();
            let n_incomplete = sc.incomplete.table(target).unwrap().n_rows();

            let candidates: Vec<Vec<String>> = rs
                .candidate_paths(target)
                .iter()
                .map(|p| p.tables().to_vec())
                .collect();
            if candidates.is_empty() {
                cell.error = Some("no completion path".into());
                return cell;
            }

            let mut last_err = None;
            for tables in candidates {
                if let Err(e) = rs.set_selected_path(target, &tables, seed) {
                    last_err = Some(e.to_string());
                    continue;
                }
                // Sealed per candidate: the forced path above is what it serves.
                let completed = match rs.seal(seed).completed_table(target, seed) {
                    Ok(t) => t,
                    Err(e) => {
                        last_err = Some(e.to_string());
                        continue;
                    }
                };
                let br = scenario_bias_reduction(&sc, &completed, false);
                let cc = cardinality_correction(n_complete, n_incomplete, completed.n_rows());
                cell.per_path.push((tables.join("→"), br));
                if cell.bias_reduction.is_nan() || br > cell.bias_reduction {
                    cell.bias_reduction = br;
                    cell.cardinality_correction = cc;
                    cell.path = tables.join("→");
                }
            }
            if cell.bias_reduction.is_nan() {
                cell.error = last_err.or(Some("all candidate paths failed".into()));
            }
            cell
        },
    )
}
