//! Exp. 3 — end-to-end query processing (§7.4): the Table 1 workload and
//! the Fig. 8 relative-error improvements.

use restore_util::json_fields;

use restore_core::{ReStore, RestoreConfig, SelectionStrategy};
use restore_data::{build_scenario, Setup};
use restore_db::QueryResult;

use crate::harness::{eval_train_config, grid};
use crate::metrics::{group_relative_error, relative_error};
use crate::queries::queries_for_setup;
use restore_util::parallel_map;

/// One (query, keep rate, removal correlation) cell of Fig. 8.
#[derive(Clone, Debug)]
pub struct Exp3Cell {
    pub dataset: String,
    pub setup: String,
    pub query: String,
    pub sql: String,
    pub keep_rate: f64,
    pub removal_correlation: f64,
    /// Average relative error querying the incomplete data directly.
    pub err_incomplete: f64,
    /// Average relative error after ReStore's completion.
    pub err_completed: f64,
    /// `err_incomplete − err_completed` — the y-axis of Fig. 8.
    pub improvement: f64,
    pub error: Option<String>,
}
json_fields!(Exp3Cell {
    dataset,
    setup,
    query,
    sql,
    keep_rate,
    removal_correlation,
    err_incomplete,
    err_completed,
    improvement,
    error
});

/// Relative error of a query result against the ground truth: plain for
/// scalar aggregates, averaged over true groups for group-by queries.
pub fn query_error(truth: &QueryResult, estimate: &QueryResult) -> f64 {
    if truth.group_cols == 0 {
        match (truth.scalar(), estimate.scalar()) {
            (Some(t), Some(e)) => relative_error(e, t),
            (Some(_), None) => 1.0,
            _ => 0.0,
        }
    } else {
        group_relative_error(&truth.groups(), &estimate.groups(), 0)
    }
}

/// Runs the Table 1 workload for the given setups over the sweep grid.
pub fn run_exp3(
    setups: &[Setup],
    keeps: &[f64],
    corrs: &[f64],
    scale: f64,
    seed: u64,
) -> Vec<Exp3Cell> {
    let jobs = grid(setups, keeps, corrs);
    let results: Vec<Vec<Exp3Cell>> = parallel_map(jobs, |&(ref setup, keep, corr, id)| {
        let seed = seed.wrapping_add(id.wrapping_mul(104729));
        let sc = build_scenario(setup, keep, corr, scale, seed);
        let dataset = format!("{:?}", setup.dataset);

        let cfg = RestoreConfig {
            train: eval_train_config(),
            strategy: SelectionStrategy::BestValLoss,
            max_candidates: 3,
            ..RestoreConfig::default()
        };
        let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
        for t in &sc.incomplete_tables {
            rs.mark_incomplete(t.clone());
        }

        // Build phase: train the candidate models every workload query needs,
        // then seal into an immutable snapshot — queries are then served
        // through the same `&self` path a concurrent server would use.
        let queries = queries_for_setup(setup.id);
        let train_errors: Vec<Option<String>> = queries
            .iter()
            .map(|wq| match rs.ensure_query_models(&wq.query.tables, seed) {
                Ok(last) => last.map(|e| e.to_string()),
                Err(e) => Some(e.to_string()),
            })
            .collect();
        let snap = rs.seal(seed);

        queries
            .into_iter()
            .zip(train_errors)
            .map(|(wq, train_err)| {
                let mut cell = Exp3Cell {
                    dataset: dataset.clone(),
                    setup: setup.id.to_string(),
                    query: wq.id.to_string(),
                    sql: wq.sql.to_string(),
                    keep_rate: keep,
                    removal_correlation: corr,
                    err_incomplete: f64::NAN,
                    err_completed: f64::NAN,
                    improvement: f64::NAN,
                    error: None,
                };
                let truth = match restore_db::execute(&sc.complete, &wq.query) {
                    Ok(t) => t,
                    Err(e) => {
                        cell.error = Some(format!("truth: {e}"));
                        return cell;
                    }
                };
                let incomplete = match snap.execute_without_completion(&wq.query) {
                    Ok(r) => r,
                    Err(e) => {
                        cell.error = Some(format!("incomplete: {e}"));
                        return cell;
                    }
                };
                cell.err_incomplete = query_error(&truth, &incomplete);
                match snap.execute(&wq.query, seed) {
                    Ok(r) => {
                        cell.err_completed = query_error(&truth, &r);
                        cell.improvement = cell.err_incomplete - cell.err_completed;
                    }
                    Err(e) => {
                        // Only a missing model is explained by a build-time
                        // training failure; other errors stand on their own.
                        let msg = match (&e, train_err) {
                            (restore_core::CoreError::NoModel(_), Some(t)) => t,
                            _ => e.to_string(),
                        };
                        cell.error = Some(format!("completed: {msg}"));
                    }
                }
                cell
            })
            .collect()
    });
    results.into_iter().flatten().collect()
}
