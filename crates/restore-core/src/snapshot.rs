//! The serving half of the ReStore lifecycle: an immutable, shareable
//! [`Snapshot`] of everything the system learned at build time — the only
//! type that answers a query.
//!
//! After annotate → train → select, nothing mutates — the database, the
//! trained models, and the selected paths are all frozen. [`Snapshot`]
//! captures that frozen state so *every* serving method takes `&self` and
//! is safe to call from any number of threads over one `Arc<Snapshot>`.
//! A snapshot comes from [`ReStore::seal`](crate::restore::ReStore::seal)
//! or from [`Snapshot::from_bytes`]; both fix its serve seed.
//! The only interior mutability is the completion cache, which is
//! thread-safe and single-flight: concurrent queries needing the same cold
//! completion path block on one synthesis instead of racing duplicates.
//!
//! **Determinism contract.** A query's result is a pure function of
//! `(snapshot, query, seed)` — never of scheduling, of what other threads
//! are executing, or of what the cache held before. Three ingredients make
//! this hold:
//!
//! 1. every per-query random choice (row thinning, projection) draws from
//!    an RNG seeded only by the query seed,
//! 2. the synthesis seed of a completion path is derived from the
//!    snapshot's fixed serve seed and the path itself — so whichever
//!    thread happens to populate the cache, the cached join is the same,
//!    and
//! 3. a cold query draws only the columns it reads, and an entry answers
//!    only a read it drew enough for — in the same bits: a sampling batch
//!    consumes its RNG attribute by attribute.
//!
//! So the *serve* seed resamples the synthesized tuples and the *query*
//! seed only drives the §4.4 thinning: on a chain with nothing to thin,
//! every query seed gives the same bits.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use restore_db::{execute_on_join, Database, Query, QueryResult, Table, TableView};
use restore_util::{derive_seed, Fnv64};

use crate::annotation::{modeled_columns, SchemaAnnotation};
use crate::cache::{CacheStats, JoinCache};
use crate::completion::{Completer, CompletionOutput};
use crate::confidence::{confidence_interval, ConfidenceInterval, ConfidenceQuery};
use crate::error::{CoreError, CoreResult};
use crate::model::CompletionModel;
use crate::paths::{enumerate_paths, CompletionPath};
use crate::restore::RestoreConfig;
use crate::selection::SuspectedBias;

/// Stable fingerprint of an ordered table chain (FNV-1a over the names) —
/// the per-path component of the sealed synthesis seed.
fn path_fingerprint(tables: &[String]) -> u64 {
    let mut h = Fnv64::new();
    for name in tables {
        h.update(name.as_bytes());
        // Separator so ["ab"] and ["a","b"] differ.
        h.update(&[0x1f]);
    }
    h.finish()
}

/// An immutable, `Arc`-shareable serving snapshot: incomplete database +
/// trained models + selected paths + annotation, with a thread-safe
/// single-flight completion cache. Every serving method takes `&self`.
pub struct Snapshot {
    pub(crate) db: Arc<Database>,
    pub(crate) annotation: SchemaAnnotation,
    pub(crate) config: RestoreConfig,
    pub(crate) models: BTreeMap<Vec<String>, Arc<CompletionModel>>,
    /// The build's ranking, a diagnostic: `execution_chain` picks what serves.
    pub(crate) selected: BTreeMap<String, Vec<String>>,
    /// Paths bound at build time by the user or by their suspected-bias hint.
    pub(crate) forced: BTreeMap<String, Vec<String>>,
    /// Suspected-bias hints registered at build time (§5). Frozen into the
    /// snapshot (and persisted) so a rebuild re-ranks candidates under the
    /// same hints instead of silently dropping them.
    pub(crate) suspected: Vec<SuspectedBias>,
    pub(crate) cache: JoinCache,
    /// Synthesis seeds derive from `(serve_seed, path)`.
    pub(crate) serve_seed: u64,
}

impl Snapshot {
    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn annotation(&self) -> &SchemaAnnotation {
        &self.annotation
    }

    pub fn config(&self) -> &RestoreConfig {
        &self.config
    }

    /// The serve seed this snapshot was sealed with.
    pub fn serve_seed(&self) -> u64 {
        self.serve_seed
    }

    /// Cache counters (§4.5 instrumentation), single-flight waits and
    /// evictions included.
    pub fn full_cache_stats(&self) -> CacheStats {
        self.cache.full_stats()
    }

    /// All completed joins currently cached (diagnostics). An entry may
    /// have drawn fewer columns than [`Snapshot::complete_join`] does, and
    /// holds NULL in the rest of its synthesized rows.
    pub fn cached_completions(&self) -> Vec<(Vec<String>, Arc<CompletionOutput>)> {
        self.cache.entries()
    }

    /// All models frozen into the snapshot, in chain order.
    pub fn trained_models(&self) -> Vec<Arc<CompletionModel>> {
        self.models.values().cloned().collect()
    }

    /// The model selected for an incomplete table, if trained.
    pub fn selected_model(&self, table: &str) -> Option<Arc<CompletionModel>> {
        let path = self.selected.get(table)?;
        self.models.get(path).cloned()
    }

    /// The frozen model for an exact path. Serving never trains: a path
    /// nobody trained at build time is a [`CoreError::NoModel`].
    pub fn model_for_path(&self, tables: &[String]) -> CoreResult<Arc<CompletionModel>> {
        self.models.get(tables).cloned().ok_or_else(|| {
            CoreError::NoModel(format!(
                "no trained model for path {tables:?} (train it before sealing the snapshot)"
            ))
        })
    }

    /// Executes a query over the incomplete data as-is (the baseline the
    /// paper compares against).
    pub fn execute_without_completion(&self, query: &Query) -> CoreResult<QueryResult> {
        restore_db::execute(&self.db, query).map_err(CoreError::from)
    }

    /// Executes a query with data completion: the ReStore answer.
    pub fn execute(&self, query: &Query, seed: u64) -> CoreResult<QueryResult> {
        let needs_completion = query
            .tables
            .iter()
            .any(|t| self.annotation.is_incomplete(t));
        if !needs_completion {
            return self.execute_without_completion(query);
        }
        let focus = query_focus_columns(query);
        // An aggregate reads the columns it names; a query without one
        // returns its rows, every column of them.
        let read = (!query.aggregates.is_empty()).then_some(&focus[..]);
        // Every query runs in place, over a view of what its cache entry
        // holds. A single-table query sees the completed relation: all real
        // rows plus the synthesized ones this seed's reweighting keeps.
        if let [table] = &query.tables[..] {
            let answer = self.with_completed(table, &focus, read, seed, |view| {
                execute_on_join(view, query)
            })?;
            return answer.map_err(CoreError::from);
        }
        // A join query sees the cached join: the query tables' columns, and
        // the rows this seed's §4.4 thinning keeps when the chain carries
        // extra evidence tables.
        let chain = self.execution_chain(&query.tables, &focus)?;
        let out = self.completion(&chain, read)?;
        let mut view = TableView::from(&out.join);
        let projection = out.projection(&query.tables, || self.cache.recharge(&chain))?;
        let rows;
        if let Some(projection) = &projection {
            rows = projection.rows(&mut StdRng::seed_from_u64(seed ^ 0x9e37));
            view.cols = Some(&projection.cols);
            view.rows = Some(&rows);
        }
        execute_on_join(view, query).map_err(CoreError::from)
    }

    /// Completes the join over an ordered table chain (Algorithm 1) with
    /// §4.5 caching and single-flight deduplication. Calling it ahead of
    /// the first query is §4.5 offline completion.
    pub fn complete_join(&self, tables: &[String]) -> CoreResult<Arc<CompletionOutput>> {
        self.completion(tables, None)
    }

    /// [`Snapshot::complete_join`] for a read of the bare column names
    /// `focus` (`None`: every column): the cached completion if it drew what
    /// the read needs, else a synthesis that draws just that.
    fn completion(
        &self,
        tables: &[String],
        focus: Option<&[String]>,
    ) -> CoreResult<Arc<CompletionOutput>> {
        let model = self.model_for_path(tables)?;
        let need = model.last_columns_read(focus);
        // The synthesis seed derives from (serve seed, path), so the cached
        // join never depends on which query — or which thread — populated
        // the cache.
        let synth_seed = derive_seed(self.serve_seed, path_fingerprint(tables));
        self.cache.get_or_compute(tables, need, || {
            let completer = Completer::new(&self.db, &self.annotation)
                .with_config(self.config.completer.clone());
            let out = completer.complete_drawing(&model, synth_seed ^ 0xc0de, need)?;
            Ok(Arc::new(out))
        })
    }

    /// Completes a single incomplete table and returns it in the table's
    /// own schema: all real rows survive as-is, synthesized rows are taken
    /// from the completed chain join and thinned by the evidence
    /// multiplicity (the §4.4 reweighting — an n:1 evidence step visits a
    /// target tuple once per evidence row).
    pub fn completed_table(&self, table: &str, seed: u64) -> CoreResult<Table> {
        self.completed_table_focused(table, &[], seed)
    }

    /// [`Snapshot::completed_table`] with query-aware path selection: the
    /// candidate whose held-out NLL on the `focus` attributes is lowest
    /// wins (§5 — the significance of evidence depends on the query).
    pub fn completed_table_focused(
        &self,
        table: &str,
        focus: &[String],
        seed: u64,
    ) -> CoreResult<Table> {
        self.with_completed(table, focus, None, seed, |view| view.materialize())
    }

    /// Runs `read` over the completed relation of `table` on the chain
    /// `focus` selects — built once per cache entry that drew the columns
    /// `columns` names (`None`: all of them) — narrowed to the rows this
    /// seed sees.
    fn with_completed<R>(
        &self,
        table: &str,
        focus: &[String],
        columns: Option<&[String]>,
        seed: u64,
        read: impl FnOnce(TableView) -> R,
    ) -> CoreResult<R> {
        let chain = self.execution_chain(&[table.to_string()], focus)?;
        let out = self.completion(&chain, columns)?;
        let relation = out.relation(self.db.table(table)?, || self.cache.recharge(&chain))?;
        let rows = relation.rows(&mut StdRng::seed_from_u64(seed ^ 0x517e));
        Ok(read(TableView {
            rows: Some(&rows),
            ..(&relation.table).into()
        }))
    }

    /// §6 confidence interval for an aggregate over the completed join of
    /// `query_tables`. The interval is a function of the snapshot alone:
    /// `_seed` is unused and stays only because `benchmark/`, which a PR
    /// that changes other code may not edit, passes four arguments.
    pub fn confidence(
        &self,
        query_tables: &[String],
        query: &ConfidenceQuery,
        level: f64,
        _seed: u64,
    ) -> CoreResult<ConfidenceInterval> {
        let focus = match query {
            ConfidenceQuery::CountFraction { column, .. }
            | ConfidenceQuery::Avg { column, .. }
            | ConfidenceQuery::Sum { column, .. } => vec![column.clone()],
        };
        let chain = self.execution_chain(query_tables, &focus)?;
        let out = self.completion(&chain, Some(&focus))?;
        let model = self.model_for_path(&chain)?;
        let batch_size = self.config.completer.batch_size;
        confidence_interval(&model, &self.db, &out, query, level, batch_size)
    }

    /// Picks the execution chain for a set of query tables among the
    /// candidates whose model is frozen in the snapshot: the chain whose
    /// model best predicts the `focus` attributes (held-out NLL) wins —
    /// the significance of evidence depends on the query (§5).
    pub(crate) fn execution_chain(
        &self,
        query_tables: &[String],
        focus: &[String],
    ) -> CoreResult<Vec<String>> {
        let (chains, mut last_err) = candidate_chains(
            &self.db,
            &self.annotation,
            &self.forced,
            &self.config,
            query_tables,
        )?;
        let mut best: Option<(f32, Vec<String>)> = None;
        for chain in chains {
            match self.models.get(&chain) {
                Some(model) => {
                    // Every chain table outside the query adds evidence
                    // multiplicity (and reweighting noise, §4.4), so
                    // near-ties go to the leaner chain.
                    let extras = chain.iter().filter(|t| !query_tables.contains(t)).count();
                    // §4.4 reweighting for extra evidence tables is far
                    // noisier than the completion itself, so covering
                    // chains win unless their evidence is much weaker.
                    let score = focus_loss(model, focus, &self.annotation, query_tables)
                        + 0.3 * extras as f32;
                    if best.as_ref().is_none_or(|(b, _)| score < *b) {
                        best = Some((score, chain));
                    }
                }
                None => {
                    last_err = Some(CoreError::NoModel(format!(
                        "no trained model for chain {chain:?}"
                    )));
                }
            }
        }
        best.map(|(_, c)| c).ok_or_else(|| {
            last_err.unwrap_or_else(|| {
                CoreError::NoPath(format!("no execution chain covers {query_tables:?}"))
            })
        })
    }
}

/// Maximum completion-path length in tables; the movie setups need 5.
pub(crate) const MAX_PATH_LEN: usize = 5;

/// The candidate completion paths of an incomplete table: the one list
/// behind what [`ReStore::train`](crate::ReStore::train) trains and ranks
/// and what [`candidate_chains`] extends.
pub(crate) fn candidate_paths(
    db: &Database,
    annotation: &SchemaAnnotation,
    config: &RestoreConfig,
    target: &str,
) -> Vec<CompletionPath> {
    let mut paths = enumerate_paths(db, annotation, target, MAX_PATH_LEN);
    paths.truncate(config.max_candidates.max(1));
    paths
}

/// Enumerates candidate execution chains for a set of query tables: a
/// candidate completion path of an incomplete query table, extended with
/// the remaining query tables along FK edges. Also returns the last
/// enumeration error (unextendable chains) for diagnostics. The build phase
/// trains these chains' models and the serve phase picks among them, so
/// both read the one enumeration.
pub(crate) fn candidate_chains(
    db: &Database,
    annotation: &SchemaAnnotation,
    forced: &BTreeMap<String, Vec<String>>,
    config: &RestoreConfig,
    query_tables: &[String],
) -> CoreResult<(Vec<Vec<String>>, Option<CoreError>)> {
    let incomplete: Vec<String> = query_tables
        .iter()
        .filter(|t| annotation.is_incomplete(t))
        .cloned()
        .collect();
    if incomplete.is_empty() {
        return Err(CoreError::Invalid("no incomplete table in query".into()));
    }
    let mut chains = Vec::new();
    let mut last_err = None;
    for anchor in &incomplete {
        let table = db.table(anchor)?;
        if modeled_columns(table).is_empty() {
            continue;
        }
        // A forced path short-circuits candidate enumeration.
        let candidates: Vec<Vec<String>> = match forced.get(anchor) {
            Some(forced) => vec![forced.clone()],
            None => candidate_paths(db, annotation, config, anchor)
                .iter()
                .map(|p| p.tables().to_vec())
                .collect(),
        };
        for mut chain in candidates {
            let mut remaining: Vec<String> = query_tables
                .iter()
                .filter(|t| !chain.contains(t))
                .cloned()
                .collect();
            // Greedily append tables connected to the chain's end.
            while !remaining.is_empty() {
                let end = chain.last().unwrap().clone();
                match remaining
                    .iter()
                    .position(|t| db.edge_between(&end, t).is_some())
                {
                    Some(i) => chain.push(remaining.remove(i)),
                    None => break,
                }
            }
            if !remaining.is_empty() {
                last_err = Some(CoreError::Invalid(format!(
                    "cannot extend chain {chain:?} with {remaining:?}"
                )));
                continue;
            }
            chains.push(chain);
        }
    }
    Ok((chains, last_err))
}

/// Bare (unqualified) column names a query reads: filter references,
/// group-by columns and aggregate inputs.
pub fn query_focus_columns(query: &Query) -> Vec<String> {
    let mut cols = Vec::new();
    if let Some(f) = &query.filter {
        f.collect_columns(&mut cols);
    }
    cols.extend(query.group_by.iter().cloned());
    for agg in &query.aggregates {
        if let Some(c) = agg.input_column() {
            cols.push(c.to_string());
        }
    }
    let mut bare: Vec<String> = cols
        .into_iter()
        .map(|c| c.rsplit('.').next().unwrap_or(&c).to_string())
        .collect();
    bare.sort();
    bare.dedup();
    bare
}

/// Mean held-out NLL of a model on the attributes the query needs to be
/// synthesized: attributes of *incomplete query tables*, preferring the
/// focus columns. Restricting to query tables keeps the score comparable
/// across chains with different evidence prefixes.
fn focus_loss(
    model: &CompletionModel,
    focus: &[String],
    annotation: &SchemaAnnotation,
    query_tables: &[String],
) -> f32 {
    let mut focus_vals = Vec::new();
    let mut all_vals = Vec::new();
    for (i, attr) in model.attrs().iter().enumerate() {
        if let crate::model::AttrKind::Column { table, column } = &attr.kind {
            if annotation.is_incomplete(table) && query_tables.iter().any(|q| q == table) {
                all_vals.push(model.val_per_attr[i]);
                if focus.iter().any(|f| f == column) {
                    focus_vals.push(model.val_per_attr[i]);
                }
            }
        }
    }
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
    if !focus_vals.is_empty() {
        mean(&focus_vals)
    } else if !all_vals.is_empty() {
        mean(&all_vals)
    } else {
        model.target_val_loss()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<Arc<Snapshot>>();
    }

    #[test]
    fn path_fingerprint_separates_paths() {
        let ab = path_fingerprint(&["a".into(), "b".into()]);
        let ba = path_fingerprint(&["b".into(), "a".into()]);
        let joined = path_fingerprint(&["ab".into()]);
        assert_ne!(ab, ba);
        assert_ne!(ab, joined);
        assert_eq!(ab, path_fingerprint(&["a".into(), "b".into()]));
    }
}
