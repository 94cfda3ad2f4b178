//! The [`ReStore`] builder: annotate → train (Fig. 1), then
//! [`ReStore::seal`] → [`Snapshot`] for complete → query.
//!
//! [`ReStore`] is the *build phase* of the lifecycle: it owns the mutable
//! state (annotations, bias hints, trained models, selected and forced
//! paths) and answers no query. [`ReStore::seal`] freezes the build into an
//! immutable [`Snapshot`], the only type that serves — all of its methods
//! take `&self`, so it is the type to share across threads in a server.
//!
//! One function trains: `ReStore::models_for_paths` (a list of chains, side
//! by side; [`ReStore::model_for_path`] is its one-chain call), under the
//! caller's seed as given and never a chain that is already there — so
//! neither who asks ([`ReStore::train`] for every candidate path, which
//! [`score_candidates`] then ranks; [`ReStore::ensure_query_models`] for
//! the chains of a query shape; [`ReStore::rebuild_from`] for the chains of
//! a snapshot) nor the order of the calls decides a chain's weights.
//!
//! Queries over incomplete tables are answered by (1) building an
//! *execution chain* — a candidate completion path of the incomplete
//! table, extended by the remaining query tables, (2) running Algorithm 1
//! over the chain, (3) projecting the completed join onto the query tables
//! (with the §4.4 reweighting when the chain contains additional evidence
//! tables), and (4) executing the filter/aggregate tail with normal
//! operators. The builder trains the models of step (1)'s candidates; the
//! snapshot picks among them per query and does the rest.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use restore_db::Database;
use restore_util::parallel_map_workers;

use crate::annotation::{modeled_columns, SchemaAnnotation};
use crate::cache::JoinCache;
use crate::completion::CompleterConfig;
use crate::error::{CoreError, CoreResult};
use crate::model::{CompletionModel, TrainConfig};
use crate::paths::CompletionPath;
use crate::selection::{score_candidates, CandidateScore, SelectionStrategy, SuspectedBias};
use crate::snapshot::{candidate_chains, candidate_paths, Snapshot};

/// Configuration of a ReStore build and of the snapshots sealed from it.
#[derive(Clone, Debug)]
pub struct RestoreConfig {
    pub train: TrainConfig,
    pub completer: CompleterConfig,
    /// Candidate completion paths per incomplete table, shortest first (at
    /// least one): what [`ReStore::train`] trains and ranks and what a
    /// snapshot picks among per query. `1` is "the shortest path only".
    pub max_candidates: usize,
    pub strategy: SelectionStrategy,
    /// Approximate memory budget of a snapshot's completed-join cache in
    /// bytes; least-recently-used completions are evicted beyond it (`0` =
    /// unbounded). Sized from
    /// [`CompletionOutput::approx_bytes`](crate::CompletionOutput::approx_bytes).
    /// Evicting is safe because synthesis seeds are path-derived: a
    /// re-synthesized join is bit-identical to the evicted one.
    pub cache_budget_bytes: usize,
}

impl Default for RestoreConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            completer: CompleterConfig::default(),
            max_candidates: 3,
            strategy: SelectionStrategy::default(),
            cache_budget_bytes: 1 << 30,
        }
    }
}

/// Output of [`ReStore::train`]; [`ReStore::selected_model`] returns each
/// table's winner.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Candidate scores per incomplete table (for Fig. 10-style analysis).
    pub candidates: HashMap<String, Vec<CandidateScore>>,
}

/// The ReStore build phase: an incomplete database, its annotation and the
/// completion models trained so far. It answers no query — [`ReStore::seal`]
/// produces the immutable, shareable [`Snapshot`] that does.
pub struct ReStore {
    db: Arc<Database>,
    annotation: SchemaAnnotation,
    config: RestoreConfig,
    models: BTreeMap<Vec<String>, Arc<CompletionModel>>,
    /// The build's ranking: reported and persisted, read by no serving path.
    selected: BTreeMap<String, Vec<String>>,
    /// Paths that bind the serving side: set by [`ReStore::set_selected_path`]
    /// or ranked first by [`ReStore::train`] under the user's bias hint.
    forced: BTreeMap<String, Vec<String>>,
    suspected: Vec<SuspectedBias>,
}

impl ReStore {
    pub fn new(db: Database, config: RestoreConfig) -> Self {
        Self {
            db: Arc::new(db),
            annotation: SchemaAnnotation::new(),
            config,
            models: BTreeMap::new(),
            selected: BTreeMap::new(),
            forced: BTreeMap::new(),
            suspected: Vec::new(),
        }
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Annotates a table as incomplete (§2.2, step 1). A model is a
    /// function of the annotation it was trained under (which paths exist,
    /// which tables feed the SSAR context), so changing the annotation
    /// drops every trained model and selected path; forced paths are user
    /// intent and stay — their models retrain on demand.
    pub fn mark_incomplete(&mut self, table: impl Into<String>) {
        if self.annotation.mark_incomplete(table) {
            self.models.clear();
            self.selected.clear();
        }
    }

    /// Registers a suspected bias hint used by
    /// [`SelectionStrategy::SuspectedBiasRanking`].
    pub fn suspect_bias(&mut self, bias: SuspectedBias) {
        self.suspected.push(bias);
    }

    /// All models trained so far, in chain order (diagnostics).
    pub fn trained_models(&self) -> Vec<Arc<CompletionModel>> {
        self.models.values().cloned().collect()
    }

    /// Seals the build into an immutable [`Snapshot`] for concurrent
    /// serving: models, selected paths and annotation are carried over, the
    /// completed-join cache starts cold, and synthesis seeds derive from
    /// `serve_seed` so results are a pure function of `(snapshot, query,
    /// seed)` no matter how many threads execute. The builder remains
    /// usable — further training affects only future seals.
    pub fn seal(&self, serve_seed: u64) -> Snapshot {
        Snapshot {
            db: Arc::clone(&self.db),
            annotation: self.annotation.clone(),
            config: self.config.clone(),
            models: self.models.clone(),
            selected: self.selected.clone(),
            forced: self.forced.clone(),
            suspected: self.suspected.clone(),
            cache: JoinCache::with_budget(self.config.cache_budget_bytes),
            serve_seed,
        }
    }

    /// Starts a fresh build phase from an existing snapshot (typically one
    /// loaded from disk): database, annotation, config and forced paths
    /// carry over, and every model of `snapshot` is **retrained** under
    /// `train_seed` as given (the seed it was built with reproduces it) —
    /// this is the background-rebuild primitive that produces version n+1
    /// while version n keeps serving. Selected paths are copied, not
    /// re-scored; suspected-bias hints carry over (they are persisted in the
    /// snapshot meta) so a re-ranking rebuild sees them.
    pub fn rebuild_from(snapshot: &Snapshot, train_seed: u64) -> CoreResult<Self> {
        let mut rs = Self {
            db: Arc::clone(&snapshot.db),
            annotation: snapshot.annotation.clone(),
            config: snapshot.config.clone(),
            models: BTreeMap::new(),
            selected: snapshot.selected.clone(),
            forced: snapshot.forced.clone(),
            suspected: snapshot.suspected.clone(),
        };
        let chains: Vec<&Vec<String>> = snapshot.models.keys().collect();
        for trained in rs.models_for_paths(&chains, train_seed) {
            trained?;
        }
        Ok(rs)
    }

    /// Trains and keeps the model of every candidate path of every
    /// incomplete table with modeled attributes (link tables without
    /// attributes are completed implicitly inside longer chains) and ranks
    /// them under the configured strategy (§5).
    pub fn train(&mut self, seed: u64) -> CoreResult<TrainReport> {
        let mut report = TrainReport::default();
        let targets: Vec<String> = self
            .annotation
            .incomplete_tables()
            .map(str::to_string)
            .collect();
        for target in targets {
            if modeled_columns(self.db.table(&target)?).is_empty() {
                continue;
            }
            let paths = candidate_paths(&self.db, &self.annotation, &self.config, &target);
            if paths.is_empty() {
                return Err(CoreError::NoPath(format!(
                    "no completion path reaches {target}"
                )));
            }
            let mut trained = Vec::new();
            let mut failures = Vec::new();
            let chains: Vec<&[String]> = paths.iter().map(CompletionPath::tables).collect();
            for (path, result) in paths.iter().zip(self.models_for_paths(&chains, seed)) {
                match result {
                    Ok(model) => trained.push(model),
                    Err(e) => failures.push(format!("{}: {e}", path.describe())),
                }
            }
            if trained.is_empty() {
                return Err(CoreError::NoModel(format!(
                    "all candidate paths failed for {target}: {failures:?}"
                )));
            }
            let candidates = score_candidates(
                &self.db,
                &self.annotation,
                &trained,
                &self.config.strategy,
                self.suspected.iter().find(|s| s.table == target),
                seed,
            )?;
            let winner = candidates.iter().position(|c| c.selected);
            let model = &trained[winner.expect("a non-empty sheet marks its winner")];
            let tables = model.path().tables().to_vec();
            // The user's hint binds the serving side like a forced path; a
            // loss ranking is reported, and the snapshot picks per query.
            if self.config.strategy == SelectionStrategy::SuspectedBiasRanking {
                self.forced.insert(target.clone(), tables.clone());
            }
            self.selected.insert(target.clone(), tables);
            report.candidates.insert(target, candidates);
        }
        Ok(report)
    }

    /// Returns (training on demand) the model for an exact path: the one
    /// trainer, `models_for_paths`, asked for one chain.
    pub(crate) fn model_for_path(
        &mut self,
        tables: &[String],
        seed: u64,
    ) -> CoreResult<Arc<CompletionModel>> {
        let mut one = self.models_for_paths(&[tables], seed);
        one.pop().expect("one result per chain")
    }

    /// Returns (training on demand) the model of every chain, in input
    /// order: the build phase's one trainer. `seed` is used as given, so a
    /// chain's weights depend on (database, annotation, train config, chain,
    /// seed) alone. The chains not trained yet train side by side, at most
    /// `W` at a time, `W` being [`TrainConfig::workers`] (so `1` trains one
    /// chain at a time on one thread). Each chain's engine has the same cap
    /// `W` and, under the core budget, gets helpers only on idle cores: the
    /// last chain of a build takes the cores its siblings free. That moves
    /// no weight, since training is bit-identical under any worker count.
    fn models_for_paths<C: AsRef<[String]>>(
        &mut self,
        chains: &[C],
        seed: u64,
    ) -> Vec<CoreResult<Arc<CompletionModel>>> {
        let mut missing: Vec<&[String]> = Vec::new();
        for chain in chains.iter().map(C::as_ref) {
            if !self.models.contains_key(chain) && !missing.contains(&chain) {
                missing.push(chain);
            }
        }
        let (db, annotation, cfg) = (&*self.db, &self.annotation, &self.config.train);
        let trained = parallel_map_workers(missing.clone(), cfg.engine_workers(), |tables| {
            let path = CompletionPath::from_tables(db, tables)?;
            CompletionModel::train(db, annotation, path, cfg, seed).map(Arc::new)
        });
        for (tables, model) in missing.iter().zip(&trained) {
            if let Ok(model) = model {
                self.models.insert(tables.to_vec(), Arc::clone(model));
            }
        }
        let result_of = |chain: &[String]| match missing.iter().position(|m| *m == chain) {
            Some(i) => trained[i].clone(),
            None => Ok(Arc::clone(&self.models[chain])),
        };
        chains.iter().map(|c| result_of(c.as_ref())).collect()
    }

    /// The model selected for an incomplete table, if trained.
    pub fn selected_model(&self, table: &str) -> Option<Arc<CompletionModel>> {
        let path = self.selected.get(table)?;
        self.models.get(path).cloned()
    }

    /// Forces the completion path used for `table` (training the model on
    /// demand) — used when the user knows the best evidence, and by the
    /// evaluation's "optimal selection" mode (§7.2 reports metrics under
    /// optimal model and path selection).
    pub fn set_selected_path(
        &mut self,
        table: &str,
        tables: &[String],
        seed: u64,
    ) -> CoreResult<()> {
        let model = self.model_for_path(tables, seed)?;
        if model.path().target() != table {
            return Err(CoreError::Invalid(format!(
                "path {} does not end at {table}",
                model.path().describe()
            )));
        }
        self.selected.insert(table.to_string(), tables.to_vec());
        self.forced.insert(table.to_string(), tables.to_vec());
        Ok(())
    }

    /// Candidate completion paths for an incomplete table.
    pub fn candidate_paths(&self, table: &str) -> Vec<CompletionPath> {
        candidate_paths(&self.db, &self.annotation, &self.config, table)
    }

    /// Trains (on demand) the models for every candidate execution chain
    /// covering `query_tables`, so the sealed snapshot can serve them —
    /// call it per expected query shape before [`ReStore::seal`].
    /// Individual candidates that fail to train are skipped (the
    /// serving-side selection scores the survivors); returns the last
    /// training error for diagnostics.
    pub fn ensure_query_models(
        &mut self,
        query_tables: &[String],
        seed: u64,
    ) -> CoreResult<Option<CoreError>> {
        if query_tables.iter().all(|t| self.annotation.is_complete(t)) {
            // Nothing to complete — nothing to train.
            return Ok(None);
        }
        let (chains, mut last_err) = candidate_chains(
            &self.db,
            &self.annotation,
            &self.forced,
            &self.config,
            query_tables,
        )?;
        for trained in self.models_for_paths(&chains, seed) {
            if let Err(e) = trained {
                last_err = Some(e);
            }
        }
        Ok(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_db::{Agg, Query, QueryResult};

    use restore_data::{apply_removal, BiasSpec, RemovalConfig, SyntheticConfig};

    fn restore_on_synthetic(seed: u64) -> (restore_data::Scenario, ReStore) {
        let db = restore_data::generate_synthetic(
            &SyntheticConfig {
                predictability: 0.95,
                n_parent: 200,
                ..Default::default()
            },
            seed,
        );
        let mut rcfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.6);
        rcfg.seed = seed;
        let sc = apply_removal(&db, &rcfg);
        let mut cfg = RestoreConfig::default();
        cfg.train.epochs = 10;
        cfg.train.hidden = vec![32, 32];
        cfg.max_candidates = 1;
        let mut rs = ReStore::new(sc.incomplete.clone(), cfg);
        rs.mark_incomplete("tb");
        (sc, rs)
    }

    /// The lifecycle in three lines: train what the query needs, seal, serve.
    fn serve(rs: &mut ReStore, q: &Query, seed: u64) -> CoreResult<QueryResult> {
        rs.ensure_query_models(&q.tables, seed)?;
        rs.seal(seed).execute(q, seed)
    }

    #[test]
    fn train_reports_models() {
        let (_, mut rs) = restore_on_synthetic(51);
        let report = rs.train(51).unwrap();
        assert_eq!(report.candidates["tb"].len(), 1);
        let m = rs.selected_model("tb").unwrap();
        assert_eq!(m.path().target(), "tb");
        assert!(m.path().describe().contains("ta"));
        assert!(m.train_seconds > 0.0);
        assert!(m.params().num_scalars() > 100);
    }

    #[test]
    fn changing_the_annotation_drops_trained_models() {
        let (_, mut rs) = restore_on_synthetic(59);
        rs.train(59).unwrap();
        // Marking what is already marked changes nothing.
        rs.mark_incomplete("tb");
        assert!(rs.selected_model("tb").is_some());
        // A model trained with `ta` complete is no model of this annotation.
        rs.mark_incomplete("ta");
        assert!(rs.selected_model("tb").is_none());
        assert!(rs.trained_models().is_empty());
    }

    #[test]
    fn no_path_is_an_error() {
        let (_, mut rs) = restore_on_synthetic(42);
        // Mark everything incomplete: no complete evidence root exists.
        rs.mark_incomplete("ta");
        assert!(matches!(rs.train(42), Err(CoreError::NoPath(_))));
    }

    #[test]
    fn completed_count_beats_incomplete_count() {
        let (sc, mut rs) = restore_on_synthetic(52);
        rs.train(52).unwrap();
        let q = Query::new(["tb"]).aggregate(Agg::CountStar);
        let count = |db| restore_db::execute(db, &q).unwrap().scalar().unwrap();
        let (truth, incomplete) = (count(&sc.complete), count(rs.db()));
        let completed = serve(&mut rs, &q, 52).unwrap().scalar().unwrap();
        assert!(
            (completed - truth).abs() < (incomplete - truth).abs(),
            "completion did not improve COUNT: truth {truth}, incomplete {incomplete}, completed {completed}"
        );
    }

    #[test]
    fn complete_queries_bypass_completion() {
        let (sc, mut rs) = restore_on_synthetic(53);
        let q = Query::new(["ta"]).aggregate(Agg::CountStar);
        let r = serve(&mut rs, &q, 53).unwrap();
        let truth = restore_db::execute(&sc.complete, &q).unwrap();
        assert_eq!(r.scalar(), truth.scalar());
    }

    #[test]
    fn join_cache_is_reused() {
        let (_, mut rs) = restore_on_synthetic(54);
        rs.train(54).unwrap();
        let q = Query::new(["ta", "tb"]).aggregate(Agg::CountStar);
        rs.ensure_query_models(&q.tables, 54).unwrap();
        let snap = rs.seal(54);
        let a = snap.execute(&q, 54).unwrap().scalar().unwrap();
        let h0 = snap.full_cache_stats().hits;
        let b = snap.execute(&q, 54).unwrap().scalar().unwrap();
        let h1 = snap.full_cache_stats().hits;
        assert_eq!(a, b, "cached completion must give identical answers");
        assert!(h1 > h0, "second query must hit the cache");
    }

    #[test]
    fn group_by_query_on_completed_join() {
        let (sc, mut rs) = restore_on_synthetic(55);
        rs.train(55).unwrap();
        let q = Query::new(["ta", "tb"])
            .group_by(["b"])
            .aggregate(Agg::CountStar);
        let truth = restore_db::execute(&sc.complete, &q).unwrap().groups();
        let incomplete = restore_db::execute(rs.db(), &q).unwrap().groups();
        let completed = serve(&mut rs, &q, 55).unwrap().groups();
        // Mean absolute relative error over true groups.
        let err = |m: &std::collections::BTreeMap<Vec<String>, Vec<f64>>| {
            let mut tot = 0.0;
            for (k, v) in &truth {
                let got = m.get(k).map(|x| x[0]).unwrap_or(0.0);
                tot += (got - v[0]).abs() / v[0].max(1.0);
            }
            tot / truth.len() as f64
        };
        assert!(
            err(&completed) < err(&incomplete),
            "group-by error not improved: completed {} vs incomplete {}",
            err(&completed),
            err(&incomplete)
        );
    }

    #[test]
    fn sealed_snapshot_rejects_untrained_paths() {
        let (_, rs) = restore_on_synthetic(58);
        // Sealed before training: no models at all.
        let snap = rs.seal(58);
        let q = Query::new(["ta", "tb"]).aggregate(Agg::CountStar);
        assert!(matches!(
            snap.execute(&q, 58),
            Err(CoreError::NoModel(_) | CoreError::NoPath(_))
        ));
    }
}
