//! Query-driven data completion (§4) — the **incompleteness join** of
//! Algorithm 1.
//!
//! Walking the completion path from the evidence root, every step does the
//! same thing whichever way its edge points: join the next table's existing
//! partners, count them per evidence row, ask one rule how many partners
//! each row is missing (a 1:n row its tuple factor minus the partners it
//! has, an n:1 row one if it has none), duplicate the rows that many times
//! and synthesize the next table's attributes for the duplicates. Whenever
//! a synthesized tuple belongs to a complete table — or further joins need
//! its foreign keys — it is replaced by its (approximate) euclidean nearest
//! neighbor among the real tuples (Fig. 3).

//! **Batched, parallel sampling.** Every synthesis step samples its rows in
//! batches of [`CompleterConfig::batch_size`]: one gradient-free forward
//! pass per attribute fills a whole batch, and the batches fan out over the
//! calling thread and the helpers the process's core budget grants
//! ([`CompleterConfig::workers`] caps them). Each batch owns an RNG
//! seeded from `(step seed, batch offset)`, so completions are bit-stable
//! under any worker count and reproduce the single-row sampling sequence
//! at `batch_size = 1`.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use restore_db::{join_pairs, tf_column_name, Column, Database, JoinPairs, Table, Value};
use restore_nn::InferenceSession;
use restore_util::{busy, busy_threads, default_workers, derive_seed, parallel_map_with};

use crate::ann::AnnIndex;
use crate::annotation::SchemaAnnotation;
use crate::encoding::{coerce, AttrEncoder};
use crate::error::{CoreError, CoreResult};
use crate::model::{AttrKind, CompletionModel};

/// Tuning knobs of the completion executor.
#[derive(Clone, Debug)]
pub struct CompleterConfig {
    /// Rows sampled per forward pass (B). Larger batches amortize
    /// the per-pass cost; `1` degrades to single-row sampling (the
    /// determinism-contract reference point).
    pub batch_size: usize,
    /// At most this many threads, the caller included, run one
    /// completion's batches; `0` = as many as the process's core budget
    /// grants (the caller, plus a helper per idle core). Results never
    /// depend on this value.
    pub workers: usize,
}

impl Default for CompleterConfig {
    fn default() -> Self {
        Self {
            batch_size: 256,
            workers: 0,
        }
    }
}

// Completion constants: no caller varies them, so they are not options.

/// LSH hyperplanes per hash table of the euclidean replacement's index.
pub(crate) const ANN_BITS: usize = 10;
/// Number of LSH hash tables of the euclidean replacement's index.
pub(crate) const ANN_TABLES: usize = 4;
/// Clamp on synthesized tuples per evidence row (runaway protection).
pub(crate) const MAX_MISSING_PER_ROW: i64 = 64;

/// The result of completing one path: the completed join plus provenance.
#[derive(Debug)]
pub struct CompletionOutput {
    /// Completed join with fully qualified column names.
    pub join: Table,
    /// Path table names, in walk order.
    pub tables: Vec<String>,
    /// `syn[i][r]` — was the `tables[i]` part of row `r` synthesized?
    pub syn: Vec<Vec<bool>>,
    /// Tuple-factor values used per fan-out step (aligned with rows).
    pub tf: Vec<Vec<Option<i64>>>,
    /// How many of the last path table's modeled columns, in AR order, the
    /// walk drew: its synthesized rows hold NULL in the rest, as in keys.
    pub(crate) drawn: usize,
    /// §4.4 projections of this join, keyed by which path tables the query
    /// names. Built on first use and dropped with the join, so eviction,
    /// hot swap and re-synthesis need no invalidation.
    pub(crate) projections: Attached<Vec<bool>, Projection>,
    /// Completed relations of this join's tables, keyed by table name;
    /// built and dropped as the projections are.
    pub(crate) relations: Attached<String, Relation>,
}

/// What queries derived from a completed join, each built on first use.
pub(crate) type Attached<K, V> = Mutex<HashMap<K, Arc<V>>>;

/// `slot[key]`, built on first use. Racing first users may both build: the
/// results are identical and the first insert wins — and calls `grew`, with
/// the lock released, for the cache to weigh its entry again
/// ([`crate::cache::JoinCache::recharge`]).
fn attach<K: std::hash::Hash + Eq, V>(
    slot: &Attached<K, V>,
    key: K,
    build: impl FnOnce() -> CoreResult<V>,
    grew: impl FnOnce(),
) -> CoreResult<Arc<V>> {
    let lock = || slot.lock().expect("no panic under the lock");
    if let Some(found) = lock().get(&key) {
        return Ok(Arc::clone(found));
    }
    let built = Arc::new(build()?);
    let resident = Arc::clone(lock().entry(key).or_insert_with(|| Arc::clone(&built)));
    if Arc::ptr_eq(&resident, &built) {
        grew();
    }
    Ok(resident)
}

impl CompletionOutput {
    /// The seed-independent half of projecting this join onto
    /// `query_tables`, [`attach`]ed on first use; `None` when the query
    /// names every path table and so sees the whole join.
    pub(crate) fn projection(
        &self,
        query_tables: &[String],
        grew: impl FnOnce(),
    ) -> CoreResult<Option<Arc<Projection>>> {
        let named: Vec<bool> = self
            .tables
            .iter()
            .map(|t| query_tables.contains(t))
            .collect();
        if named.iter().all(|&n| n) {
            return Ok(None);
        }
        let build = || Projection::build(self, query_tables);
        attach(&self.projections, named, build, grew).map(Some)
    }

    /// The seed-independent half of completing `base`, a table of this
    /// join's path, [`attach`]ed on first use.
    pub(crate) fn relation(&self, base: &Table, grew: impl FnOnce()) -> CoreResult<Arc<Relation>> {
        let build = || Relation::build(self, base);
        attach(&self.relations, base.name().to_string(), build, grew)
    }

    /// Synthesized flags for a path table.
    pub fn synthesized_for(&self, table: &str) -> Option<&[bool]> {
        let i = self.tables.iter().position(|t| t == table)?;
        Some(&self.syn[i])
    }

    /// Rows where *any* part was synthesized.
    pub fn any_synthesized(&self) -> Vec<bool> {
        let n = self.join.n_rows();
        let mut out = vec![false; n];
        for flags in &self.syn {
            for (o, &f) in out.iter_mut().zip(flags) {
                *o |= f;
            }
        }
        out
    }

    /// Number of rows with any synthesized part.
    pub fn n_synthesized(&self) -> usize {
        self.any_synthesized().iter().filter(|&&b| b).count()
    }

    /// Approximate resident size in bytes — what one cached completion
    /// costs the serving cache's memory budget, the projections and
    /// relations attached to it so far included.
    pub fn approx_bytes(&self) -> usize {
        let names: usize = self.tables.iter().map(String::len).sum();
        let syn: usize = self.syn.iter().map(Vec::len).sum();
        let tf: usize = self
            .tf
            .iter()
            .map(|v| v.len() * std::mem::size_of::<Option<i64>>())
            .sum();
        let projections = self.projections.lock().expect("no panic under the lock");
        let relations = self.relations.lock().expect("no panic under the lock");
        let projections = projections.values().map(|p| p.approx_bytes());
        let relations = relations.values().map(|r| r.table.approx_bytes());
        let attached: usize = projections.chain(relations).sum();
        self.join.approx_bytes() + names + syn + tf + attached
    }
}

/// What a query over a subset of a completed join's tables sees of it
/// before its seed thins the synthesized rows (§4.4: extra evidence tables
/// multiply rows) — a pure function of the join and the table subset.
/// Index vectors and one scalar, never column data: at most 4 bytes per
/// join row.
#[derive(Debug)]
pub(crate) struct Projection {
    /// The query tables' columns. Evidence columns stay hidden — they would
    /// shadow query attributes (e.g. actor.gender vs director.gender).
    pub(crate) cols: Vec<usize>,
    /// Rows every seed keeps: the real rows, one per key.
    kept: Vec<u32>,
    /// Synthesized rows; a seed keeps each with probability `p_keep`.
    candidates: Vec<u32>,
    p_keep: f64,
}

impl Projection {
    fn build(out: &CompletionOutput, query_tables: &[String]) -> CoreResult<Self> {
        let (chain, join) = (&out.tables, &out.join);
        let n = u32::try_from(join.n_rows())
            .map_err(|_| CoreError::Invalid("completed join exceeds u32 rows".into()))?;
        let in_query = |t: &str| query_tables.iter().any(|q| q == t);
        let cols: Vec<usize> = (0..join.n_cols())
            .filter(|&c| {
                let qualified = join.fields()[c].name.split_once('.');
                qualified.is_some_and(|(t, _)| in_query(t))
            })
            .collect();
        // The extras form the evidence prefix; the pivot is the first chain
        // table that belongs to the query.
        let pivot_idx = chain
            .iter()
            .position(|t| in_query(t))
            .ok_or_else(|| CoreError::Invalid("query tables not on chain".into()))?;
        // Row keys: id columns of the pivot and all downstream query tables.
        let key_cols: Vec<usize> = chain[pivot_idx..]
            .iter()
            .filter(|t| in_query(t))
            .filter_map(|t| join.resolve(&format!("{t}.id")).ok())
            .collect();

        // A row is synthetic when any *query-table* part of it was
        // synthesized — euclidean replacement may have given it real keys
        // (Fig. 3), so null-ness of the key is not the right signal.
        let relevant: Vec<usize> = (0..chain.len()).filter(|&i| in_query(&chain[i])).collect();
        let mut seen: HashSet<Vec<Value>> = HashSet::new();
        let mut real_rows = 0usize;
        let (mut kept, mut candidates) = (Vec::new(), Vec::new());
        for r in 0..n {
            let row = r as usize;
            if relevant.iter().any(|&i| out.syn[i][row]) {
                candidates.push(r);
                continue;
            }
            let key: Vec<Value> = key_cols.iter().map(|&c| join.value(row, c)).collect();
            if key.is_empty() || key.iter().any(Value::is_null) {
                // Real parts but no identity — keep conservatively.
                kept.push(r);
                continue;
            }
            real_rows += 1;
            if seen.insert(key) {
                kept.push(r);
            }
        }
        // Multiplicity of real keys → thinning factor for synthesized rows.
        let multiplicity = (real_rows as f64 / seen.len().max(1) as f64).max(1.0);
        Ok(Self {
            cols,
            kept,
            candidates,
            p_keep: 1.0 / multiplicity,
        })
    }

    /// The rows one query sees, ascending: one draw per synthesized row in
    /// row order, merged with the rows every seed keeps.
    pub(crate) fn rows(&self, rng: &mut StdRng) -> Vec<u32> {
        let mut rows = Vec::with_capacity(self.kept.len() + self.candidates.len());
        let mut kept = self.kept.iter().copied().peekable();
        for &c in &self.candidates {
            if rng.random::<f64>() < self.p_keep {
                while let Some(k) = kept.next_if(|&k| k < c) {
                    rows.push(k);
                }
                rows.push(c);
            }
        }
        rows.extend(kept);
        rows
    }

    fn approx_bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<usize>()
            + (self.kept.len() + self.candidates.len()) * std::mem::size_of::<u32>()
    }
}

/// What a query over one table of a completed join sees of it before its
/// seed thins the synthesized rows — a pure function of the join and the
/// table. One table, not a second segment beside the base table: the query
/// tail keeps reading one set of columns with one dictionary each.
#[derive(Debug)]
pub(crate) struct Relation {
    /// In the base table's schema: its `n_base` rows, then every
    /// synthesized candidate in join-row order.
    pub(crate) table: Table,
    n_base: u32,
    /// A seed keeps each candidate with this probability (§4.4: an n:1
    /// evidence step visits a real target tuple once per evidence row).
    p_keep: f64,
}

impl Relation {
    fn build(out: &CompletionOutput, base: &Table) -> CoreResult<Self> {
        let (name, join) = (base.name(), &out.join);
        // The §4.4 reweighting of a query that names this table alone: its
        // synthesized rows, thinned by how often the chain join repeats one
        // real tuple. The real rows come from the base table instead.
        let Projection {
            candidates, p_keep, ..
        } = Projection::build(out, &[name.to_string()])?;
        let n_rows = base.n_rows() + candidates.len();
        u32::try_from(n_rows)
            .map_err(|_| CoreError::Invalid("completed relation exceeds u32 rows".into()))?;

        // Exact capacity: two snapshot versions' relations are co-resident
        // across a hot swap.
        let mut columns = Vec::with_capacity(base.n_cols());
        for (f, base_col) in base.fields().iter().zip(base.columns()) {
            let mut col = Column::with_capacity(f.dtype, n_rows);
            col.extend_from(base_col)?;
            // The join column each field of the table is read from.
            let bare = f.name.rsplit('.').next().unwrap_or(&f.name);
            let source = join.resolve(&format!("{name}.{bare}")).ok();
            for &r in &candidates {
                let cell = source.map(|c| coerce(&join.value(r as usize, c), f.dtype));
                col.push(&cell.unwrap_or(Value::Null))?;
            }
            columns.push(col);
        }
        Ok(Self {
            table: Table::from_columns(name, base.fields().to_vec(), columns)?,
            n_base: base.n_rows() as u32,
            p_keep,
        })
    }

    /// The rows one query sees, ascending: every base row, then one draw
    /// per candidate in row order.
    pub(crate) fn rows(&self, rng: &mut StdRng) -> Vec<u32> {
        let n = self.table.n_rows() as u32;
        let mut rows = Vec::with_capacity(n as usize);
        rows.extend(0..self.n_base);
        rows.extend((self.n_base..n).filter(|_| rng.random::<f64>() < self.p_keep));
        rows
    }
}

/// The working state of Algorithm 1: the join so far plus parallel
/// provenance arrays that must stay row-aligned through gathers/unions.
///
/// `enc` carries the model-token encoding of the working join
/// (attr-major, row-aligned). Cell values are never rewritten by the walk —
/// rows are only gathered, duplicated, and unioned — so cached tokens move
/// with their rows, and a step re-encodes only what it changed: the tuple
/// factor it resolved and the columns of the table it just joined. Tokens
/// exist for the next sampling step to read; the path's last step has no
/// reader, encodes nothing it adds and leaves `enc` empty.
#[derive(Clone)]
struct Working {
    table: Table,
    syn: Vec<Vec<bool>>,
    tf: Vec<Vec<Option<i64>>>,
    enc: Vec<Vec<u32>>,
}

/// Rows `idx` of each column; a column nothing has filled yet stays empty.
fn gather_cols<T: Copy>(cols: &[Vec<T>], idx: &[usize]) -> Vec<Vec<T>> {
    let rows = |col: &Vec<T>| {
        if col.is_empty() {
            Vec::new()
        } else {
            idx.iter().map(|&i| col[i]).collect()
        }
    };
    cols.iter().map(rows).collect()
}

impl Working {
    /// Rows `idx` of the provenance arrays — and of the tokens, if somebody
    /// will read them — around `table`, which holds those rows already.
    fn gather(&self, idx: &[usize], table: Table, with_enc: bool) -> Working {
        let enc = if with_enc { &self.enc[..] } else { &[] };
        Working {
            table,
            syn: gather_cols(&self.syn, idx),
            tf: gather_cols(&self.tf, idx),
            enc: gather_cols(enc, idx),
        }
    }

    fn union(mut self, other: Working) -> CoreResult<Working> {
        self.table.union(&other.table)?;
        for (a, b) in self.syn.iter_mut().zip(other.syn) {
            a.extend(b);
        }
        for (a, b) in self.tf.iter_mut().zip(other.tf) {
            a.extend(b);
        }
        for (a, b) in self.enc.iter_mut().zip(other.enc) {
            a.extend(b);
        }
        Ok(self)
    }

    /// Re-encodes the attribute columns in `range` from the current table
    /// and tuple factors — called after a step changes what they encode.
    fn refresh_enc(&mut self, model: &CompletionModel, range: std::ops::Range<usize>) {
        for a in range {
            self.enc[a] = model.encode_attr_column(&self.table, &self.tf, a, None);
        }
    }

    /// Re-encodes the tuple-factor attribute of `step`, if the model has
    /// one — called right after the step's factors are resolved.
    fn refresh_tf_enc(&mut self, model: &CompletionModel, step: usize) {
        if let Some(attr) = model.tf_attr(step) {
            self.refresh_enc(model, attr..attr + 1);
        }
    }

    /// The working join's token encoding, as maintained across the walk.
    /// Debug builds check it against the oracle — one full re-encode of
    /// the join — wherever a step is about to sample from it.
    fn encoded(&self, model: &CompletionModel) -> &[Vec<u32>] {
        debug_assert_eq!(self.enc, model.encode_tokens(&self.table, &self.tf));
        &self.enc
    }
}

/// Executes incompleteness joins along a trained model's path.
pub struct Completer<'a> {
    db: &'a Database,
    annotation: &'a SchemaAnnotation,
    cfg: CompleterConfig,
}

impl<'a> Completer<'a> {
    pub fn new(db: &'a Database, annotation: &'a SchemaAnnotation) -> Self {
        Self {
            db,
            annotation,
            cfg: CompleterConfig::default(),
        }
    }

    pub fn with_config(mut self, cfg: CompleterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Algorithm 1: walks the model's completion path and produces the
    /// approximated complete join. Deterministic in `seed` — every sampling
    /// batch derives its RNG from the seed and its position, independent of
    /// batch grouping across steps and of the worker count.
    pub fn complete(&self, model: &CompletionModel, seed: u64) -> CoreResult<CompletionOutput> {
        self.complete_drawing(model, &OnceLock::new(), seed, usize::MAX)
    }

    /// [`Completer::complete`] from the [`ChainPlan`] in `plan`, built there
    /// first if it is empty, with the last step drawing only the first
    /// `columns` of its table's modeled columns ([`Walk::columns_drawn`]),
    /// each token the one [`Completer::complete`] draws.
    pub(crate) fn complete_drawing(
        &self,
        model: &CompletionModel,
        plan: &OnceLock<ChainPlan>,
        seed: u64,
        columns: usize,
    ) -> CoreResult<CompletionOutput> {
        let path = model.path();
        // The walk computes on this thread from here on; maps below add
        // helpers only on idle cores.
        let _busy = busy();
        // One inference session per thread a map may use, reused across
        // every batch and step of the walk: parameters are frozen during
        // completion, so pooled activation buffers and the sweep's weight
        // caches stay valid for the whole join. Which session serves which
        // batch never affects the output (buffers are fully overwritten per
        // pass); a session no helper takes allocates nothing.
        let workers = if self.cfg.workers == 0 {
            default_workers()
        } else {
            self.cfg.workers
        };
        let mut walk = Walk {
            completer: self,
            model,
            sessions: (0..workers.max(1))
                .map(|_| InferenceSession::new())
                .collect(),
            seed,
            columns,
        };
        let plan = match plan.get() {
            Some(plan) => plan,
            None => {
                let built = walk.plan()?;
                plan.get_or_init(|| built)
            }
        };
        // Step 0 from the plan, every later step prepared on the working
        // join its predecessor left.
        let w = match &plan.first {
            None => plan.root.clone(),
            Some(first) => {
                let mut w = walk.step(&plan.root, first, plan, 0)?;
                for i in 1..path.steps().len() {
                    let prepared = walk.prepare(&w, i)?;
                    w = walk.step(&w, &prepared, plan, i)?;
                }
                w
            }
        };

        Ok(CompletionOutput {
            join: w.table,
            tables: path.tables().to_vec(),
            syn: w.syn,
            tf: w.tf,
            drawn: walk.columns_drawn(path.tables().len() - 1),
            projections: Mutex::default(),
            relations: Mutex::default(),
        })
    }
}

/// Everything of one chain's walk that no seed changes, built once and read
/// by every completion of the chain: the root's working state, step 0's
/// [`Walk::prepare`]d half and a [`Replacement`] per replaced path table.
pub(crate) struct ChainPlan {
    root: Working,
    /// `None` on a one-table path, which has no step.
    first: Option<Prepared>,
    /// Indexed by path table.
    replacements: Vec<Option<Replacement>>,
}

/// The seed-independent half of one step of the walk: the existing
/// partners as row pairs, their count per working row, and a 1:n step's
/// tuple factors before their seeded rounding.
struct Prepared {
    pairs: JoinPairs,
    existing: Vec<i64>,
    factors: Option<Factors>,
}

/// What every step of one walk shares: the completer, the model whose path
/// it walks, one inference session per thread, the walk's seed, from
/// which step `i` derives independent RNG streams for its tuple factors
/// (`2i`) and its sampled columns (`2i + 1`), and the read's `columns`.
struct Walk<'a> {
    completer: &'a Completer<'a>,
    model: &'a CompletionModel,
    sessions: Vec<InferenceSession>,
    seed: u64,
    columns: usize,
}

/// Whether path table `t`'s synthesized tuples are replaced by their nearest
/// real neighbours (Fig. 3): a complete table's must be, and so must those
/// whose foreign keys further joins need (§4.2–§4.3).
fn replaces(annotation: &SchemaAnnotation, tables: &[String], t: usize) -> bool {
    annotation.is_complete(&tables[t]) || t + 1 < tables.len()
}

/// The modeled columns of path table `t`, in AR order, with their encoders.
fn modeled(model: &CompletionModel, t: usize) -> Vec<(&str, &AttrEncoder)> {
    model.attrs()[model.table_attr_range(t)]
        .iter()
        .map(|a| match &a.kind {
            AttrKind::Column { column, .. } => (column.as_str(), &a.encoder),
            AttrKind::TupleFactor { .. } => unreachable!("table range holds only columns"),
        })
        .collect()
}

/// How many of path table `t`'s `all` modeled columns, in AR order, a walk
/// for a read of `columns` draws: the first `columns` on a synthesized last
/// table that keeps what it samples, all where a replacement or a later step
/// reads them.
fn columns_drawn(
    annotation: &SchemaAnnotation,
    tables: &[String],
    t: usize,
    all: usize,
    columns: usize,
) -> usize {
    match t > 0 && t + 1 == tables.len() && !replaces(annotation, tables, t) {
        true => columns.min(all),
        false => all,
    }
}

impl Walk<'_> {
    /// [`columns_drawn`] on this walk's path and read.
    fn columns_drawn(&self, t: usize) -> usize {
        let all = self.model.table_attr_range(t).len();
        let tables = self.model.path().tables();
        columns_drawn(self.completer.annotation, tables, t, all, self.columns)
    }

    /// This walk's chain's [`ChainPlan`]; only a replaced path table with
    /// rows and modeled columns gets a [`Replacement`].
    fn plan(&mut self) -> CoreResult<ChainPlan> {
        let model = self.model;
        let (db, tables) = (self.completer.db, model.path().tables());
        let table = db.table(&tables[0])?.qualified();
        let tf = vec![Vec::new(); model.path().steps().len()];
        let root = Working {
            enc: model.encode_tokens(&table, &tf),
            syn: vec![vec![false; table.n_rows()]],
            table,
            tf,
        };
        let steps = model.path().steps().len();
        let first = (steps > 0).then(|| self.prepare(&root, 0)).transpose()?;
        let replacements = (0..tables.len())
            .map(|t| {
                let (table, modeled) = (db.table(&tables[t])?, modeled(model, t));
                let replaced = t > 0 && replaces(self.completer.annotation, tables, t);
                (replaced && table.n_rows() > 0 && !modeled.is_empty())
                    .then(|| Replacement::build(table, &modeled))
                    .transpose()
            })
            .collect::<CoreResult<_>>()?;
        Ok(ChainPlan {
            root,
            first,
            replacements,
        })
    }

    /// The seed-independent half of step `i` on the working join `w`: its
    /// existing partners in path table `i + 1` — a plain join on the key
    /// `w` holds (the parent's on a 1:n edge, the child's on an n:1 edge),
    /// which also counts them per working row (NULL keys have none) — and
    /// a 1:n step's [`Factors`], the model's expectations included.
    fn prepare(&mut self, w: &Working, i: usize) -> CoreResult<Prepared> {
        let model = self.model;
        let (step, t) = (&model.path().steps()[i], &model.path().tables()[i + 1]);
        let (fk, t_next) = (&step.fk, self.completer.db.table(t)?);
        let (key, next_key) = step.join_keys();
        let pairs = join_pairs(&w.table, &key, t_next, &next_key)?;
        let existing: Vec<i64> = pairs.partners.iter().map(|&p| p as i64).collect();
        // The known factors come from the parent's `__tf` metadata column
        // if it has one.
        let factors = if step.fan_out {
            let tf_ref = format!("{}.{}", fk.parent, tf_column_name(&fk.child));
            let tf_col = w.table.resolve(&tf_ref).ok();
            let known: Vec<Option<i64>> = (0..existing.len())
                .map(|r| tf_col.and_then(|c| w.table.value(r, c).as_i64()))
                .collect();
            let child_complete = self.completer.annotation.is_complete(&fk.child);
            let mut factors = Factors::split(&known, &existing, child_complete);
            if !factors.to_predict.is_empty() {
                // RNG-free and row-independent: a few large fused chunks.
                let encoded = w.encoded(model);
                factors.expectations =
                    self.eval_batches(&factors.to_predict, |session, chunk| {
                        model.tf_expectations_encoded_in(session, &w.table, encoded, i, chunk)
                    })?;
            }
            Some(factors)
        } else {
            None
        };
        Ok(Prepared {
            pairs,
            existing,
            factors,
        })
    }

    /// Step `i` of Algorithm 1, along the edge to path table `i + 1`, the
    /// same for both edge kinds, from its [`Walk::prepare`]d half `p`:
    /// round the tuple factors under this walk's seed, synthesize the
    /// partners [`missing_partners`] says each row lacks, and union them
    /// with the existing ones.
    fn step(&mut self, w: &Working, p: &Prepared, at: &ChainPlan, i: usize) -> CoreResult<Working> {
        let model = self.model;
        let t_next = self.completer.db.table(&model.path().tables()[i + 1])?;
        // Nothing samples after the last step, so what it adds needs no tokens.
        let last = i + 1 == model.path().steps().len();

        let tf = p.factors.as_ref().map(|f| {
            let predicted = self.round_tuple_factors(i, &f.expectations);
            f.resolve(&p.existing, predicted)
        });
        let dup_idx = missing_partners(&p.existing, tf.as_deref());

        let joined = p.pairs.gather(&w.table, t_next, "join")?;
        let mut w_inc = w.gather(&p.pairs.left_indices, joined, !last);
        w_inc.syn.push(vec![false; p.pairs.left_indices.len()]);
        let mut w_syn = w.gather(&dup_idx, w.table.gather(&dup_idx), true);
        if let Some(tf) = &tf {
            let resolved = |rows: &[usize]| -> Vec<Option<i64>> {
                rows.iter().map(|&r| Some(tf[r])).collect()
            };
            w_inc.tf[i] = resolved(&p.pairs.left_indices);
            w_syn.tf[i] = resolved(&dup_idx);
            // Sampling below conditions on the resolved tuple factor.
            w_syn.refresh_tf_enc(model, i);
        }
        let block = self.synthesize_block(&w_syn, i, at)?;
        w_syn.syn.push(vec![true; block.n_rows()]);
        w_syn.table = w_syn.table.hstack(block, "join")?;
        let mut w = w_inc.union(w_syn)?;
        if !last {
            // Re-encode what this step changed, for the next step to sample
            // from: the tuple factor it resolved and the next table's
            // columns — the real ones it joined, and the synthesized ones
            // from the values they ended up with (replacement swaps them for
            // a real neighbour's; dtype coercion rounds bin means).
            w.refresh_tf_enc(model, i);
            w.refresh_enc(model, model.table_attr_range(i + 1));
        }
        Ok(w)
    }

    /// The seeded half of step `i`'s tuple factors: stochastic rounding of
    /// the `expectations` replays the per-sampling-batch RNG streams of
    /// [`Walk::sample_batches`], so it is invariant to the worker count.
    fn round_tuple_factors(&self, i: usize, expectations: &[f64]) -> Vec<i64> {
        let bs = self.completer.cfg.batch_size.max(1);
        let tf_seed = derive_seed(self.seed, 2 * i as u64);
        let mut sampled = Vec::with_capacity(expectations.len());
        for (k, chunk) in expectations.chunks(bs).enumerate() {
            let mut rng = StdRng::seed_from_u64(derive_seed(tf_seed, (k * bs) as u64));
            sampled.extend(CompletionModel::round_tf_expectations(chunk, &mut rng));
        }
        sampled
    }

    /// Splits `rows` into sampling batches, fans them out over the caller
    /// and its helpers (each reusing its session), and returns the per-batch
    /// results in input order. Each batch's RNG is seeded from `(seed,
    /// offset of the batch's first row)` so the output is a pure function
    /// of `(rows, seed, batch_size)`.
    fn sample_batches<T, F>(&mut self, rows: &[usize], seed: u64, f: F) -> CoreResult<Vec<T>>
    where
        T: Send,
        F: Fn(&mut InferenceSession, &[usize], &mut StdRng) -> CoreResult<T> + Sync,
    {
        let bs = self.completer.cfg.batch_size.max(1);
        let jobs: Vec<(usize, &[usize])> = rows
            .chunks(bs)
            .enumerate()
            .map(|(k, chunk)| (k * bs, chunk))
            .collect();
        parallel_map_with(jobs, &mut self.sessions, |session, (offset, chunk)| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, *offset as u64));
            f(session, chunk, &mut rng)
        })
        .into_iter()
        .collect()
    }

    /// RNG-free sibling of [`Walk::sample_batches`] for row-independent
    /// evaluations: fans `rows` out in a few *large* fused chunks — about
    /// one per thread the core budget would grant right now, at least one
    /// sampling batch and at most 16 of them each (to bound the per-chunk
    /// logits footprint) — so the sweep's degree-≤-step setup bands run
    /// once per fused chunk instead of once per sampling batch. Each row's
    /// result must depend only on that row (no RNG, no cross-row coupling),
    /// which is exactly what makes the chunking, and the racy read of the
    /// budget that sizes it, invisible in the output. Results come back
    /// flattened in input order.
    fn eval_batches<T, F>(&mut self, rows: &[usize], f: F) -> CoreResult<Vec<T>>
    where
        T: Send,
        F: Fn(&mut InferenceSession, &[usize]) -> CoreResult<Vec<T>> + Sync,
    {
        let bs = self.completer.cfg.batch_size.max(1);
        // The caller (counted by `complete`) plus one helper per idle core.
        let threads = 1 + default_workers().saturating_sub(busy_threads());
        let per_thread = rows.len().div_ceil(threads.min(self.sessions.len()));
        let chunk = per_thread.clamp(bs, 16 * bs);
        let jobs: Vec<&[usize]> = rows.chunks(chunk).collect();
        let out: CoreResult<Vec<Vec<T>>> =
            parallel_map_with(jobs, &mut self.sessions, |session, chunk| f(session, chunk))
                .into_iter()
                .collect();
        Ok(out?.into_iter().flatten().collect())
    }

    /// Samples the modeled columns of path table `i + 1` the walk draws
    /// ([`Walk::columns_drawn`]) for every row of `w` — in parallel batches
    /// of `batch_size` rows, one forward pass per attribute per batch —
    /// replacing each synthesized tuple with its nearest real neighbor if
    /// the plan `at` has a [`Replacement`] for the table, and returns the
    /// qualified column block, assembled from tokens: one decoded value per
    /// token, the sampled tokens pick among them.
    fn synthesize_block(&mut self, w: &Working, i: usize, at: &ChainPlan) -> CoreResult<Table> {
        let model = self.model;
        let table_idx = i + 1;
        let t_next = self.completer.db.table(&model.path().tables()[table_idx])?;
        let n = w.table.n_rows();
        let modeled = modeled(model, table_idx);

        // Sampled token columns, the per-batch blocks concatenated.
        let drawn = self.columns_drawn(table_idx);
        let mut sampled: Vec<Vec<u32>> = vec![Vec::with_capacity(n); drawn];
        if n > 0 && drawn > 0 {
            let rows: Vec<usize> = (0..n).collect();
            let encoded = w.encoded(model);
            let seed = derive_seed(self.seed, 2 * i as u64 + 1);
            let batches = self.sample_batches(&rows, seed, |session, chunk, rng| {
                let table = &w.table;
                model.sample_table_tokens_in(session, table, encoded, table_idx, drawn, chunk, rng)
            })?;
            for block in batches {
                for (col, part) in sampled.iter_mut().zip(block) {
                    col.extend(part);
                }
            }
        }

        let replacement_rows = (at.replacements[table_idx].as_ref())
            .filter(|_| n > 0)
            .map(|r| r.nearest_rows(&sampled));

        // Assemble the block with t_next's full schema.
        let mut columns: Vec<Column> = Vec::with_capacity(t_next.n_cols());
        for (fi, field) in t_next.fields().iter().enumerate() {
            let base = field.name.rsplit('.').next().unwrap_or(&field.name);
            let drawn_at = modeled[..drawn].iter().position(|(name, _)| *name == base);
            columns.push(match (&replacement_rows, drawn_at) {
                (Some(repl), _) => t_next.column(fi).gather_compact(repl),
                (None, Some(m)) => modeled[m].1.decode_column(&sampled[m], field.dtype)?,
                // Keys / metadata / undrawn columns of synthesized tuples stay NULL.
                (None, None) => Column::nulls(field.dtype, n),
            });
        }
        let block = Table::from_columns(t_next.name(), t_next.fields().to_vec(), columns)?;
        Ok(block.into_qualified())
    }
}

/// Algorithm 1, line 6, before the seed: each working row's tuple factor
/// where a known factor or a complete child table fixes it, the rows left for
/// the model, ascending, and the model's expected factor of each.
struct Factors {
    fixed: Vec<i64>,
    to_predict: Vec<usize>,
    expectations: Vec<f64>,
}

impl Factors {
    /// A known factor (`known`, the `__tf` metadata) beats everything; with a
    /// complete child table the partners a row has (`existing`) are all.
    fn split(known: &[Option<i64>], existing: &[i64], child_complete: bool) -> Self {
        let mut fixed = vec![0; known.len()];
        let mut to_predict = Vec::new();
        for (r, &k) in known.iter().enumerate() {
            match k {
                Some(v) => fixed[r] = v,
                None if child_complete => fixed[r] = existing[r],
                None => to_predict.push(r),
            }
        }
        Self {
            fixed,
            to_predict,
            expectations: Vec::new(),
        }
    }

    /// Every row's factor, `predicted` giving those of the rows left for the
    /// model, in order. No row gets a factor below the partners it has.
    fn resolve(&self, existing: &[i64], predicted: Vec<i64>) -> Vec<i64> {
        let mut tf = self.fixed.clone();
        for (&r, v) in self.to_predict.iter().zip(predicted) {
            tf[r] = v;
        }
        for (t, &e) in tf.iter_mut().zip(existing) {
            *t = (*t).max(e);
        }
        tf
    }
}

/// How many partners each working row is missing, the one rule of both
/// edge kinds, as the rows to synthesize a partner for: row `r` repeated
/// once per missing partner, ascending. `existing[r]` counts the partners
/// row `r` has. On an n:1 edge (`tf` is `None`) a row misses its one
/// partner exactly when it has none; on a 1:n edge it misses its tuple
/// factor minus `existing[r]`, clamped to `[0, MAX_MISSING_PER_ROW]`.
fn missing_partners(existing: &[i64], tf: Option<&[i64]>) -> Vec<usize> {
    let missing = |r: usize| match tf {
        Some(tf) => (tf[r] - existing[r]).clamp(0, MAX_MISSING_PER_ROW),
        None => i64::from(existing[r] == 0),
    };
    (0..existing.len())
        .flat_map(|r| std::iter::repeat_n(r, missing(r) as usize))
        .collect()
}

/// Euclidean replacement's state for one path table (Fig. 3), a function of
/// the table and the model's encoders: what each token of each modeled
/// attribute decodes to, the featurizer and the index over the real rows.
struct Replacement {
    decoded: Vec<Vec<Value>>,
    featurizer: Featurizer,
    index: AnnIndex,
}

impl Replacement {
    fn build(table: &Table, modeled: &[(&str, &AttrEncoder)]) -> CoreResult<Self> {
        let decoded = modeled
            .iter()
            .map(|(_, enc)| {
                (0..enc.model_cardinality() as u32)
                    .map(|t| enc.decode(t))
                    .collect()
            })
            .collect();
        let featurizer = Featurizer::fit(table, modeled)?;
        let points = featurizer.features_of_table(table)?;
        let index = AnnIndex::build(points, ANN_BITS, ANN_TABLES, 0xa11);
        Ok(Self {
            decoded,
            featurizer,
            index,
        })
    }

    /// For every row of the sampled token columns, the row of the table
    /// nearest to the tuple its tokens decode to, so synthesized keys become
    /// real ones. The index is asked once per distinct token tuple: rows
    /// that sampled the same tuple share its answer.
    fn nearest_rows(&self, sampled: &[Vec<u32>]) -> Vec<usize> {
        let n = sampled.first().map_or(0, Vec::len);
        let mut nearest: HashMap<Vec<u32>, usize> = HashMap::new();
        let rows = (0..n).map(|i| {
            let tuple = sampled.iter().map(|tokens| tokens[i]).collect();
            *nearest.entry(tuple).or_insert_with_key(|tuple| {
                let vals = (self.decoded.iter().zip(tuple)).map(|(v, &t)| &v[t as usize]);
                self.index
                    .nearest(&self.featurizer.features_of_values(vals))
            })
        });
        rows.collect()
    }
}

/// Feature extraction for euclidean replacement: categorical attributes are
/// one-hot, numeric attributes are z-normalized against the real table's
/// finite cells. A NULL, NaN or infinite cell has no place on that scale
/// and featurizes as the mean.
struct Featurizer {
    specs: Vec<(String, AttrEncoder, FeatKind)>,
}

enum FeatKind {
    OneHot(usize),
    Numeric { mean: f32, std: f32 },
}

impl Featurizer {
    fn fit(table: &Table, modeled: &[(&str, &AttrEncoder)]) -> CoreResult<Self> {
        let mut specs = Vec::with_capacity(modeled.len());
        for (name, enc) in modeled {
            let kind = match enc {
                AttrEncoder::Categorical { .. } => FeatKind::OneHot(enc.cardinality()),
                _ => {
                    let col = table.column_by_name(name)?;
                    let vals: Vec<f32> =
                        (0..col.len()).filter_map(|r| finite(&col.get(r))).collect();
                    let n = vals.len() as f32;
                    let mean = vals.iter().sum::<f32>() / n.max(1.0);
                    let sq = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>();
                    let var = if vals.is_empty() { 1.0 } else { sq / n };
                    FeatKind::Numeric {
                        mean,
                        std: var.sqrt().max(1e-6),
                    }
                }
            };
            specs.push((name.to_string(), (*enc).clone(), kind));
        }
        Ok(Self { specs })
    }

    fn push_value(&self, out: &mut Vec<f32>, spec_idx: usize, v: &Value) {
        let (_, enc, kind) = &self.specs[spec_idx];
        match kind {
            FeatKind::OneHot(card) => {
                let start = out.len();
                out.resize(start + card, 0.0);
                if let Some(t) = enc.encode(v) {
                    if (t as usize) < *card {
                        out[start + t as usize] = 1.0;
                    }
                }
            }
            FeatKind::Numeric { mean, std } => {
                let x = finite(v).unwrap_or(*mean);
                out.push((x - mean) / std);
            }
        }
    }

    fn features_of_table(&self, table: &Table) -> CoreResult<Vec<Vec<f32>>> {
        let cols = (self.specs.iter()).map(|(name, _, _)| table.resolve(name));
        let cols = cols.collect::<Result<Vec<usize>, _>>()?;
        let row = |r| cols.iter().map(|&c| table.value(r, c)).collect::<Vec<_>>();
        Ok((0..table.n_rows())
            .map(|r| self.features_of_values(&row(r)))
            .collect())
    }

    fn features_of_values<'v>(&self, values: impl IntoIterator<Item = &'v Value>) -> Vec<f32> {
        let mut f = Vec::new();
        for (s, v) in values.into_iter().enumerate() {
            self.push_value(&mut f, s, v);
        }
        f
    }
}

/// A numeric cell as a feature, if it is a finite one.
fn finite(v: &Value) -> Option<f32> {
    v.as_f64().map(|x| x as f32).filter(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainConfig;
    use crate::paths::CompletionPath;

    use restore_data::{apply_removal, BiasSpec, RemovalConfig, SyntheticConfig};
    use restore_db::Field;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 10,
            batch_size: 128,
            hidden: vec![32, 32],
            max_train_rows: 6000,
            ..Default::default()
        }
    }

    fn scenario(keep: f64, corr: f64, seed: u64) -> restore_data::Scenario {
        let db = restore_data::generate_synthetic(
            &SyntheticConfig {
                predictability: 0.95,
                n_parent: 250,
                ..Default::default()
            },
            seed,
        );
        let mut cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), keep, corr);
        cfg.seed = seed;
        cfg.tf_keep_rate = 0.3;
        apply_removal(&db, &cfg)
    }

    #[test]
    fn projection_rows_merge_kept_and_drawn_rows_in_row_order() {
        let mut projection = Projection {
            cols: Vec::new(),
            kept: vec![0, 2, 5, 8],
            candidates: vec![1, 3, 4, 6, 7, 9],
            p_keep: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(projection.rows(&mut rng), (0..10).collect::<Vec<u32>>());
        projection.p_keep = 0.5;
        let rows = projection.rows(&mut rng);
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "{rows:?}");
        assert!(projection.kept.iter().all(|k| rows.contains(k)));
        assert!(rows.len() > 4 && rows.len() < 10, "{rows:?}");
        projection.p_keep = 0.0;
        assert_eq!(projection.rows(&mut rng), projection.kept);
    }

    fn complete_scenario(sc: &restore_data::Scenario, seed: u64) -> CompletionOutput {
        let ann = SchemaAnnotation::with_incomplete(["tb"]);
        let path =
            CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
        let model = CompletionModel::train(&sc.incomplete, &ann, path, &quick_cfg(), seed).unwrap();
        let completer = Completer::new(&sc.incomplete, &ann);
        // A plan that another seed's walk built holds none of its draws.
        let (plan, all) = (OnceLock::new(), usize::MAX);
        let walk = |s| completer.complete_drawing(&model, &plan, s, all).unwrap();
        let (_, out) = (walk(seed + 1), walk(seed));
        assert_eq!(out.tf, completer.complete(&model, seed).unwrap().tf);
        out
    }

    #[test]
    fn completion_restores_cardinality() {
        let sc = scenario(0.5, 0.5, 21);
        let out = complete_scenario(&sc, 21);
        let complete_rows = {
            // true join size = |tb| of the complete database
            sc.complete.table("tb").unwrap().n_rows()
        };
        let got = out.join.n_rows();
        // With 30% known TFs + predicted TFs the completed join should land
        // near the true size — far closer than the incomplete join.
        let incomplete_rows = sc.incomplete.table("tb").unwrap().n_rows();
        let err_completed = (got as f64 - complete_rows as f64).abs();
        let err_incomplete = (incomplete_rows as f64 - complete_rows as f64).abs();
        assert!(
            err_completed < err_incomplete * 0.5,
            "cardinality not corrected: completed {got}, incomplete {incomplete_rows}, true {complete_rows}"
        );
    }

    #[test]
    fn completion_reduces_bias() {
        let sc = scenario(0.4, 0.7, 22);
        let out = complete_scenario(&sc, 22);
        let value = sc.bias_value.clone().unwrap();
        let frac = |t: &Table, col: &str| {
            let i = t.resolve(col).unwrap();
            (0..t.n_rows())
                .filter(|&r| t.value(r, i).to_string() == value)
                .count() as f64
                / t.n_rows().max(1) as f64
        };
        let true_frac = frac(sc.complete.table("tb").unwrap(), "b");
        let inc_frac = frac(sc.incomplete.table("tb").unwrap(), "b");
        let comp_frac = frac(&out.join, "tb.b");
        let before = (true_frac - inc_frac).abs();
        let after = (true_frac - comp_frac).abs();
        assert!(
            after < before,
            "bias not reduced: true {true_frac:.3}, incomplete {inc_frac:.3}, completed {comp_frac:.3}"
        );
    }

    #[test]
    fn synthesized_rows_are_flagged() {
        let sc = scenario(0.5, 0.5, 23);
        let out = complete_scenario(&sc, 23);
        let syn = out.synthesized_for("tb").unwrap();
        let n_syn = syn.iter().filter(|&&b| b).count();
        assert!(n_syn > 0, "expected synthesized tuples");
        assert_eq!(out.n_synthesized(), n_syn);
        // Evidence table rows are never synthesized on this path.
        assert!(out.synthesized_for("ta").unwrap().iter().all(|&b| !b));
        // Synthesized rows have NULL child keys (no replacement for the
        // incomplete last table).
        let id_idx = out.join.resolve("tb.id").unwrap();
        for (r, &s) in syn.iter().enumerate() {
            assert_eq!(out.join.value(r, id_idx).is_null(), s);
        }
    }

    #[test]
    fn known_tuple_factors_are_respected() {
        let sc = scenario(0.5, 0.3, 24);
        let out = complete_scenario(&sc, 24);
        // Where __tf_tb was known, the per-parent child count in the
        // completed join must equal it exactly.
        let ta = sc.incomplete.table("ta").unwrap();
        let tf_idx = ta.resolve("__tf_tb").unwrap();
        let id_idx = ta.resolve("id").unwrap();
        let join_pid = out.join.resolve("ta.id").unwrap();
        let mut got: HashMap<i64, i64> = HashMap::new();
        for r in 0..out.join.n_rows() {
            *got.entry(out.join.value(r, join_pid).as_i64().unwrap())
                .or_insert(0) += 1;
        }
        let mut checked = 0;
        for r in 0..ta.n_rows() {
            if let Some(tf) = ta.value(r, tf_idx).as_i64() {
                let pid = ta.value(r, id_idx).as_i64().unwrap();
                assert_eq!(got.get(&pid).copied().unwrap_or(0), tf, "parent {pid}");
                checked += 1;
            }
        }
        assert!(checked > 10, "too few known TFs exercised ({checked})");
    }

    #[test]
    fn featurizer_distinguishes_categories() {
        let mut t = Table::new(
            "x",
            vec![
                Field::new("c", restore_db::DataType::Str),
                Field::new("v", restore_db::DataType::Float),
            ],
        );
        t.push_row(&[Value::str("a"), Value::Float(1.0)]).unwrap();
        t.push_row(&[Value::str("b"), Value::Float(100.0)]).unwrap();
        let enc_c = AttrEncoder::fit(t.column_by_name("c").unwrap(), 8);
        let enc_v = AttrEncoder::fit(t.column_by_name("v").unwrap(), 8);
        let modeled = vec![("c", &enc_c), ("v", &enc_v)];
        let f = Featurizer::fit(&t, &modeled).unwrap();
        let pts = f.features_of_table(&t).unwrap();
        assert_eq!(pts.len(), 2);
        assert_ne!(pts[0], pts[1]);
        // A query equal to row 0's values maps onto row 0's features.
        let q = f.features_of_values([&Value::str("a"), &Value::Float(1.0)]);
        assert_eq!(q, pts[0]);
    }

    /// Fig. 3's rule: a complete table is replaced, and so is an incomplete
    /// one whose keys a later step joins on; an incomplete last table keeps
    /// what it samples, so a walk draws only the read's columns of it.
    #[test]
    fn replacement_covers_complete_and_non_final_tables_only() {
        let ann = SchemaAnnotation::with_incomplete(["apartment", "landlord"]);
        let path = |tables: &[&str]| tables.iter().map(|t| t.to_string()).collect::<Vec<_>>();
        let complete_last = path(&["landlord", "neighborhood"]);
        assert!(replaces(&ann, &complete_last, 1));
        assert_eq!(columns_drawn(&ann, &complete_last, 1, 5, 2), 5);
        let incomplete_middle = path(&["neighborhood", "apartment", "landlord"]);
        assert!(replaces(&ann, &incomplete_middle, 1));
        assert_eq!(columns_drawn(&ann, &incomplete_middle, 1, 5, 2), 5);
        let incomplete_last = path(&["neighborhood", "apartment"]);
        assert!(!replaces(&ann, &incomplete_last, 1));
        assert_eq!(columns_drawn(&ann, &incomplete_last, 1, 5, 2), 2);
        assert_eq!(columns_drawn(&ann, &incomplete_last, 1, 5, usize::MAX), 5);
    }

    /// Fig. 3's complete-table half over a whole walk: an n:1 step from rows
    /// whose key is NULL synthesizes their partners in a complete last
    /// table, and replacement makes each of those a real row of it.
    #[test]
    fn a_complete_last_table_synthesizes_only_real_rows() {
        let mut db = restore_data::generate_synthetic(
            &SyntheticConfig {
                predictability: 0.95,
                n_parent: 120,
                ..Default::default()
            },
            31,
        );
        let tb = db.table("tb").unwrap();
        let key = tb.resolve("a_id").unwrap();
        let mut keyless = Table::new("tb", tb.fields().to_vec());
        for r in 0..tb.n_rows() {
            let mut row: Vec<Value> = (0..tb.n_cols()).map(|c| tb.value(r, c)).collect();
            if r % 5 == 0 {
                row[key] = Value::Null;
            }
            keyless.push_row(&row).unwrap();
        }
        let n_keyless = tb.n_rows().div_ceil(5);
        db.replace_table(keyless);
        let ann = SchemaAnnotation::with_incomplete(["tb"]);
        let path = CompletionPath::from_tables(&db, &["tb".into(), "ta".into()]).unwrap();
        let model = CompletionModel::train(&db, &ann, path, &quick_cfg(), 31).unwrap();
        let out = Completer::new(&db, &ann).complete(&model, 31).unwrap();

        let syn = out.synthesized_for("ta").unwrap();
        assert_eq!(syn.iter().filter(|&&s| s).count(), n_keyless);
        let ta = db.table("ta").unwrap();
        let id = ta.resolve("id").unwrap();
        let ids: HashSet<i64> = (0..ta.n_rows())
            .filter_map(|r| ta.value(r, id).as_i64())
            .collect();
        let join_id = out.join.resolve("ta.id").unwrap();
        for r in 0..out.join.n_rows() {
            let got = out.join.value(r, join_id).as_i64();
            assert!(got.is_some_and(|i| ids.contains(&i)), "row {r}: {got:?}");
        }
    }

    #[test]
    fn n_to_1_rows_miss_one_partner_exactly_when_they_have_none() {
        // Child keys, one NULL, against parents 1 and 3, joined as the
        // walk joins them.
        let int = |name: &str| Field::new(name, restore_db::DataType::Int);
        let mut child = Table::new("ta", vec![int("k")]);
        for k in [Some(1), None, Some(2), Some(3), Some(4), Some(1)] {
            child
                .push_row(&[k.map_or(Value::Null, Value::Int)])
                .unwrap();
        }
        let mut parent = Table::new("tb", vec![int("id")]);
        for id in [1, 3] {
            parent.push_row(&[Value::Int(id)]).unwrap();
        }
        let pairs = join_pairs(&child.qualified(), "ta.k", &parent, "id").unwrap();
        let existing: Vec<i64> = pairs.partners.iter().map(|&p| p as i64).collect();
        // Partnerless rows once each, ascending — a NULL key is
        // partnerless.
        assert_eq!(missing_partners(&existing, None), vec![1, 2, 4]);
    }

    #[test]
    fn fan_out_rows_miss_their_tuple_factor_minus_their_partners() {
        let m = MAX_MISSING_PER_ROW;
        let existing = [2, 0, 3, 1, 0];
        let known = [Some(5), None, Some(1), None, Some(m + 10)];
        // Only the rows without a known factor are left to the model,
        // ascending; say it gives each of them 1,000 partners.
        let factors = Factors::split(&known, &existing, false);
        assert_eq!(factors.to_predict, [1, 3]);
        let tf = factors.resolve(&existing, vec![1_000; 2]);
        // A known factor wins over the model; none falls below the
        // partners a row has.
        assert_eq!(tf, vec![5, 1_000, 3, 1_000, m + 10]);
        // A factor below the partners a row has gives 0, one above them by
        // more than the clamp gives the clamp.
        let tf = [5, 1_000, 1, 1_000, m + 10];
        let missing = missing_partners(&existing, Some(&tf));
        let per_row = |r: usize| missing.iter().filter(|&&x| x == r).count() as i64;
        assert_eq!((0..5).map(per_row).collect::<Vec<_>>(), [3, m, 0, m, m]);
        assert!(missing.windows(2).all(|w| w[0] <= w[1]));

        // A complete child table: the partners a row has are all it has,
        // and the model is left nothing.
        let factors = Factors::split(&[None; 5], &existing, true);
        assert!(factors.to_predict.is_empty());
        let tf = factors.resolve(&existing, Vec::new());
        assert_eq!(tf, existing);
        assert!(missing_partners(&existing, Some(&tf)).is_empty());
        let tf = Factors::split(&known, &existing, false).resolve(&existing, vec![7, 8]);
        assert_eq!(tf, vec![5, 7, 3, 8, m + 10]);
    }

    #[test]
    fn replacement_finds_a_real_row_beside_nan_and_infinite_cells() {
        // A categorical column and a binned float column holding one NaN
        // and one infinite cell of each sign.
        let mut t = Table::new(
            "x",
            vec![
                Field::new("c", restore_db::DataType::Str),
                Field::new("v", restore_db::DataType::Float),
            ],
        );
        for r in 0..203 {
            let v = match r {
                5 => f64::NAN,
                7 => f64::INFINITY,
                9 => f64::NEG_INFINITY,
                _ => r as f64 * 0.5,
            };
            let c = ["a", "b", "c"][r % 3];
            t.push_row(&[Value::str(c), Value::Float(v)]).unwrap();
        }
        let enc_c = AttrEncoder::fit(t.column_by_name("c").unwrap(), 8);
        let enc_v = AttrEncoder::fit(t.column_by_name("v").unwrap(), 8);
        assert!(matches!(enc_v, AttrEncoder::Binned { .. }));
        let modeled = vec![("c", &enc_c), ("v", &enc_v)];
        // Every token of `v`, the infinite bins' included, beside each
        // category.
        let cards = (enc_c.model_cardinality(), enc_v.model_cardinality());
        let pairs: Vec<(u32, u32)> = (0..cards.0 as u32)
            .flat_map(|c| (0..cards.1 as u32).map(move |v| (c, v)))
            .collect();
        let sampled = vec![
            pairs.iter().map(|p| p.0).collect(),
            pairs.iter().map(|p| p.1).collect(),
        ];
        let replacement = Replacement::build(&t, &modeled).unwrap();
        let rows = replacement.nearest_rows(&sampled);
        assert_eq!(rows.len(), pairs.len());
        assert!(rows.iter().all(|&r| r < t.n_rows()), "{rows:?}");
        // A finite cell still featurizes on the finite cells' scale.
        let f = Featurizer::fit(&t, &modeled).unwrap();
        let pts = f.features_of_table(&t).unwrap();
        assert!(pts.iter().flatten().all(|x| x.is_finite()));
        assert_eq!(
            pts[5],
            f.features_of_values([&Value::str("c"), &Value::Null])
        );
    }
}
