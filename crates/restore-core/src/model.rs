//! Completion models (§3): AR models learn the joint distribution over all
//! attributes of the completion-path join `T1 ⋈ … ⋈ Tm` (including tuple
//! factors for fan-out steps); SSAR models additionally condition on a
//! DeepSets encoding of fan-out / self-evidence tuple sets.
//!
//! Attribute order is the topological order along the path — evidence
//! attributes first, each fan-out tuple factor before its child table's
//! attributes — so conditional sampling `p(t_m | t_e)` is a suffix sample.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use restore_db::{hash_join, join_pairs, tf_column_name, Database, PathStep, Table, Value};
use restore_nn::{
    block_cross_entropy_sums, Adam, AttrSpec, DeepSets, DeepSetsConfig, Forward, InferenceSession,
    Made, MadeConfig, Matrix, ParamStore, SetBatch, SetTableSpec, TableSet, TrainEngine,
};
use restore_util::default_workers;

use crate::annotation::{modeled_columns, SchemaAnnotation};
use crate::encoding::AttrEncoder;
use crate::error::{CoreError, CoreResult};
use crate::paths::CompletionPath;

/// Hyper-parameters for training completion models.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub hidden: Vec<usize>,
    /// Training joins larger than this are subsampled (stride sampling).
    pub max_train_rows: usize,
    /// Width of the SSAR conditioning context (0 disables DeepSets → AR).
    pub ctx_dim: usize,
    /// Minimum number of gradient steps: small training sets get extra
    /// epochs so the conditional is actually fit.
    pub min_steps: usize,
    /// At most this many chains of a build train side by side, and at most
    /// this many threads, the caller included, run one training's
    /// data-parallel gradient engine — a helper only on an idle core of the
    /// process's core budget; `0` = the budget's size. Training results are
    /// **bit-identical** under any worker count: microbatch gradients are
    /// computed independently and reduced in a fixed order.
    pub workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 12,
            batch_size: 256,
            hidden: vec![64, 64],
            max_train_rows: 20_000,
            ctx_dim: 0,
            min_steps: 400,
            workers: 0,
        }
    }
}

impl TrainConfig {
    /// SSAR variant of this configuration.
    pub fn ssar(mut self) -> Self {
        self.ctx_dim = 16;
        self
    }

    pub(crate) fn is_ssar(&self) -> bool {
        self.ctx_dim > 0
    }

    /// `workers` with `0` resolved to the core budget's size.
    pub(crate) fn engine_workers(&self) -> usize {
        match self.workers {
            0 => default_workers(),
            w => w,
        }
    }
}

// Training constants no caller varies.

/// Adam's learning rate.
pub(crate) const LR: f32 = 5e-3;
/// Upper bound on the quantile bins of a continuous attribute.
pub(crate) const MAX_BINS: usize = 24;
/// Share of the (subsampled) training rows held out for validation.
pub(crate) const VAL_FRACTION: f64 = 0.1;
/// Global gradient norm every step is clipped to before Adam applies it.
pub(crate) const CLIP_NORM: f32 = 5.0;
/// Tuple factors are clamped to this maximum token.
pub(crate) const TF_CAP: i64 = 64;
/// Per-row cap on fan-out evidence set sizes.
pub(crate) const MAX_SET_SIZE: usize = 12;
/// Early-stopping patience: epochs without validation improvement.
pub(crate) const PATIENCE: usize = 10;
/// Embedding width of every model attribute and of every attribute of a
/// DeepSets evidence table.
pub(crate) const EMBED_DIM: usize = 8;
/// Rows per microbatch — the unit of training parallelism. Never a function
/// of the worker count, so it fixes both the work split and the gradient
/// reduction tree.
pub(crate) const MICROBATCH: usize = 32;

/// What a model attribute represents.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrKind {
    /// A modeled column of a path table.
    Column { table: String, column: String },
    /// The tuple factor of fan-out step `step` (children of `tables[step]`
    /// in `tables[step+1]`).
    TupleFactor { step: usize },
}

/// One attribute of the completion model.
#[derive(Clone, Debug)]
pub struct ModelAttr {
    pub kind: AttrKind,
    pub encoder: AttrEncoder,
}

impl ModelAttr {
    pub fn name(&self) -> String {
        match &self.kind {
            AttrKind::Column { table, column } => format!("{table}.{column}"),
            AttrKind::TupleFactor { step } => format!("__tf_step{step}"),
        }
    }
}

/// One fan-out evidence table of an SSAR model.
struct CtxTable {
    /// Set-tuple table name.
    table: String,
    /// Path table the set hangs off.
    anchor: String,
    /// Key column on the anchor (parent side of the fan-out edge).
    anchor_key: String,
    /// Encoded columns of the set table.
    columns: Vec<String>,
    encoders: Vec<AttrEncoder>,
    /// Pre-encoded tokens of the (incomplete) set table: `tokens[a][row]`.
    tokens: Vec<Vec<u32>>,
    /// `id` value per set row (None when the table has no `id` column);
    /// used to exclude the predicted row itself from self-evidence.
    row_ids: Option<Vec<Value>>,
    /// anchor key value → set row indices.
    index: HashMap<Value, Vec<usize>>,
    /// True when `table == path.target()` (self-evidence, §3.3).
    self_evidence: bool,
}

/// A trained completion model for one path.
pub struct CompletionModel {
    path: CompletionPath,
    attrs: Vec<ModelAttr>,
    /// Attr index range of each path table's columns.
    table_ranges: Vec<Range<usize>>,
    /// Attr index of the tuple factor for each step (fan-out steps only).
    tf_attrs: Vec<Option<usize>>,
    made: Made,
    store: ParamStore,
    ctx: Vec<CtxTable>,
    deepsets: Option<DeepSets>,
    /// Every attribute's MASK token — what sampling must never draw.
    mask_tokens: Vec<Option<u32>>,
    /// Per-epoch mean training loss.
    pub train_losses: Vec<f32>,
    /// Held-out per-attribute NLL (the §5 model-selection "test loss").
    pub val_per_attr: Vec<f32>,
    /// Held-out total NLL.
    pub val_loss: f32,
    /// Wall-clock training time of this chain in seconds (Fig. 11). A
    /// build trains chains side by side, so theirs may overlap: the sum
    /// over a build's models can exceed the build's own wall time.
    pub train_seconds: f64,
}

impl CompletionModel {
    pub fn path(&self) -> &CompletionPath {
        &self.path
    }

    pub fn attrs(&self) -> &[ModelAttr] {
        &self.attrs
    }

    pub fn is_ssar(&self) -> bool {
        self.deepsets.is_some()
    }

    /// The trained parameter store — exposed so the training-determinism
    /// contract (bit-identical parameters under any worker count) can be
    /// asserted from outside the crate.
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Whether the degree-banded weights the sweep reads are built — true
    /// for trained and snapshot-rehydrated models alike, which build them
    /// once the weights are final instead of on their first sweep.
    pub fn has_frozen_banded(&self) -> bool {
        self.made.has_frozen_banded()
    }

    /// Attr range holding the columns of path table `idx`.
    pub(crate) fn table_attr_range(&self, idx: usize) -> Range<usize> {
        self.table_ranges[idx].clone()
    }

    /// How many of the last path table's modeled columns, in AR order, a
    /// read of the bare column names `focus` (`None`: every column) needs
    /// drawn: one past the last it names. A name match over-draws at worst.
    pub(crate) fn last_columns_read(&self, focus: Option<&[String]>) -> usize {
        let attrs = &self.attrs[self.table_attr_range(self.path.len() - 1)];
        let Some(focus) = focus else {
            return attrs.len();
        };
        let named = |a: &ModelAttr| match &a.kind {
            AttrKind::Column { column, .. } => focus.contains(column),
            AttrKind::TupleFactor { .. } => false,
        };
        attrs.iter().rposition(named).map_or(0, |i| i + 1)
    }

    /// Attr index of the tuple factor of step `step`, if it is fan-out.
    pub fn tf_attr(&self, step: usize) -> Option<usize> {
        self.tf_attrs[step]
    }

    /// Mean held-out NLL over the target table's attributes — the §5 basic
    /// selection criterion.
    pub fn target_val_loss(&self) -> f32 {
        let range = self.table_attr_range(self.path.len() - 1);
        if range.is_empty() {
            return 0.0;
        }
        let vals = &self.val_per_attr[range.clone()];
        vals.iter().sum::<f32>() / vals.len() as f32
    }

    /// Trains a completion model for `path` on the available data of the
    /// (incomplete) database, its engine on at most [`TrainConfig::workers`]
    /// threads.
    pub fn train(
        db: &Database,
        annotation: &SchemaAnnotation,
        path: CompletionPath,
        cfg: &TrainConfig,
        seed: u64,
    ) -> CoreResult<Self> {
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);

        // Structure first: it consumes RNG only for weight init, so hoisting
        // it before the join build leaves the training stream bit-identical.
        let mut model = Self::build_structure(db, annotation, path, cfg, &mut rng)?;

        // ---- training join ------------------------------------------------
        let join = build_path_join(db, &model.path)?;
        if join.n_rows() < 8 {
            return Err(CoreError::InsufficientData(format!(
                "path {} yields only {} joined rows",
                model.path.describe(),
                join.n_rows()
            )));
        }
        let (tokens, weights) = model.encode_training_tokens(db, &join)?;
        model.fit(cfg, &join, tokens, weights, &mut rng)?;
        // The weights are final: build the sweep's banded weights now, as a
        // loaded model does.
        model.made.freeze_banded(&model.store);
        model.train_seconds = started.elapsed().as_secs_f64();
        Ok(model)
    }

    /// Reconstructs a trained model from persisted weights: rebuilds the
    /// deterministic structure (encoders, context tables, network masks)
    /// from the same incomplete database it was trained on, then streams
    /// the stored little-endian weight bytes straight over the freshly
    /// initialized parameters — one copy, no intermediate matrices. The
    /// seed fed to weight init is irrelevant — every value it produces is
    /// replaced — so the result serves byte-identically to the original.
    /// The degree-banded weight matrices the synthesis sweep reads are built
    /// here too, so no query's first sweep pays for them. The training
    /// statistics are the caller's to restore.
    pub(crate) fn rehydrate(
        db: &Database,
        annotation: &SchemaAnnotation,
        path: CompletionPath,
        cfg: &TrainConfig,
        weights: &[u8],
    ) -> CoreResult<Self> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Self::build_structure(db, annotation, path, cfg, &mut rng)?;
        model.store.import_raw_le(weights).map_err(|e| {
            CoreError::Invalid(format!(
                "snapshot weights for {}: {e}",
                model.path.describe()
            ))
        })?;
        model.made.freeze_banded(&model.store);
        Ok(model)
    }

    /// Builds the untrained model: the attribute layout with fitted
    /// encoders, the SSAR context tables, and the network with freshly
    /// initialized parameters. Everything here is a deterministic function
    /// of `(db, annotation, path, cfg)` — the only RNG consumption is weight
    /// initialization — which is what makes snapshot rehydration
    /// byte-exact: the loader replays this and then overwrites the weights.
    fn build_structure(
        db: &Database,
        annotation: &SchemaAnnotation,
        path: CompletionPath,
        cfg: &TrainConfig,
        rng: &mut StdRng,
    ) -> CoreResult<Self> {
        // ---- attribute layout & encoders --------------------------------
        let mut attrs: Vec<ModelAttr> = Vec::new();
        let mut table_ranges = Vec::with_capacity(path.len());
        let mut tf_attrs = vec![None; path.steps().len()];
        for (i, tname) in path.tables().iter().enumerate() {
            let table = db.table(tname)?;
            let start = attrs.len();
            for col in modeled_columns(table) {
                let encoder = AttrEncoder::fit(table.column_by_name(&col)?, MAX_BINS);
                attrs.push(ModelAttr {
                    kind: AttrKind::Column {
                        table: tname.clone(),
                        column: col,
                    },
                    encoder,
                });
            }
            table_ranges.push(start..attrs.len());
            if let Some(step) = path.steps().get(i).filter(|s| s.fan_out) {
                // Tuple factor of this step, fit on the parent's known factors.
                let parent = db.table(&step.fk.parent)?;
                let known = known_tuple_factors(db, step, parent)?;
                let encoder = AttrEncoder::fit_tuple_factor(known.into_iter().flatten(), TF_CAP);
                tf_attrs[i] = Some(attrs.len());
                attrs.push(ModelAttr {
                    kind: AttrKind::TupleFactor { step: i },
                    encoder,
                });
            }
        }
        if attrs.is_empty() {
            return Err(CoreError::Invalid(format!(
                "path {} has no modeled attributes",
                path.describe()
            )));
        }

        // ---- SSAR context (decided before the network: a path without
        // fan-out evidence degrades to a plain AR model) -------------------
        let ctx = if cfg.is_ssar() {
            build_ctx_tables(db, annotation, &path)?
        } else {
            Vec::new()
        };
        let effective_ctx_dim = if ctx.is_empty() { 0 } else { cfg.ctx_dim };

        // ---- network -------------------------------------------------------
        let mut store = ParamStore::new();
        let specs: Vec<AttrSpec> = attrs
            .iter()
            .map(|a| AttrSpec::new(a.encoder.model_cardinality(), EMBED_DIM))
            .collect();
        let made_cfg = MadeConfig::new(specs)
            .with_ctx(effective_ctx_dim)
            .with_hidden(cfg.hidden.clone());
        let made = Made::new(made_cfg, &mut store, rng);

        let deepsets = if ctx.is_empty() {
            None
        } else {
            let ds_cfg = DeepSetsConfig {
                tables: ctx
                    .iter()
                    .map(|c| {
                        SetTableSpec::new(
                            c.encoders.iter().map(|e| e.model_cardinality()).collect(),
                            EMBED_DIM,
                        )
                    })
                    .collect(),
                ctx_dim: cfg.ctx_dim,
            };
            Some(DeepSets::new(&ds_cfg, &mut store, rng))
        };

        let mask_tokens = (attrs.iter())
            .map(|a| Some(a.encoder.mask_token()))
            .collect();
        Ok(Self {
            path,
            attrs,
            table_ranges,
            tf_attrs,
            made,
            store,
            ctx,
            deepsets,
            mask_tokens,
            train_losses: Vec::new(),
            val_per_attr: Vec::new(),
            val_loss: 0.0,
            train_seconds: 0.0,
        })
    }

    /// Encodes the training join into token + loss-weight columns: MASK — a
    /// NULL, a NaN, an unknown factor — carries no loss weight.
    fn encode_training_tokens(&self, db: &Database, join: &Table) -> CoreResult<TokenColumns> {
        let mut tokens: Vec<Vec<u32>> = Vec::with_capacity(self.attrs.len());
        let mut weights: Vec<Vec<f32>> = Vec::with_capacity(self.attrs.len());
        for attr in &self.attrs {
            let column = match &attr.kind {
                AttrKind::Column { table, column } => {
                    let idx = join.resolve(&format!("{table}.{column}"))?;
                    attr.encoder.encode_column(join.column(idx), None)
                }
                AttrKind::TupleFactor { step } => {
                    let step = &self.path.steps()[*step];
                    let known = known_tuple_factors(db, step, join)?;
                    attr.encoder.encode_ints(&known, None)
                }
            };
            let mask = attr.encoder.mask_token();
            weights.push(column.iter().map(|&t| f32::from(t != mask)).collect());
            tokens.push(column);
        }
        Ok((tokens, weights))
    }

    fn fit(
        &mut self,
        cfg: &TrainConfig,
        join: &Table,
        tokens: Vec<Vec<u32>>,
        weights: Vec<Vec<f32>>,
        rng: &mut StdRng,
    ) -> CoreResult<()> {
        let n = tokens[0].len();
        // Subsample + shuffle once; split off validation tail.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        order.truncate(cfg.max_train_rows.max(16));
        let n_val = ((order.len() as f64 * VAL_FRACTION) as usize).clamp(1, order.len() / 2 + 1);
        let val_rows: Vec<usize> = order.split_off(order.len() - n_val);
        let train_rows = order;

        let mut adam = Adam::new(&self.store, LR);
        // The engine's tapes and gradient-buffer pool live for the whole
        // training run: after the first epoch every step reuses its arenas.
        let mut engine = TrainEngine::new(cfg.engine_workers());
        let bs = cfg.batch_size.max(8);
        let batches_per_epoch = train_rows.len().div_ceil(bs).max(1);
        let epochs = cfg.epochs.max(cfg.min_steps.div_ceil(batches_per_epoch));

        // Early stopping on the held-out split: small training joins (a few
        // hundred rows) overfit quickly, which would both hurt the
        // completion and corrupt the §5 test-loss selection signal. Best
        // parameters are double-buffered: one buffer allocated on the first
        // improvement, value-copied in place on every later one.
        let mut best_val = f32::INFINITY;
        let mut best_store: Option<ParamStore> = None;
        let mut stale = 0usize;
        for _epoch in 0..epochs {
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in train_rows.chunks(bs) {
                let loss =
                    self.train_step(&mut engine, join, &tokens, &weights, chunk, &mut adam)?;
                epoch_loss += loss as f64;
                batches += 1;
            }
            self.train_losses
                .push((epoch_loss / batches.max(1) as f64) as f32);
            let val = self.validate(join, &tokens, &weights, &val_rows)?.loss;
            if val < best_val - 1e-4 {
                best_val = val;
                match &mut best_store {
                    Some(buf) => buf.copy_values_from(&self.store),
                    None => best_store = Some(self.store.clone()),
                }
                stale = 0;
            } else {
                stale += 1;
                if stale >= PATIENCE {
                    break;
                }
            }
        }
        if let Some(best) = &best_store {
            self.store.copy_values_from(best);
        }

        let loss = self.validate(join, &tokens, &weights, &val_rows)?;
        self.val_per_attr = loss.per_attr;
        self.val_loss = loss.loss;
        Ok(())
    }

    /// Held-out NLL with the current parameters.
    fn validate(
        &self,
        join: &Table,
        tokens: &[Vec<u32>],
        weights: &[Vec<f32>],
        val_rows: &[usize],
    ) -> CoreResult<restore_nn::BlockLoss> {
        let btoks = batch_tokens(tokens, val_rows, tokens.len());
        let bweights = gather_weights(weights, val_rows);
        let mut session = InferenceSession::new();
        let ctx_matrix = self.context_matrix_in(&mut session, join, val_rows, true)?;
        Ok(self
            .made
            .evaluate(&self.store, &btoks, ctx_matrix.as_ref(), Some(&bweights)))
    }

    /// One data-parallel gradient step: the batch is split into
    /// microbatches of [`MICROBATCH`] rows, each microbatch's forward +
    /// backward runs on a worker with its own arena tape and gradient
    /// buffer, and the buffers reduce into the store in ascending
    /// microbatch order. Per-microbatch `dlogits` are normalized by the
    /// *whole batch's* target weight, so the reduced gradient equals the
    /// full-batch gradient regardless of the split — and is bit-identical
    /// under any worker count.
    fn train_step(
        &mut self,
        engine: &mut TrainEngine,
        join: &Table,
        tokens: &[Vec<u32>],
        weights: &[Vec<f32>],
        rows: &[usize],
        adam: &mut Adam,
    ) -> CoreResult<f32> {
        let mut w_total = 0.0f64;
        for col in weights {
            for &r in rows {
                w_total += col[r] as f64;
            }
        }
        if w_total == 0.0 {
            return Ok(0.0);
        }
        let norm = 1.0 / w_total as f32;

        // Disjoint field borrows: the closure reads the model parts while
        // the engine mutates the store.
        let made = &self.made;
        let deepsets = self.deepsets.as_ref();
        let ctx_tables = &self.ctx;

        let loss_sum = engine.step(
            &mut self.store,
            rows,
            MICROBATCH,
            |tape, store, chunk, grads| -> CoreResult<f64> {
                let btoks = batch_tokens(tokens, chunk, tokens.len());
                let bweights = gather_weights(weights, chunk);
                let set_batch = match deepsets {
                    Some(_) => Some(assemble_set_batch(ctx_tables, join, chunk, true)?),
                    None => None,
                };
                let mut f = tape.ctx(store);
                let ctx_var = deepsets
                    .zip(set_batch.as_ref())
                    .map(|(ds, batch)| ds.forward(&mut f, store, batch, chunk.len()));
                let logits = made.forward(&mut f, store, &btoks, ctx_var);
                let targets: Vec<&[u32]> = btoks.iter().map(|t| t.as_slice()).collect();
                let sums = block_cross_entropy_sums(
                    f.value(logits),
                    made.layout(),
                    &targets,
                    Some(&bweights),
                );
                let mut dlogits = sums.dlogits;
                dlogits.scale_assign(norm);
                tape.backward_with(logits, dlogits, store, grads);
                Ok(sums.loss_sum)
            },
        )?;
        self.store.clip_grad_norm(CLIP_NORM);
        adam.step(&mut self.store);
        Ok((loss_sum / w_total) as f32)
    }

    /// DeepSets context matrix for specific join rows, encoded on the
    /// session's tape without a gradient (`None` for a plain AR model).
    fn context_matrix_in(
        &self,
        session: &mut InferenceSession,
        join: &Table,
        rows: &[usize],
        exclude_self: bool,
    ) -> CoreResult<Option<Matrix>> {
        let Some(ds) = &self.deepsets else {
            return Ok(None);
        };
        let batch = assemble_set_batch(&self.ctx, join, rows, exclude_self)?;
        Ok(Some(
            ds.encode_in(session, &self.store, &batch, rows.len())
                .clone(),
        ))
    }

    /// Encodes the columns of a (partial) completed join into model tokens.
    /// Attributes whose table is not yet part of the join (or whose value is
    /// NULL) get the MASK token. Tuple-factor attrs are filled from
    /// `tf_values[step]` where available.
    pub fn encode_tokens(&self, join: &Table, tf_values: &[Vec<Option<i64>>]) -> Vec<Vec<u32>> {
        (0..self.attrs.len())
            .map(|a| self.encode_attr_column(join, tf_values, a, None))
            .collect()
    }

    /// Encodes one attribute's token column for `rows` of `join` (for every
    /// row when `None`) — the unit of the completion engine's incremental
    /// encoding cache, which re-encodes only the attributes a synthesis step
    /// actually changed, and of the §6 conditionals, which encode only the
    /// rows they evaluate.
    pub(crate) fn encode_attr_column(
        &self,
        join: &Table,
        tf_values: &[Vec<Option<i64>>],
        attr_idx: usize,
        rows: Option<&[usize]>,
    ) -> Vec<u32> {
        let attr = &self.attrs[attr_idx];
        let unknown = || vec![attr.encoder.mask_token(); rows.map_or(join.n_rows(), <[_]>::len)];
        match &attr.kind {
            AttrKind::Column { table, column } => {
                match join.resolve(&format!("{table}.{column}")) {
                    Ok(idx) => attr.encoder.encode_column(join.column(idx), rows),
                    Err(_) => unknown(),
                }
            }
            AttrKind::TupleFactor { step } => match tf_values.get(*step) {
                Some(vals) if vals.len() == join.n_rows() => attr.encoder.encode_ints(vals, rows),
                _ => unknown(),
            },
        }
    }

    /// Predicts the tuple factor of `step` for the given join rows,
    /// conditioning on everything before it — the RNG-free half: the
    /// per-row *expected value* of the conditional distribution, which
    /// [`CompletionModel::round_tf_expectations`] rounds stochastically.
    /// The expectation is used rather than a plain sample: the completion
    /// clamps factors to at least the observed partner count (`max(tf,
    /// existing)`), which would turn sampling variance into a systematic
    /// cardinality overshoot; the expectation keeps completed cardinalities
    /// unbiased. Each row's value depends only on that row's tokens, so the
    /// completion engine fuses rows into a few large chunks (one sweep
    /// setup pass per chunk instead of one per sampling batch) without
    /// changing any value. The session is the caller's: each completion
    /// worker keeps one warm across batches and path steps (parameters are
    /// frozen at completion time, so the sweep's degree-banded weight
    /// caches it holds stay valid for the whole walk).
    pub fn tf_expectations_encoded_in(
        &self,
        session: &mut InferenceSession,
        join: &Table,
        encoded: &[Vec<u32>],
        step: usize,
        rows: &[usize],
    ) -> CoreResult<Vec<f64>> {
        let attr_idx = self.tf_attrs[step]
            .ok_or_else(|| CoreError::Invalid(format!("step {step} has no tuple factor")))?;
        let enc = &self.attrs[attr_idx].encoder;
        let worth: Vec<f64> = (0..enc.cardinality() as u32)
            .map(|token| enc.decode(token).as_i64().unwrap_or(0) as f64)
            .collect();
        let mut expectations = Vec::with_capacity(rows.len());
        self.conditional_dists_encoded_in(session, join, encoded, attr_idx, rows, |_, d| {
            expectations.push(d.iter().zip(&worth).map(|(&p, w)| p as f64 * w).sum())
        })?;
        Ok(expectations)
    }

    /// The stochastic-rounding half of
    /// [`CompletionModel::tf_expectations_encoded_in`]: exactly one draw per row
    /// (unconditionally, so the stream position depends only on the row
    /// count), keeping completed cardinalities unbiased without sampling
    /// variance turning the `max(tf, existing)` clamp into overshoot.
    pub fn round_tf_expectations(expectations: &[f64], rng: &mut StdRng) -> Vec<i64> {
        expectations
            .iter()
            .map(|&expected| {
                let floor = expected.floor();
                let frac = expected - floor;
                floor as i64 + (rng.random::<f64>() < frac) as i64
            })
            .collect()
    }

    /// Samples all column attributes of path table `table_idx` for the given
    /// join rows of pre-encoded tokens, over a caller-owned session (see
    /// [`CompletionModel::tf_expectations_encoded_in`]); returns decoded
    /// values per modeled column — the decoding wrapper of
    /// `CompletionModel::sample_table_tokens_in`.
    pub fn sample_table_columns_encoded_in(
        &self,
        session: &mut InferenceSession,
        join: &Table,
        encoded: &[Vec<u32>],
        table_idx: usize,
        rows: &[usize],
        rng: &mut StdRng,
    ) -> CoreResult<Vec<Vec<Value>>> {
        let all = usize::MAX;
        let sampled =
            self.sample_table_tokens_in(session, join, encoded, table_idx, all, rows, rng)?;
        let attrs = &self.attrs[self.table_attr_range(table_idx)];
        Ok(sampled
            .into_iter()
            .zip(attrs)
            .map(|(toks, attr)| toks.into_iter().map(|t| attr.encoder.decode(t)).collect())
            .collect())
    }

    /// Samples the first `columns` column attributes of path table
    /// `table_idx`, in AR order, for the given join rows as tokens, one vec
    /// per drawn column — what the walk assembles its synthesized blocks
    /// from. Batched iterative forward sampling on the sweep
    /// ([`Made::sample_range_in`]): one gradient-free logit-block
    /// evaluation per attribute fills it for the whole row batch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sample_table_tokens_in(
        &self,
        session: &mut InferenceSession,
        join: &Table,
        encoded: &[Vec<u32>],
        table_idx: usize,
        columns: usize,
        rows: &[usize],
        rng: &mut StdRng,
    ) -> CoreResult<Vec<Vec<u32>>> {
        let full = self.table_attr_range(table_idx);
        let range = full.start..full.start + columns.min(full.len());
        if range.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch = batch_tokens(encoded, rows, range.end);
        let ctx = self.context_matrix_in(session, join, rows, false)?;
        self.made.sample_range_in(
            session,
            &self.store,
            &mut batch,
            ctx.as_ref(),
            range.start,
            range.end,
            &self.mask_tokens,
            rng,
        );
        // The session retains nothing, so each sampled column moves out.
        let sampled = batch.drain(range);
        Ok(sampled
            .map(|col| Arc::try_unwrap(col).unwrap_or_else(|shared| (*shared).clone()))
            .collect())
    }

    /// Conditional distributions of attribute `attr_idx` for the given rows
    /// of a completed join (the §6 confidence machinery's view of the
    /// model): `visit` sees one per row, in row order, MASK dropped and
    /// renormalized.
    ///
    /// Only what the conditional reads is computed. The attributes before
    /// `attr_idx` are encoded for these rows alone — the rest of each batch
    /// is MASK placeholders, which the network ignores by construction —
    /// and the rows run through one session in chunks of `batch_size`, each
    /// chunk's distributions handed over before the next is evaluated. A
    /// row's distribution is a function of that row's tokens and evidence
    /// sets and nothing else, so the chunking cannot change a bit of it.
    pub(crate) fn conditional_dists(
        &self,
        join: &Table,
        tf_values: &[Vec<Option<i64>>],
        attr_idx: usize,
        rows: &[usize],
        batch_size: usize,
        mut visit: impl FnMut(&[f32]),
    ) -> CoreResult<()> {
        let prefix: Vec<Vec<u32>> = (0..attr_idx)
            .map(|a| self.encode_attr_column(join, tf_values, a, Some(rows)))
            .collect();
        let mut session = InferenceSession::new();
        let batch_size = batch_size.max(1);
        for (k, chunk) in rows.chunks(batch_size).enumerate() {
            let span = k * batch_size..k * batch_size + chunk.len();
            let batch: Vec<Arc<Vec<u32>>> = (self.attrs.iter().enumerate())
                .map(|(a, attr)| match prefix.get(a) {
                    Some(tokens) => tokens[span.clone()].to_vec(),
                    None => vec![attr.encoder.mask_token(); chunk.len()],
                })
                .map(Arc::new)
                .collect();
            self.visit_conditionals(&mut session, join, &batch, attr_idx, chunk, |_, d| visit(d))?;
        }
        Ok(())
    }

    /// The conditional distribution of `attr_idx` for the given rows of
    /// `join`, read out of token columns that cover the whole join — one
    /// batch, however many rows: `visit(i, dist)` sees `rows[i]`'s, in
    /// order, MASK dropped.
    pub fn conditional_dists_encoded_in(
        &self,
        session: &mut InferenceSession,
        join: &Table,
        encoded: &[Vec<u32>],
        attr_idx: usize,
        rows: &[usize],
        visit: impl FnMut(usize, &[f32]),
    ) -> CoreResult<()> {
        let batch = batch_tokens(encoded, rows, attr_idx);
        self.visit_conditionals(session, join, &batch, attr_idx, rows, visit)
    }

    /// The conditional distribution of `attr_idx` for a batch of token
    /// rows — `rows` are the join rows they stand for, which is where an
    /// SSAR model finds their evidence sets: `visit(i, dist)` sees batch
    /// row `i`'s, in order, over the attribute's `cardinality()` real
    /// tokens. The sampler's rule drops MASK ([`Made::conditional_dists_in`]
    /// with the MASK token excluded): it is zeroed and the rest
    /// renormalized, once per distinct evidence prefix.
    fn visit_conditionals(
        &self,
        session: &mut InferenceSession,
        join: &Table,
        batch: &[Arc<Vec<u32>>],
        attr_idx: usize,
        rows: &[usize],
        mut visit: impl FnMut(usize, &[f32]),
    ) -> CoreResult<()> {
        let ctx = self.context_matrix_in(session, join, rows, false)?;
        let card = self.attrs[attr_idx].encoder.cardinality();
        self.made.conditional_dists_in(
            session,
            &self.store,
            batch,
            ctx.as_ref(),
            attr_idx,
            self.mask_tokens[attr_idx],
            |i, d| visit(i, &d[..card]),
        );
        Ok(())
    }

    /// Marginal (training-data) distribution of an attribute — the
    /// `P_incomplete` of the §6 certainty computation.
    pub(crate) fn training_marginal(&self, db: &Database, attr_idx: usize) -> CoreResult<Vec<f32>> {
        let attr = &self.attrs[attr_idx];
        let AttrKind::Column { table, column } = &attr.kind else {
            return Err(CoreError::Invalid(
                "marginals only exist for column attrs".into(),
            ));
        };
        let t = db.table(table)?;
        let col = t.column_by_name(column)?;
        let card = attr.encoder.cardinality();
        let mut counts = vec![0.0f32; card];
        let mut total = 0.0f32;
        for tok in attr.encoder.encode_column(col, None) {
            if let Some(count) = counts.get_mut(tok as usize) {
                *count += 1.0;
                total += 1.0;
            }
        }
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        Ok(counts)
    }

    /// Index of the model attribute for `table.column`, if modeled.
    pub fn attr_index(&self, table: &str, column: &str) -> Option<usize> {
        self.attrs.iter().position(|a| {
            matches!(&a.kind, AttrKind::Column { table: t, column: c } if t == table && c == column)
        })
    }
}

/// Assembles the fan-out evidence sets for a batch of join rows — a free
/// function over the context tables so the training closure can capture it
/// disjointly from the parameter store.
fn assemble_set_batch(
    ctx: &[CtxTable],
    join: &Table,
    rows: &[usize],
    exclude_self: bool,
) -> CoreResult<SetBatch> {
    let mut tables = Vec::with_capacity(ctx.len());
    for ct in ctx {
        let anchor_ref = format!("{}.{}", ct.anchor, ct.anchor_key);
        let anchor_idx = join.resolve(&anchor_ref).ok();
        // Self-evidence exclusion: match the set tuple's id against the
        // join row's target id.
        let self_id_idx = if exclude_self && ct.self_evidence {
            join.resolve(&format!("{}.id", ct.table)).ok()
        } else {
            None
        };
        let mut tokens: Vec<Vec<u32>> = vec![Vec::new(); ct.columns.len()];
        let mut segments = Vec::new();
        if let Some(aidx) = anchor_idx {
            for (pos, &r) in rows.iter().enumerate() {
                let key = join.value(r, aidx);
                if key.is_null() {
                    continue;
                }
                let Some(members) = ct.index.get(&key) else {
                    continue;
                };
                let self_id = self_id_idx.map(|i| join.value(r, i));
                let mut taken = 0usize;
                for &m in members {
                    if taken >= MAX_SET_SIZE {
                        break;
                    }
                    if let (Some(sid), Some(ids)) = (&self_id, &ct.row_ids) {
                        if !sid.is_null() && &ids[m] == sid {
                            continue;
                        }
                    }
                    for (a, col) in tokens.iter_mut().enumerate() {
                        col.push(ct.tokens[a][m]);
                    }
                    segments.push(pos as u32);
                    taken += 1;
                }
            }
        }
        tables.push(TableSet {
            tokens: tokens.into_iter().map(Arc::new).collect(),
            segments: Arc::new(segments),
        });
    }
    Ok(SetBatch { tables })
}

/// Joins the path tables over the available (incomplete) data.
pub fn build_path_join(db: &Database, path: &CompletionPath) -> CoreResult<Table> {
    let mut join = db.table(path.root())?.qualified();
    for step in path.steps() {
        let (left_on, right_on) = step.join_keys();
        let right = db.table(step.to_table())?;
        join = hash_join(&join, &left_on, right, &right_on, "join")?;
    }
    Ok(join)
}

/// The training side's known tuple factors of fan-out `step`, one per row of
/// `rows` — the step's parent table (to fit the factor's encoder) or a join
/// holding it (to encode the training join): the parent's `__tf_<child>`
/// value where that column exists, a NULL staying unknown, and the observed
/// partner count where it does not.
///
/// Algorithm 1's walk reads factors differently (`Factors::split` in
/// `completion.rs`): it asks the annotation, and where no known value is
/// given it predicts the factor of an incomplete child rather than taking
/// its partner count. The two agree where the column exists for exactly
/// the parents of children that lost tuples, as `apply_removal` adds it.
/// A database with an incomplete child and no column (the
/// `data_integration` example's) is read both ways: training takes the
/// surviving counts as known factors, the walk predicts them.
fn known_tuple_factors(
    db: &Database,
    step: &PathStep,
    rows: &Table,
) -> CoreResult<Vec<Option<i64>>> {
    let tf_ref = format!("{}.{}", step.fk.parent, tf_column_name(&step.fk.child));
    if let Ok(idx) = rows.resolve(&tf_ref) {
        return Ok((0..rows.n_rows())
            .map(|r| rows.value(r, idx).as_i64())
            .collect());
    }
    let (parent_on, child_on) = step.join_keys();
    let child = db.table(&step.fk.child)?;
    let counts = join_pairs(rows, &parent_on, child, &child_on)?.partners;
    Ok(counts.into_iter().map(|c| Some(c as i64)).collect())
}

/// Column-major training tokens plus per-attribute loss weights.
type TokenColumns = (Vec<Vec<u32>>, Vec<Vec<f32>>);

/// The token columns of a batch over `rows`: the first `used`
/// attributes gathered out of `encoded`. The network neither reads nor
/// range-checks a later attribute's tokens (a sampled range is overwritten),
/// so those columns share one filler of the batch's length.
fn batch_tokens(encoded: &[Vec<u32>], rows: &[usize], used: usize) -> Vec<Arc<Vec<u32>>> {
    let unread = Arc::new(vec![0; rows.len()]);
    (encoded.iter().enumerate())
        .map(|(a, col)| {
            if a < used {
                Arc::new(rows.iter().map(|&r| col[r]).collect())
            } else {
                Arc::clone(&unread)
            }
        })
        .collect()
}

/// Gathers batch rows out of column-major loss weights.
fn gather_weights(weights: &[Vec<f32>], rows: &[usize]) -> Vec<Vec<f32>> {
    (weights.iter())
        .map(|col| rows.iter().map(|&r| col[r]).collect())
        .collect()
}

/// Builds the SSAR context tables: self-evidence (available target-table
/// siblings) plus fan-out neighbors of the evidence root that are not on
/// the path (§3.3).
fn build_ctx_tables(
    db: &Database,
    annotation: &SchemaAnnotation,
    path: &CompletionPath,
) -> CoreResult<Vec<CtxTable>> {
    let mut out = Vec::new();
    let mut candidates: Vec<(String, String, PathStep, bool)> = Vec::new();

    // Self-evidence: when the final step fans out, the available children of
    // the second-to-last table are evidence for the missing ones.
    if let Some(last) = path.steps().last() {
        if last.fan_out {
            candidates.push((
                last.fk.child.clone(),
                last.fk.parent.clone(),
                last.clone(),
                true,
            ));
        }
    }
    // Fan-out neighbors of the evidence root not on the path.
    for step in db.neighbors(path.root()) {
        if step.fan_out && !path.tables().iter().any(|t| t == step.to_table()) {
            // Only complete neighbors are reliable evidence.
            if annotation.is_complete(step.to_table()) {
                candidates.push((
                    step.fk.child.clone(),
                    step.fk.parent.clone(),
                    step.clone(),
                    false,
                ));
            }
        }
    }

    for (table_name, anchor, step, self_evidence) in candidates {
        let table = db.table(&table_name)?;
        let columns = modeled_columns(table);
        if columns.is_empty() {
            continue;
        }
        let encoders: Vec<AttrEncoder> = columns
            .iter()
            .map(|c| Ok(AttrEncoder::fit(table.column_by_name(c)?, MAX_BINS)))
            .collect::<CoreResult<_>>()?;
        // Pre-encode all rows.
        let tokens: Vec<Vec<u32>> = (columns.iter().zip(&encoders))
            .map(|(c, enc)| Ok(enc.encode_column(table.column_by_name(c)?, None)))
            .collect::<CoreResult<_>>()?;
        let row_ids = table.resolve("id").ok().map(|idx| {
            (0..table.n_rows())
                .map(|r| table.value(r, idx))
                .collect::<Vec<Value>>()
        });
        // Index by the FK value pointing at the anchor.
        let fk_idx = table.resolve(&step.fk.child_col)?;
        let mut index: HashMap<Value, Vec<usize>> = HashMap::new();
        for r in 0..table.n_rows() {
            let key = table.value(r, fk_idx);
            if !key.is_null() {
                index.entry(key).or_default().push(r);
            }
        }
        out.push(CtxTable {
            table: table_name,
            anchor,
            anchor_key: step.fk.parent_col.clone(),
            columns,
            encoders,
            tokens,
            row_ids,
            index,
            self_evidence,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_data::{apply_removal, BiasSpec, RemovalConfig, SyntheticConfig};

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 8,
            batch_size: 128,
            hidden: vec![32, 32],
            max_train_rows: 4000,
            ..Default::default()
        }
    }

    fn synthetic_scenario(predictability: f64, seed: u64) -> restore_data::Scenario {
        let db = restore_data::generate_synthetic(
            &SyntheticConfig {
                predictability,
                n_parent: 250,
                ..Default::default()
            },
            seed,
        );
        let mut cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.5, 0.6);
        cfg.seed = seed;
        apply_removal(&db, &cfg)
    }

    fn trained_model(predictability: f64, seed: u64) -> (restore_data::Scenario, CompletionModel) {
        let sc = synthetic_scenario(predictability, seed);
        let ann = SchemaAnnotation::with_incomplete(["tb"]);
        let path =
            CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
        let model = CompletionModel::train(&sc.incomplete, &ann, path, &quick_cfg(), seed).unwrap();
        (sc, model)
    }

    /// Parent `p` with ids 1..=3 and children `c` of ids 1, 1 and 2, with a
    /// `__tf_c` column of `tf` if given.
    fn parent_child_db(tf: Option<[Option<i64>; 3]>) -> Database {
        use restore_db::{DataType, Field, ForeignKey};
        let int = |name: &str| Field::new(name, DataType::Int);
        let cell = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        let mut fields = vec![int("id")];
        fields.extend(tf.map(|_| int(&tf_column_name("c"))));
        let mut parent = Table::new("p", fields);
        for r in 0..3 {
            let mut row = vec![Value::Int(r as i64 + 1)];
            row.extend(tf.map(|tf| cell(tf[r])));
            parent.push_row(&row).unwrap();
        }
        let mut child = Table::new("c", vec![int("id"), int("p_id")]);
        for (id, p_id) in [(1, 1), (2, 1), (3, 2)] {
            child.push_row(&[Value::Int(id), Value::Int(p_id)]).unwrap();
        }
        let mut db = Database::new();
        db.add_table(parent);
        db.add_table(child);
        db.add_foreign_key(ForeignKey::new("c", "p_id", "p", "id"))
            .unwrap();
        db
    }

    #[test]
    fn known_tuple_factors_read_the_column_else_the_partner_counts() {
        // The column's values, a NULL staying unknown, on the parent table
        // and on a join holding it alike.
        let tf = [Some(4), None, Some(0)];
        let db = parent_child_db(Some(tf));
        let step = db.edge_between("p", "c").unwrap();
        let parent = db.table("p").unwrap();
        assert_eq!(known_tuple_factors(&db, &step, parent).unwrap(), tf);
        let join = parent.qualified();
        assert_eq!(known_tuple_factors(&db, &step, &join).unwrap(), tf);
        // No column: every row's observed partner count.
        let db = parent_child_db(None);
        let parent = db.table("p").unwrap();
        let counts = [Some(2), Some(1), Some(0)];
        assert_eq!(known_tuple_factors(&db, &step, parent).unwrap(), counts);
        let join = parent.qualified();
        assert_eq!(known_tuple_factors(&db, &step, &join).unwrap(), counts);
    }

    #[test]
    fn attribute_layout_has_tf_before_target() {
        let (_, model) = trained_model(0.9, 1);
        // attrs: [ta.a, TF, tb.b]
        assert_eq!(model.attrs().len(), 3);
        assert!(matches!(model.attrs()[0].kind, AttrKind::Column { .. }));
        assert!(matches!(
            model.attrs()[1].kind,
            AttrKind::TupleFactor { step: 0 }
        ));
        assert_eq!(model.table_attr_range(0), 0..1);
        assert_eq!(model.table_attr_range(1), 2..3);
        assert_eq!(model.tf_attr(0), Some(1));
    }

    #[test]
    fn training_loss_decreases() {
        let (_, model) = trained_model(1.0, 2);
        let first = model.train_losses.first().copied().unwrap();
        let last = model.train_losses.last().copied().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn predictable_data_has_lower_val_loss() {
        // Fig. 5b: test loss grows as predictability falls.
        let (_, hi) = trained_model(1.0, 3);
        let (_, lo) = trained_model(0.2, 3);
        assert!(
            hi.target_val_loss() < lo.target_val_loss(),
            "val loss: predictable {} vs noise {}",
            hi.target_val_loss(),
            lo.target_val_loss()
        );
    }

    #[test]
    fn sampled_values_follow_the_conditional() {
        let (sc, model) = trained_model(1.0, 4);
        // Evidence join = just ta (qualified); sample TF and b for each row.
        let ta = sc.incomplete.table("ta").unwrap().qualified();
        let rows: Vec<usize> = (0..40).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let tf_slots: Vec<Vec<Option<i64>>> = vec![vec![None; ta.n_rows()]];
        let encoded = model.encode_tokens(&ta, &tf_slots);
        let mut session = InferenceSession::new();
        let vals = model
            .sample_table_columns_encoded_in(&mut session, &ta, &encoded, 1, &rows, &mut rng)
            .unwrap();
        // With predictability 1.0, b must equal f(a) = a mod 10 for most rows.
        let a_idx = ta.resolve("ta.a").unwrap();
        let mut correct = 0;
        for (i, &r) in rows.iter().enumerate() {
            let a: usize = ta.value(r, a_idx).as_str().unwrap()[1..].parse().unwrap();
            let b = vals[0][i].to_string();
            if b == format!("b{}", a % 10) {
                correct += 1;
            }
        }
        assert!(
            correct >= 30,
            "only {correct}/40 samples followed the deterministic rule"
        );
    }

    #[test]
    fn sampled_tuple_factors_are_plausible() {
        let (sc, model) = trained_model(0.9, 5);
        let ta = sc.incomplete.table("ta").unwrap().qualified();
        let rows: Vec<usize> = (0..ta.n_rows()).collect();
        let mut rng = StdRng::seed_from_u64(10);
        let tf_slots: Vec<Vec<Option<i64>>> = vec![vec![None; ta.n_rows()]];
        let encoded = model.encode_tokens(&ta, &tf_slots);
        let mut session = InferenceSession::new();
        let expectations = model
            .tf_expectations_encoded_in(&mut session, &ta, &encoded, 0, &rows)
            .unwrap();
        let tfs = CompletionModel::round_tf_expectations(&expectations, &mut rng);
        // True fan-outs are 5..7; sampled factors must stay in a sane band.
        let mean = tfs.iter().sum::<i64>() as f64 / tfs.len() as f64;
        assert!(
            (4.0..8.0).contains(&mean),
            "sampled TF mean {mean} implausible"
        );
        assert!(tfs.iter().all(|&t| (0..=64).contains(&t)));
    }

    #[test]
    fn conditional_dist_excludes_mask_and_normalizes() {
        let (sc, model) = trained_model(0.8, 6);
        let ta = sc.incomplete.table("ta").unwrap().qualified();
        let tf_slots: Vec<Vec<Option<i64>>> = vec![vec![None; ta.n_rows()]];
        let b_attr = model.attr_index("tb", "b").unwrap();
        let mut seen = 0;
        let check = |d: &[f32]| {
            assert_eq!(d.len(), model.attrs()[b_attr].encoder.cardinality());
            let s: f32 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
            seen += 1;
        };
        model
            .conditional_dists(&ta, &tf_slots, b_attr, &[0, 1, 2], 2, check)
            .unwrap();
        assert_eq!(seen, 3, "one distribution per row, across chunks");
    }

    #[test]
    fn ssar_model_trains_with_self_evidence() {
        let sc = synthetic_scenario(0.5, 7);
        let ann = SchemaAnnotation::with_incomplete(["tb"]);
        let path =
            CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
        let cfg = quick_cfg().ssar();
        let model = CompletionModel::train(&sc.incomplete, &ann, path, &cfg, 7).unwrap();
        assert!(model.is_ssar());
        let first = model.train_losses.first().copied().unwrap();
        let last = model.train_losses.last().copied().unwrap();
        assert!(last <= first);
    }

    #[test]
    fn insufficient_data_is_an_error() {
        let db = restore_data::generate_synthetic(
            &SyntheticConfig {
                n_parent: 10,
                ..Default::default()
            },
            8,
        );
        // Remove everything but a couple of rows.
        let mut cfg = RemovalConfig::new(BiasSpec::categorical("tb", "b"), 0.02, 0.0);
        cfg.seed = 8;
        let sc = apply_removal(&db, &cfg);
        let ann = SchemaAnnotation::with_incomplete(["tb"]);
        let path =
            CompletionPath::from_tables(&sc.incomplete, &["ta".into(), "tb".into()]).unwrap();
        assert!(matches!(
            CompletionModel::train(&sc.incomplete, &ann, path, &quick_cfg(), 8),
            Err(CoreError::InsufficientData(_))
        ));
    }
}
