//! MADE — Masked Autoencoder for Distribution Estimation (Germain et al.),
//! the deep autoregressive model class ReStore's completion models build on
//! (§3.1–§3.2 of the paper), with learned per-attribute embeddings and
//! residual connections as in naru (Yang et al., VLDB 2019).

use std::sync::Arc;

use rand::Rng;

use crate::infer::InferenceSession;
use crate::layers::{Embedding, MaskedLinear};
use crate::loss::{block_cross_entropy, softmax_into, BlockLayout, BlockLoss};
use crate::masks::build_masks;
use crate::params::ParamStore;
use crate::sweep::{ArSweep, BandedCache, SweepNet};
use crate::tape::{Forward, Tape};
use crate::tensor::Matrix;

/// One model attribute: its token cardinality and embedding width.
#[derive(Clone, Debug)]
pub struct AttrSpec {
    pub cardinality: usize,
    pub embed_dim: usize,
}

impl AttrSpec {
    pub fn new(cardinality: usize, embed_dim: usize) -> Self {
        Self {
            cardinality,
            embed_dim,
        }
    }
}

/// Hyper-parameters of a MADE network.
#[derive(Clone, Debug)]
pub struct MadeConfig {
    pub attrs: Vec<AttrSpec>,
    /// Width of the always-visible conditioning block (0 = plain AR model;
    /// >0 = SSAR conditioning from the DeepSets tree encoder).
    pub ctx_dim: usize,
    /// Hidden layer widths. Equal widths enable residual connections.
    pub hidden: Vec<usize>,
    pub residual: bool,
}

impl MadeConfig {
    pub fn new(attrs: Vec<AttrSpec>) -> Self {
        Self {
            attrs,
            ctx_dim: 0,
            hidden: vec![64, 64],
            residual: true,
        }
    }

    pub fn with_ctx(mut self, ctx_dim: usize) -> Self {
        self.ctx_dim = ctx_dim;
        self
    }

    pub fn with_hidden(mut self, hidden: Vec<usize>) -> Self {
        self.hidden = hidden;
        self
    }
}

/// The MADE network. Parameters live in an external [`ParamStore`] so the
/// same store can also hold a DeepSets context encoder (SSAR models).
#[derive(Clone, Debug)]
pub struct Made {
    cfg: MadeConfig,
    embeddings: Vec<Embedding>,
    input_layer: MaskedLinear,
    hidden_layers: Vec<MaskedLinear>,
    output_layer: MaskedLinear,
    layout: BlockLayout,
    /// Shared hidden-unit degrees (from mask construction) — the band
    /// boundaries of the incremental sweep.
    hidden_degrees: Vec<usize>,
    /// The attribute each logit column belongs to — the output layer's
    /// bands.
    output_degrees: Vec<usize>,
    /// Column offset of each attribute's embedding block inside the trunk
    /// input (after the `ctx_dim`-wide context block).
    embed_offsets: Vec<usize>,
    /// Frozen banded trunk caches shared across inference sessions — built
    /// by [`Made::freeze_banded`] once the weights are final (snapshot
    /// rehydration). `None` while the model may still train.
    banded: Option<Arc<BandedCache>>,
}

impl Made {
    pub fn new<R: Rng>(cfg: MadeConfig, store: &mut ParamStore, rng: &mut R) -> Self {
        assert!(!cfg.attrs.is_empty(), "MADE needs at least one attribute");
        assert!(
            cfg.attrs.iter().all(|a| a.cardinality >= 1),
            "zero-cardinality attribute"
        );
        let embed_dims: Vec<usize> = cfg.attrs.iter().map(|a| a.embed_dim).collect();
        let cards: Vec<usize> = cfg.attrs.iter().map(|a| a.cardinality).collect();
        let masks = build_masks(&embed_dims, &cards, cfg.ctx_dim, &cfg.hidden);
        let mut embed_offsets = Vec::with_capacity(embed_dims.len());
        let mut offset = cfg.ctx_dim;
        for &d in &embed_dims {
            embed_offsets.push(offset);
            offset += d;
        }

        let embeddings = cfg
            .attrs
            .iter()
            .map(|a| Embedding::new(store, a.cardinality, a.embed_dim, rng))
            .collect();
        let input_layer = MaskedLinear::new(store, Arc::clone(&masks.input), rng);
        let hidden_layers = masks
            .hidden
            .iter()
            .map(|m| MaskedLinear::new(store, Arc::clone(m), rng))
            .collect();
        let output_layer = MaskedLinear::new(store, Arc::clone(&masks.output), rng);

        Self {
            cfg,
            embeddings,
            input_layer,
            hidden_layers,
            output_layer,
            layout: BlockLayout::new(&cards),
            hidden_degrees: masks.hidden_degrees,
            output_degrees: (cards.iter().enumerate())
                .flat_map(|(a, &card)| std::iter::repeat_n(a, card))
                .collect(),
            embed_offsets,
            banded: None,
        }
    }

    /// Builds the degree-sorted, transposed caches of the trunk and output
    /// layers once and freezes them for sharing across all inference
    /// sessions (`Arc` adoption in `ArSweep::begin`) — the snapshot loader
    /// calls this right after streaming the persisted weights in, so no
    /// session ever pays the degree-sort-and-transpose copy again. Must
    /// only be called once the weights are final: the caches snapshot
    /// `w ⊙ mask`.
    pub fn freeze_banded(&mut self, store: &ParamStore) {
        let cache = BandedCache::build(store, &self.sweep_net());
        self.banded = Some(Arc::new(cache));
    }

    /// Whether [`Made::freeze_banded`] has run (diagnostics).
    pub fn has_frozen_banded(&self) -> bool {
        self.banded.is_some()
    }

    pub(crate) fn num_attrs(&self) -> usize {
        self.cfg.attrs.len()
    }

    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// Validates a batch against the model shape — column count, ragged
    /// columns, context presence and shape — and returns the row count.
    /// Shared by the trunk and the sweep so both paths reject the same
    /// bad inputs identically.
    fn check_batch(&self, tokens: &[Arc<Vec<u32>>], ctx_shape: Option<(usize, usize)>) -> usize {
        assert_eq!(
            tokens.len(),
            self.num_attrs(),
            "token column count mismatch"
        );
        let m = tokens.first().map_or(0, |t| t.len());
        for t in tokens {
            assert_eq!(t.len(), m, "ragged token columns");
        }
        match (self.cfg.ctx_dim, ctx_shape) {
            (0, None) => {}
            (0, Some(_)) => panic!("model does not take a context"),
            (d, Some(shape)) => assert_eq!(shape, (m, d), "context shape mismatch"),
            (d, None) => panic!("model expects a {d}-wide context"),
        }
        m
    }

    /// The shared trunk (embeddings through the last hidden ReLU) of the
    /// forward pass, generic over the executor.
    fn trunk<F: Forward>(
        &self,
        f: &mut F,
        store: &ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<F::Id>,
    ) -> F::Id {
        self.check_batch(tokens, ctx.map(|c| f.shape(c)));
        let mut parts = Vec::with_capacity(self.num_attrs() + 1);
        if let Some(c) = ctx {
            parts.push(c);
        }
        for (emb, toks) in self.embeddings.iter().zip(tokens) {
            parts.push(emb.forward(f, store, toks));
        }
        let x = f.concat_cols(&parts);
        let mut h = self.input_layer.forward(f, store, x);
        h = f.relu(h);
        for layer in &self.hidden_layers {
            let mut pre = layer.forward(f, store, h);
            if self.cfg.residual && f.shape(pre) == f.shape(h) {
                pre = f.add(pre, h);
            }
            h = f.relu(pre);
        }
        h
    }

    /// Forward pass through a [`Forward`] executor — a
    /// [`TapeCtx`](crate::tape::TapeCtx), differentiated during training and
    /// not for the validation loss. `tokens[a]` holds the token of attribute
    /// `a` for every batch row; `ctx` must be provided iff `ctx_dim > 0`.
    pub fn forward<F: Forward>(
        &self,
        f: &mut F,
        store: &ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<F::Id>,
    ) -> F::Id {
        let h = self.trunk(f, store, tokens, ctx);
        self.output_layer.forward(f, store, h)
    }

    /// Gradient-free forward of the logit block of `attr` only — the
    /// autoregressive sampler never needs the other blocks. Returns the
    /// `rows × cardinality(attr)` block, bit-identical to the
    /// corresponding slice of the full logits. Only the hidden bands of
    /// degree `≤ attr` are evaluated (everything the block can see), once
    /// per distinct evidence prefix; [`Made::logits_attr_full_in`] is the
    /// full-trunk oracle.
    pub fn logits_attr_in<'s>(
        &self,
        session: &'s mut InferenceSession,
        store: &'s ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
        attr: usize,
    ) -> &'s Matrix {
        let net = self.sweep_net();
        let sweep = &mut session.sweep;
        self.sweep_begin(&net, sweep, store, tokens, ctx, attr);
        sweep.logits.expand_rows(&sweep.group);
        &sweep.logits
    }

    /// The full-trunk oracle of [`Made::logits_attr_in`]: one complete
    /// trunk forward on the session's tape, then the block-restricted
    /// output — attribute `attr`'s columns of `h · (w ⊙ mask)`, plus bias.
    /// Nothing serves from it; the sweep suites compare against it bit for
    /// bit.
    pub fn logits_attr_full_in<'s>(
        &self,
        session: &'s mut InferenceSession,
        store: &'s ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
        attr: usize,
    ) -> &'s Matrix {
        let (off, card) = self.layout.block(attr);
        let (w, b) = self.output_layer.param_ids();
        let mut f = session.tape.ctx(store);
        let ctx_id = ctx.map(|c| f.input(c));
        let h = self.trunk(&mut f, store, tokens, ctx_id);
        let h = f.into_value(h);
        let masked = store.value(w).hadamard(self.output_layer.mask());
        let block = &mut session.sweep.logits;
        h.matmul_col_band_limited_into(&masked, off..off + card, h.cols(), block);
        let bias = &store.value(b).row(0)[off..off + card];
        for r in 0..block.rows() {
            for (v, bv) in block.row_mut(r).iter_mut().zip(bias) {
                *v += bv;
            }
        }
        block
    }

    /// The sweep's view of the masked trunk.
    fn sweep_net(&self) -> SweepNet<'_> {
        let mut layers = Vec::with_capacity(1 + self.hidden_layers.len());
        layers.push(&self.input_layer);
        layers.extend(self.hidden_layers.iter());
        SweepNet {
            layers,
            degrees: &self.hidden_degrees,
            output: &self.output_layer,
            output_degrees: &self.output_degrees,
            n_attrs: self.num_attrs(),
            residual: self.cfg.residual,
            banded: self.banded.as_ref(),
        }
    }

    /// Starts a sweep: validates the batch (same checks as the trunk) and
    /// evaluates attribute `upto`'s logit block **once per distinct
    /// evidence prefix** ([`ArSweep::group_prefixes`]): row `i` of the trunk
    /// input, of the hidden bands of degree `≤ upto` computed here and of
    /// `sweep.logits` stands for every batch row `r` with
    /// `sweep.group[r] == i`.
    fn sweep_begin(
        &self,
        net: &SweepNet,
        sweep: &mut ArSweep,
        store: &ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
        upto: usize,
    ) {
        let m = self.check_batch(tokens, ctx.map(|c| c.shape()));
        // Only attributes `< upto` feed the bands computed here or later:
        // band degree `d` reads attribute blocks `< d`, the setup pass
        // covers degrees `≤ upto`, and every later step re-gathers the
        // attribute it just sampled before the first band that reads it.
        // Blocks `≥ upto` are never read (their band weights are zero and
        // the k-limited GEMM skips their rows entirely), so their stale
        // contents are irrelevant.
        sweep.group_prefixes(&tokens[..upto], ctx, m);
        sweep.begin(store, net, sweep.reps.len());
        if let Some(c) = ctx {
            sweep.set_x_context(c);
        }
        for (a, (emb, toks)) in self.embeddings.iter().zip(tokens).enumerate().take(upto) {
            sweep.gather_x_block_reps(self.embed_offsets[a], store.value(emb.param_id()), toks);
        }
        sweep.compute(net, 0..upto + 1);
        sweep.output_block(upto);
    }

    /// Gradient-free forward returning an owned logits matrix: the pass is
    /// recorded on a throwaway tape and never differentiated.
    pub fn logits(
        &self,
        store: &ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
    ) -> Matrix {
        self.logits_on(&mut Tape::new(), store, tokens, ctx).clone()
    }

    /// [`Made::forward`] on `tape` without gradients, borrowing the logits.
    fn logits_on<'t>(
        &self,
        tape: &'t mut Tape,
        store: &'t ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
    ) -> &'t Matrix {
        let mut f = tape.ctx(store);
        let ctx_id = ctx.map(|c| f.input(c));
        let out = self.forward(&mut f, store, tokens, ctx_id);
        f.into_value(out)
    }

    /// Evaluates the per-attribute NLL without updating parameters and
    /// without a gradient — the "test loss" used for basic model selection
    /// (§5). Targets are borrowed straight from the token columns, never
    /// cloned.
    pub fn evaluate(
        &self,
        store: &ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
        weights: Option<&[Vec<f32>]>,
    ) -> BlockLoss {
        let mut tape = Tape::new();
        let logits = self.logits_on(&mut tape, store, tokens, ctx);
        let targets: Vec<&[u32]> = tokens.iter().map(|t| t.as_slice()).collect();
        block_cross_entropy(logits, &self.layout, &targets, weights)
    }

    /// Conditional distribution of attribute `attr` for every batch row,
    /// given the tokens of attributes `< attr` (later columns are ignored by
    /// construction — pass placeholders): `visit(r, dist)` sees batch row
    /// `r`'s, once per row and in row order. A distribution is the one the
    /// sampler draws from (`block_row_dist`: the `excluded` token zeroed,
    /// the rest renormalized), computed once per distinct evidence prefix
    /// into the sweep's distribution scratch; rows that share a prefix are
    /// handed the same slice, so nothing is copied per row.
    #[allow(clippy::too_many_arguments)]
    pub fn conditional_dists_in(
        &self,
        session: &mut InferenceSession,
        store: &ParamStore,
        tokens: &[Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
        attr: usize,
        excluded: Option<u32>,
        mut visit: impl FnMut(usize, &[f32]),
    ) {
        let net = self.sweep_net();
        let sweep = &mut session.sweep;
        self.sweep_begin(&net, sweep, store, tokens, ctx, attr);
        let card = prefix_dists(&sweep.logits, excluded, &mut sweep.dist);
        for (r, &g) in sweep.group.iter().enumerate() {
            visit(r, &sweep.dist[g as usize * card..][..card]);
        }
    }

    /// Batched iterative forward sampling: one gradient-free logit-block
    /// evaluation per attribute fills that attribute for **all** batch rows
    /// at once. Token columns are updated in place (`Arc::make_mut` — the
    /// session never retains them, so no copies happen). Rows are sampled
    /// in order, one RNG draw per row per attribute, so the draw sequence
    /// is a pure function of `(tokens, start, end, rng state)`.
    ///
    /// The attribute loop runs on the band-incremental sweep: a setup pass
    /// computes all hidden bands of degree `≤ start` and attribute
    /// `start`'s distribution once per distinct evidence prefix (Algorithm
    /// 1 hands over each evidence row once per missing tuple), then step
    /// `attr` refreshes the just-sampled attribute's embedding block in
    /// the cached trunk input and computes only the degree-`attr` band per
    /// layer before evaluating that attribute's logit block —
    /// bit-identical to [`Made::sample_range_full_in`], at roughly one
    /// trunk forward's GEMM cost for the whole range.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_range_in<R: Rng>(
        &self,
        session: &mut InferenceSession,
        store: &ParamStore,
        tokens: &mut [Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
        start: usize,
        end: usize,
        excluded: &[Option<u32>],
        rng: &mut R,
    ) {
        if self.empty_sample_range(tokens, start, end, excluded) {
            return;
        }
        let net = self.sweep_net();
        let sweep = &mut session.sweep;
        self.sweep_begin(&net, sweep, store, tokens, ctx, start);
        let exclude = |attr: usize| excluded.get(attr).copied().flatten();
        let ArSweep {
            logits,
            dist,
            sampled,
            group,
            ..
        } = &mut *sweep;
        sample_block_groups(logits, exclude(start), group, dist, sampled, rng);
        Arc::make_mut(&mut tokens[start]).copy_from_slice(sampled);
        if start + 1 < end {
            sweep.expand_rows(&net, self.embed_offsets[start], start);
        }
        for attr in start + 1..end {
            let prev = attr - 1;
            sweep.gather_x_block(
                self.embed_offsets[prev],
                store.value(self.embeddings[prev].param_id()),
                &tokens[prev],
            );
            sweep.compute(&net, attr..attr + 1);
            sweep.output_block(attr);
            let ArSweep {
                logits,
                dist,
                sampled,
                ..
            } = &mut *sweep;
            sample_block_rows(logits, exclude(attr), dist, sampled, rng);
            Arc::make_mut(&mut tokens[attr]).copy_from_slice(sampled);
        }
    }

    /// The full-trunk oracle of [`Made::sample_range_in`]: one complete
    /// trunk forward per attribute, same draws in the same order. Nothing
    /// serves from it; the sweep suites compare against it bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_range_full_in<R: Rng>(
        &self,
        session: &mut InferenceSession,
        store: &ParamStore,
        tokens: &mut [Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
        start: usize,
        end: usize,
        excluded: &[Option<u32>],
        rng: &mut R,
    ) {
        if self.empty_sample_range(tokens, start, end, excluded) {
            return;
        }
        let mut dist = Vec::new();
        let mut sampled = Vec::new();
        for attr in start..end {
            let block = self.logits_attr_full_in(session, store, tokens, ctx, attr);
            sample_block_rows(
                block,
                excluded.get(attr).copied().flatten(),
                &mut dist,
                &mut sampled,
                rng,
            );
            Arc::make_mut(&mut tokens[attr]).copy_from_slice(&sampled);
        }
    }

    /// Validates a sampling request's shape; true when there is nothing
    /// to sample (no rows or an empty attribute range).
    fn empty_sample_range(
        &self,
        tokens: &[Arc<Vec<u32>>],
        start: usize,
        end: usize,
        excluded: &[Option<u32>],
    ) -> bool {
        assert_eq!(tokens.len(), self.num_attrs());
        assert!(end <= self.num_attrs() && start <= end);
        assert!(excluded.is_empty() || excluded.len() == self.num_attrs());
        tokens.first().map_or(0, |t| t.len()) == 0 || start == end
    }
}

/// Samples one token per row from a logits block: per row, in order, its
/// [`block_row_dist`] into `dist`, then one categorical draw. `dist` and
/// `sampled` are caller-owned scratch — hoisted out of the per-attribute
/// loop so steady-state sampling allocates nothing.
fn sample_block_rows<R: Rng>(
    block: &Matrix,
    excluded: Option<u32>,
    dist: &mut Vec<f32>,
    sampled: &mut Vec<u32>,
    rng: &mut R,
) {
    dist.resize(block.cols(), 0.0);
    sampled.clear();
    for r in 0..block.rows() {
        block_row_dist(block.row(r), excluded, dist);
        sampled.push(sample_categorical(dist, rng));
    }
}

/// [`sample_block_rows`] for the first attribute of a sweep, whose block has
/// one row per distinct prefix: one distribution per prefix
/// ([`prefix_dists`]), and still one draw per batch row, in row order, from
/// the distribution of its prefix `group[r]`.
fn sample_block_groups<R: Rng>(
    block: &Matrix,
    excluded: Option<u32>,
    group: &[u32],
    dist: &mut Vec<f32>,
    sampled: &mut Vec<u32>,
    rng: &mut R,
) {
    let card = prefix_dists(block, excluded, dist);
    sampled.clear();
    for &g in group {
        let d = &dist[g as usize * card..][..card];
        sampled.push(sample_categorical(d, rng));
    }
}

/// Fills `dist` with the [`block_row_dist`] of every row of `block`, back
/// to back, and returns the row width: prefix `g`'s distribution is
/// `dist[g * width..][..width]`.
fn prefix_dists(block: &Matrix, excluded: Option<u32>, dist: &mut Vec<f32>) -> usize {
    let card = block.cols();
    dist.resize(block.rows() * card, 0.0);
    for (g, d) in dist.chunks_exact_mut(card).enumerate() {
        block_row_dist(block.row(g), excluded, d);
    }
    card
}

/// The distribution a logits row is sampled from, and the conditional
/// [`Made::conditional_dists_in`] hands out: its softmax, with the excluded
/// token (if any) zeroed and the rest renormalized — uniform over the rest
/// if the excluded token held all the mass. The one rule for dropping an
/// attribute's MASK token.
fn block_row_dist(logits: &[f32], excluded: Option<u32>, dist: &mut [f32]) {
    softmax_into(logits, dist);
    let Some(ex) = excluded.map(|ex| ex as usize).filter(|&ex| ex < dist.len()) else {
        return;
    };
    dist[ex] = 0.0;
    let s: f32 = dist.iter().sum();
    if s > 0.0 {
        for d in dist.iter_mut() {
            *d /= s;
        }
    } else {
        // Degenerate: everything but the excluded token had zero mass;
        // fall back to uniform.
        let n = dist.len();
        for (i, d) in dist.iter_mut().enumerate() {
            *d = if i == ex {
                0.0
            } else {
                1.0 / (n - 1).max(1) as f32
            };
        }
    }
}

/// Samples an index from an (assumed normalized) categorical distribution.
pub fn sample_categorical<R: Rng>(dist: &[f32], rng: &mut R) -> u32 {
    let u: f32 = rng.random();
    let mut acc = 0.0;
    for (i, &p) in dist.iter().enumerate() {
        acc += p;
        if u < acc {
            return i as u32;
        }
    }
    // `u` reaches `1 − 2⁻²⁴` and a renormalized `f32` distribution may sum
    // to that or less. The last index is where an excluded MASK token sits,
    // at probability exactly 0: land on the last token that can be drawn.
    let last = dist.iter().rposition(|&p| p > 0.0);
    last.unwrap_or(dist.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::block_cross_entropy_sums;
    use crate::optim::Adam;
    use crate::params::GradBuffer;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_model(cards: &[usize], ctx: usize, seed: u64) -> (Made, ParamStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let attrs = cards.iter().map(|&c| AttrSpec::new(c, 4)).collect();
        let cfg = MadeConfig::new(attrs)
            .with_ctx(ctx)
            .with_hidden(vec![32, 32]);
        let made = Made::new(cfg, &mut store, &mut rng);
        (made, store)
    }

    #[test]
    fn autoregressive_property_holds() {
        // Changing attribute j must not change the conditional of any
        // attribute i <= j.
        let (made, store) = make_model(&[5, 5, 5], 0, 7);
        let base: Vec<Arc<Vec<u32>>> =
            vec![Arc::new(vec![1]), Arc::new(vec![2]), Arc::new(vec![3])];
        let logits_base = made.logits(&store, &base, None);
        for j in 0..3 {
            let mut toks = base.clone();
            toks[j] = Arc::new(vec![4]);
            let logits = made.logits(&store, &toks, None);
            for i in 0..=j {
                let (off, card) = made.layout().block(i);
                for c in off..off + card {
                    assert_eq!(
                        logits_base.get(0, c),
                        logits.get(0, c),
                        "output block {i} changed when perturbing attr {j}"
                    );
                }
            }
        }
    }

    /// A context-free model refuses a context whatever its width — the
    /// `0`-wide one too, which would pass a shape check.
    #[test]
    #[should_panic(expected = "does not take a context")]
    fn context_free_model_refuses_a_three_wide_context() {
        let (made, store) = make_model(&[4, 4], 0, 15);
        let toks: Vec<Arc<Vec<u32>>> = vec![Arc::new(vec![0, 1]), Arc::new(vec![1, 0])];
        made.logits(&store, &toks, Some(&Matrix::zeros(2, 3)));
    }

    #[test]
    #[should_panic(expected = "does not take a context")]
    fn context_free_model_refuses_a_zero_wide_context() {
        let (made, store) = make_model(&[4, 4], 0, 16);
        let toks: Vec<Arc<Vec<u32>>> = vec![Arc::new(vec![0, 1]), Arc::new(vec![1, 0])];
        made.logits(&store, &toks, Some(&Matrix::zeros(2, 0)));
    }

    #[test]
    fn context_influences_all_outputs() {
        let (made, store) = make_model(&[4, 4], 3, 8);
        let toks: Vec<Arc<Vec<u32>>> = vec![Arc::new(vec![0]), Arc::new(vec![0])];
        let c1 = Matrix::from_rows(&[&[1.0, 0.0, 0.0]]);
        let c2 = Matrix::from_rows(&[&[0.0, 5.0, -3.0]]);
        let l1 = made.logits(&store, &toks, Some(&c1));
        let l2 = made.logits(&store, &toks, Some(&c2));
        let (off0, card0) = made.layout().block(0);
        let changed0 = (off0..off0 + card0).any(|c| l1.get(0, c) != l2.get(0, c));
        assert!(changed0, "context did not reach attribute 0");
    }

    #[test]
    fn learns_deterministic_dependency() {
        // x1 = (x0 + 1) mod 4 — after training, p(x1 | x0) should put most
        // mass on the right token.
        let mut rng = StdRng::seed_from_u64(42);
        let (made, mut store) = make_model(&[4, 4], 0, 9);
        let mut adam = Adam::new(&store, 5e-3);
        let n = 256;
        let x0: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let x1: Vec<u32> = x0.iter().map(|&v| (v + 1) % 4).collect();
        let cols = vec![Arc::new(x0.clone()), Arc::new(x1.clone())];
        for _ in 0..200 {
            let mut tape = Tape::new();
            let mut f = tape.ctx(&store);
            let out = made.forward(&mut f, &store, &cols, None);
            let targets = vec![x0.clone(), x1.clone()];
            let sums = block_cross_entropy_sums(f.value(out), made.layout(), &targets, None);
            let mut dlogits = sums.dlogits;
            dlogits.scale_assign(1.0 / sums.weight_sum as f32);
            let mut grads = GradBuffer::new(&store);
            tape.backward_with(out, dlogits, &store, &mut grads);
            store.accumulate_from(&grads);
            store.clip_grad_norm(5.0);
            adam.step(&mut store);
        }
        // Check the learned conditional.
        let mut session = InferenceSession::new();
        for v in 0..4u32 {
            let toks = vec![Arc::new(vec![v]), Arc::new(vec![0])];
            let mut argmax = u32::MAX;
            made.conditional_dists_in(&mut session, &store, &toks, None, 1, None, |_, d| {
                let best = d.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1));
                argmax = best.unwrap().0 as u32;
            });
            assert_eq!(argmax, (v + 1) % 4, "p(x1|x0={v}) put mass on {argmax}");
        }
        // And sampling follows it.
        let mut toks = vec![Arc::new(vec![2u32; 64]), Arc::new(vec![0u32; 64])];
        made.sample_range_in(&mut session, &store, &mut toks, None, 1, 2, &[], &mut rng);
        let right = toks[1].iter().filter(|&&t| t == 3).count();
        assert!(
            right > 48,
            "sampling followed the conditional only {right}/64 times"
        );
    }

    #[test]
    fn excluded_token_is_never_sampled() {
        let (made, store) = make_model(&[3, 5], 0, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let mut toks = vec![Arc::new(vec![0u32; 200]), Arc::new(vec![0u32; 200])];
        let mut session = InferenceSession::new();
        let excluded = [None, Some(4)];
        made.sample_range_in(
            &mut session,
            &store,
            &mut toks,
            None,
            1,
            2,
            &excluded,
            &mut rng,
        );
        assert!(
            toks[1].iter().all(|&t| t != 4),
            "excluded token was sampled"
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (made, store) = make_model(&[3, 3], 0, 12);
        let mut rng = StdRng::seed_from_u64(13);
        let mut toks = vec![Arc::new(vec![]), Arc::new(vec![])];
        let mut session = InferenceSession::new();
        made.sample_range_in(&mut session, &store, &mut toks, None, 0, 2, &[], &mut rng);
        assert!(toks[0].is_empty());
        let loss = made.evaluate(&store, &[Arc::new(vec![]), Arc::new(vec![])], None, None);
        assert_eq!(loss.loss, 0.0);
    }

    /// All the mass on the excluded token (a row that can only say MASK):
    /// the distribution falls back to uniform over the other tokens, for
    /// sampling and conditionals alike.
    #[test]
    fn block_row_dist_falls_back_to_uniform_without_the_excluded_token() {
        let mut dist = [0.0; 4];
        block_row_dist(&[-200.0, -200.0, -200.0, 200.0], Some(3), &mut dist);
        assert_eq!(dist, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0]);
        block_row_dist(&[-200.0, -200.0, 200.0, -200.0], Some(2), &mut dist);
        assert_eq!(dist, [1.0 / 3.0, 1.0 / 3.0, 0.0, 1.0 / 3.0]);
        block_row_dist(&[0.0, 0.0, 0.0, 0.0], None, &mut dist);
        assert_eq!(dist, [0.25; 4]);
    }

    /// The vendored `random::<f32>()` tops out at `1 − 2⁻²⁴`, which a
    /// renormalized distribution need not exceed: the draw must then land on
    /// the last token with mass, not on the zeroed (excluded) last index.
    #[test]
    fn sample_categorical_never_falls_back_onto_a_zero_probability_token() {
        struct Max;
        impl rand::RngCore for Max {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        assert_eq!(sample_categorical(&[0.5, 0.4999999, 0.0], &mut Max), 1);
        assert_eq!(sample_categorical(&[0.0, 0.0], &mut Max), 1);
    }

    #[test]
    fn sample_categorical_is_unbiased_enough() {
        let mut rng = StdRng::seed_from_u64(14);
        let dist = vec![0.1, 0.6, 0.3];
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[sample_categorical(&dist, &mut rng) as usize] += 1;
        }
        assert!((counts[1] as f32 / 3000.0 - 0.6).abs() < 0.05);
    }
}
