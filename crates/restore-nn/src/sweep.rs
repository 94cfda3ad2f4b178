//! Band-incremental autoregressive sweep — the engine behind
//! [`Made::sample_range_in`](crate::made::Made::sample_range_in).
//!
//! MADE's connectivity masks assign every hidden unit a degree `m(h)`: the
//! unit reads only inputs of degree `≤ m(h)` (context has degree 0,
//! attribute `a`'s embedding has degree `a + 1`) and the logit block of
//! attribute `a` reads only hidden units of degree `≤ a`. Between
//! autoregressive step `a − 1` and step `a` exactly one token column
//! changed — attribute `a − 1`, degree `a` — so a hidden unit with degree
//! `< a` is bit-for-bit unaffected, and the only units that both changed
//! *and* are needed for attribute `a`'s logits are those with degree
//! exactly `a`. The sweep exploits this: it caches each layer's activation
//! matrix across the attribute loop and recomputes, per step and per
//! layer, only the degree-`a` band, collapsing a `D`-attribute sweep from
//! `D` full trunk forwards to roughly **one** full forward's worth of GEMM
//! work.
//!
//! Bit-identity with the full-recompute path: hidden units are kept in
//! their **original order** inside the cached activation matrices (so
//! every downstream dot product visits `k` in the original ascending
//! order), while each layer's frozen `w ⊙ mask` cache has its *columns*
//! stably sorted by degree so a band is one contiguous column range for
//! the band GEMM ([`Matrix::matmul_col_band_into`], zero-initialized
//! ascending-`k` accumulation — the exact add sequence of the full tiled
//! GEMM). Band results scatter back through the permutation. Every
//! computed value is therefore the same full ascending-`k` dot product the
//! naive path computes, just computed once; units of degree `> a` are
//! masked out of everything evaluated so far and stay at their zeroed
//! placeholder.
//!
//! Lane alignment: every nonzero degree band in the frozen cache is padded
//! to a multiple of [`lane::WIDTH`] with zero-weight, zero-bias columns
//! (the real units' sort permutation is unchanged), so each band GEMM is
//! lane-aligned and runs full-width tiles with no ragged tail. A padding
//! column's dot product lands in the band scratch and is discarded — it
//! never touches a real unit's value, keeping the bit-identity contract
//! intact. The output layer is unaffected: [`ArSweep::output_block`] goes
//! through the session's shared *unpadded* masked-weight cache.
//!
//! Distinct prefixes: until the first draw of a sweep, a row's trunk input,
//! its hidden bands of degree `≤ start`, attribute `start`'s logit block and
//! the distribution drawn from are functions of its evidence prefix — the
//! context row and the tokens `< start` — and Algorithm 1 fills a batch
//! with copies of each evidence row, one per missing tuple. The setup pass
//! runs over one row per distinct prefix ([`ArSweep::group_prefixes`]);
//! every batch row then takes its own draw, and [`ArSweep::expand_rows`]
//! copies the per-prefix state out for the incremental steps. Every kernel
//! computes an output row from that input row alone, so no value depends on
//! which rows are evaluated beside it.

use std::collections::HashMap;
use std::sync::Arc;

use crate::layers::MaskedLinear;
use crate::params::{ParamId, ParamStore};
use crate::tensor::{lane, Matrix};

/// Sentinel in [`BandedLayer::perm`] marking a zero-weight padding column
/// appended to a degree band to round its width up to a lane multiple. A
/// padding column has all-zero weight and zero bias, so it never changes a
/// real unit's dot product; the compute epilogue skips it on scatter-back.
const PAD: usize = usize::MAX;

/// The masked trunk of a MADE network, as the sweep sees it: the input
/// layer followed by the hidden layers, the shared hidden-unit degree
/// vector, and the residual policy. Assembled per call by
/// [`Made`](crate::made::Made) — it only borrows the model.
pub(crate) struct SweepNet<'a> {
    /// Input layer then hidden layers, in trunk order.
    pub layers: Vec<&'a MaskedLinear>,
    /// Shared hidden-unit degrees (length ≥ the widest layer; layer `l`
    /// uses the first `width(l)` entries, exactly as mask construction
    /// does).
    pub degrees: &'a [usize],
    /// Number of model attributes; degrees lie in `0..n_attrs`.
    pub n_attrs: usize,
    /// Identity skips between equal-width hidden layers.
    pub residual: bool,
    /// Prebuilt frozen banded caches shared across sessions, if the model
    /// froze them (snapshot rehydration does). Sessions adopt these via
    /// `Arc` instead of re-deriving their own padded copies.
    pub banded: Option<&'a BandedCache>,
}

/// Frozen per-layer cache: the masked weight with columns stably sorted by
/// hidden-unit degree, so each degree band is a contiguous column range.
#[derive(Debug)]
struct BandedLayer {
    /// `Arc` pointer of the mask this cache was built against (to catch a
    /// weight being reused under a different mask, like the session's
    /// masked-weight cache).
    mask_ptr: usize,
    /// `w ⊙ mask`, columns permuted by `perm`; padding columns are all
    /// zero.
    wm: Matrix,
    /// Bias entries permuted identically; padding entries are zero.
    bias: Vec<f32>,
    /// Sorted position → original unit index, or [`PAD`] for a zero
    /// padding column.
    perm: Vec<usize>,
    /// `starts[d]..starts[d + 1]` is the sorted-column range of the
    /// degree-`d` band; units of degree `≤ d` occupy `0..starts[d + 1]`.
    /// Every nonzero band's width is rounded up to a multiple of
    /// [`lane::WIDTH`] with zero-weight padding columns, so band GEMMs
    /// start aligned and run full lane tiles. Length `n_attrs + 1`.
    starts: Vec<usize>,
    /// `k_hi[d]` is one past the highest input row with a nonzero mask
    /// entry over the degree-`d` band's columns (0 for an empty band).
    /// Rows `≥ k_hi[d]` contribute exact zero weights, so the band GEMM
    /// contracts only `k < k_hi[d]` — for the first masked layer, whose
    /// input degrees ascend with the attribute layout, this skips the
    /// embedding blocks of attributes the band cannot read. Length
    /// `n_attrs`.
    k_hi: Vec<usize>,
}

impl BandedLayer {
    fn build(
        store: &ParamStore,
        w: ParamId,
        b: ParamId,
        mask: &Arc<Matrix>,
        degrees: &[usize],
        n_attrs: usize,
    ) -> Self {
        let (k, width) = mask.shape();
        debug_assert_eq!(degrees.len(), width, "degree vector width mismatch");
        let mut sorted: Vec<usize> = (0..width).collect();
        sorted.sort_by_key(|&j| degrees[j]); // stable: within a band, original order
        let mut counts = vec![0usize; n_attrs];
        for &j in &sorted {
            counts[degrees[j]] += 1;
        }
        // Pad every nonzero band to a lane multiple; empty bands stay
        // zero-width. The sort permutation of the real units is unchanged
        // — padding only shifts where the next band starts.
        const L: usize = lane::WIDTH;
        let mut starts = vec![0usize; n_attrs + 1];
        for d in 0..n_attrs {
            let padded = if counts[d] == 0 {
                0
            } else {
                counts[d].div_ceil(L) * L
            };
            starts[d + 1] = starts[d] + padded;
        }
        let mut perm = vec![PAD; starts[n_attrs]];
        let mut next = 0;
        for d in 0..n_attrs {
            for slot in 0..counts[d] {
                perm[starts[d] + slot] = sorted[next];
                next += 1;
            }
        }
        // One past the highest mask-visible input row per band: the band
        // GEMM skips the all-zero-weight rows above it.
        let mut k_hi = vec![0usize; n_attrs];
        for (j, &d) in degrees.iter().enumerate() {
            for r in (k_hi[d]..k).rev() {
                if mask.get(r, j) != 0.0 {
                    k_hi[d] = k_hi[d].max(r + 1);
                    break;
                }
            }
        }
        let wv = store.value(w);
        let bv = store.value(b);
        debug_assert_eq!(wv.shape(), (k, width), "weight/mask shape mismatch");
        let mut wm = Matrix::zeros(k, starts[n_attrs]);
        let mut bias = vec![0f32; starts[n_attrs]];
        for (js, &orig) in perm.iter().enumerate() {
            if orig == PAD {
                continue;
            }
            for r in 0..k {
                // Same element order as `Matrix::hadamard` (w * mask), so
                // cached values match the session's masked-weight cache.
                wm.set(r, js, wv.get(r, orig) * mask.get(r, orig));
            }
            bias[js] = bv.get(0, orig);
        }
        Self {
            mask_ptr: Arc::as_ptr(mask) as usize,
            wm,
            bias,
            perm,
            starts,
            k_hi,
        }
    }
}

/// Frozen, `Arc`-shareable set of banded trunk caches for one model —
/// built once by [`Made::freeze_banded`](crate::made::Made::freeze_banded)
/// (snapshot rehydration does this right after streaming the weights in)
/// and adopted by every inference session, so sessions skip the
/// per-session degree-sort-and-pad copy of every trunk layer. Weights must
/// be frozen when this is built; a model that keeps training must not
/// freeze.
#[derive(Debug, Default)]
pub struct BandedCache {
    layers: HashMap<ParamId, Arc<BandedLayer>>,
}

impl BandedCache {
    pub(crate) fn build(store: &ParamStore, net: &SweepNet) -> Self {
        let mut layers = HashMap::new();
        for layer in &net.layers {
            let (w, b) = layer.param_ids();
            let width = layer.mask().cols();
            layers.insert(
                w,
                Arc::new(BandedLayer::build(
                    store,
                    w,
                    b,
                    layer.mask(),
                    &net.degrees[..width],
                    net.n_attrs,
                )),
            );
        }
        Self { layers }
    }

    fn get(&self, w: ParamId) -> Option<Arc<BandedLayer>> {
        self.layers.get(&w).cloned()
    }

    /// Number of trunk layers with a frozen banded cache (diagnostics).
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

/// Persistent state of one band-incremental sweep executor: frozen
/// degree-sorted weight caches plus the per-layer activation matrices the
/// attribute loop maintains. Lives inside an
/// [`InferenceSession`](crate::infer::InferenceSession), so the
/// completion engine's per-worker warm sessions keep the caches across
/// batches and path steps (parameters are frozen at completion time, like
/// the session's masked-weight cache). Activation matrices are recycled
/// buffers — their *values* are per-sweep, their allocations persist.
#[derive(Default)]
pub struct ArSweep {
    /// Degree-banded caches of the input + hidden layers, by weight id —
    /// adopted from the model's shared [`BandedCache`] when it froze one,
    /// otherwise built on first use.
    banded: HashMap<ParamId, Arc<BandedLayer>>,
    /// Current trunk input: context block + every attribute's embedding
    /// block, refreshed in place as columns are sampled.
    x: Matrix,
    /// One activation matrix per masked layer, full width, **original**
    /// unit order; entries of degree bands not yet computed stay zeroed.
    acts: Vec<Matrix>,
    /// Band pre-activation scratch.
    pre: Matrix,
    /// Logit block of the attribute being evaluated.
    pub(crate) logits: Matrix,
    /// Softmax scratch, reused across attributes: every prefix's
    /// distribution for the first one of a sweep, then one row's at a time.
    pub(crate) dist: Vec<f32>,
    /// Sampled token column scratch, reused across attributes.
    pub(crate) sampled: Vec<u32>,
    /// The batch's distinct evidence prefixes ([`ArSweep::group_prefixes`]):
    /// the first batch row that carries each, in order of first appearance.
    pub(crate) reps: Vec<u32>,
    /// Batch row → index of its prefix in `reps`; `group[r] ≤ r`.
    pub(crate) group: Vec<u32>,
    /// Open-addressing table of `group_prefixes`: prefix index or [`EMPTY`].
    slots: Vec<u32>,
}

/// Free slot of the prefix hash table.
const EMPTY: u32 = u32::MAX;

impl ArSweep {
    /// Number of layers with a degree-banded weight cache (diagnostics).
    pub fn banded_layers(&self) -> usize {
        self.banded.len()
    }

    /// Finds the distinct evidence prefixes of an `m`-row batch into
    /// `reps` / `group`. Two rows share a prefix iff their `prefix` tokens
    /// are equal and their context rows are equal by `f32::to_bits` —
    /// bit-equal inputs give bit-equal outputs, and unequal bits (`−0.0`,
    /// `0.0`) cost at worst an unshared row. Prefixes are numbered in order
    /// of first appearance, so `group[r] ≤ r`. Algorithm 1 duplicates
    /// evidence rows back to back, so the previous row is tried first; other
    /// repeats are found through a hash whose hits are confirmed on the
    /// prefix itself: the grouping does not depend on the hash function.
    pub(crate) fn group_prefixes(
        &mut self,
        prefix: &[Arc<Vec<u32>>],
        ctx: Option<&Matrix>,
        m: usize,
    ) {
        let same = |a: usize, b: usize| {
            prefix.iter().all(|col| col[a] == col[b])
                && ctx.is_none_or(|c| {
                    (c.row(a).iter().zip(c.row(b))).all(|(x, y)| x.to_bits() == y.to_bits())
                })
        };
        let hash = |r: usize| {
            let mix =
                |h: u64, v: u32| (h.rotate_left(5) ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let h = prefix.iter().fold(0, |h, col| mix(h, col[r]));
            let ctx_bits = ctx.map_or(&[][..], |c| c.row(r)).iter();
            (ctx_bits.fold(h, |h, v| mix(h, v.to_bits())) >> 32) as usize
        };
        let ArSweep {
            reps, group, slots, ..
        } = self;
        reps.clear();
        group.clear();
        slots.clear();
        slots.resize((2 * m).next_power_of_two(), EMPTY);
        for r in 0..m {
            if r > 0 && same(r, r - 1) {
                group.push(group[r - 1]);
                continue;
            }
            let mut slot = hash(r) & (slots.len() - 1);
            while slots[slot] != EMPTY && !same(reps[slots[slot] as usize] as usize, r) {
                slot = (slot + 1) & (slots.len() - 1);
            }
            if slots[slot] == EMPTY {
                slots[slot] = reps.len() as u32;
                reps.push(r as u32);
            }
            group.push(slots[slot]);
        }
    }

    /// Starts a sweep over `m` rows (one per distinct prefix): adopts the
    /// model's shared frozen caches (or builds session-local ones on first
    /// use) and sizes + zeroes the activation matrices (zeroed so the
    /// not-yet-computed bands contribute deterministic masked zeros to
    /// the full-length band dot products).
    pub(crate) fn begin(&mut self, store: &ParamStore, net: &SweepNet, m: usize) {
        for layer in &net.layers {
            let (w, b) = layer.param_ids();
            let width = layer.mask().cols();
            let entry = self.banded.entry(w).or_insert_with(|| {
                net.banded.and_then(|c| c.get(w)).unwrap_or_else(|| {
                    Arc::new(BandedLayer::build(
                        store,
                        w,
                        b,
                        layer.mask(),
                        &net.degrees[..width],
                        net.n_attrs,
                    ))
                })
            });
            debug_assert_eq!(
                entry.mask_ptr,
                Arc::as_ptr(layer.mask()) as usize,
                "weight {w} used with two different masks in one session"
            );
        }
        self.x.resize(m, net.layers[0].mask().rows());
        if self.acts.len() != net.layers.len() {
            self.acts = net.layers.iter().map(|_| Matrix::zeros(0, 0)).collect();
        }
        for (a, layer) in self.acts.iter_mut().zip(&net.layers) {
            a.resize(m, layer.mask().cols());
            a.fill_zero();
        }
    }

    /// Setup: copies the representatives' rows of the batch context into
    /// `x` at column 0.
    pub(crate) fn set_x_context(&mut self, ctx: &Matrix) {
        let dim = ctx.cols();
        for (i, &r) in self.reps.iter().enumerate() {
            self.x.row_mut(i)[..dim].copy_from_slice(ctx.row(r as usize));
        }
    }

    /// Setup: gathers the embedding rows of the representatives' tokens
    /// into `x` at column `offset`.
    pub(crate) fn gather_x_block_reps(&mut self, offset: usize, table: &Matrix, tokens: &[u32]) {
        let reps = self.reps.iter().map(|&r| tokens[r as usize]);
        gather_block(&mut self.x, offset, table, reps);
    }

    /// Gathers embedding rows for a token column into `x` at column
    /// `offset` — the in-place refresh of one attribute's input block once
    /// `x` holds a row per batch row ([`ArSweep::expand_rows`]).
    pub(crate) fn gather_x_block(&mut self, offset: usize, table: &Matrix, tokens: &[u32]) {
        gather_block(&mut self.x, offset, table, tokens.iter().copied());
    }

    /// After the first draw the rows of a prefix part ways: the trunk input
    /// and the activations become one row per batch row, each a copy of its
    /// prefix's, for the incremental steps to continue from.
    pub(crate) fn expand_rows(&mut self) {
        self.x.expand_rows(&self.group);
        for act in &mut self.acts {
            act.expand_rows(&self.group);
        }
    }

    /// Computes the hidden-unit bands with degree in `degrees` for every
    /// layer, in trunk order — layer `l`'s band reads layer `l − 1`'s
    /// activations, whose bands of equal or lower degree are already
    /// current. Each unit's value is the full ascending-`k` dot product
    /// over the previous layer (stale high-degree entries are masked to
    /// zero weight), plus bias, optional residual skip, and ReLU — the
    /// exact op sequence of the full trunk.
    pub(crate) fn compute(&mut self, net: &SweepNet, degrees: std::ops::Range<usize>) {
        let ArSweep {
            banded,
            acts,
            x,
            pre,
            ..
        } = self;
        for (l, layer) in net.layers.iter().enumerate() {
            let (w, _) = layer.param_ids();
            let band = &banded[&w];
            let (j0, j1) = (band.starts[degrees.start], band.starts[degrees.end]);
            if j0 == j1 {
                continue;
            }
            let (prev, act): (&Matrix, &mut Matrix) = if l == 0 {
                (&*x, &mut acts[0])
            } else {
                let (head, tail) = acts.split_at_mut(l);
                (&head[l - 1], &mut tail[0])
            };
            // Highest mask-visible input row across the requested bands:
            // all rows above it carry exact zero weights for every column
            // in `j0..j1`, so the contraction skips them (bit-identical
            // for the finite activations the trunk produces).
            let klim = band.k_hi[degrees.clone()]
                .iter()
                .copied()
                .max()
                .unwrap_or(prev.cols());
            prev.matmul_col_band_limited_into(&band.wm, j0..j1, klim, pre);
            // The trunk applies residual skips only between equally shaped
            // hidden layers; the input layer (l == 0) never has one.
            let residual = l > 0 && net.residual && prev.cols() == act.cols();
            for i in 0..act.rows() {
                let pre_row = pre.row(i);
                let prev_row = prev.row(i);
                let act_row = act.row_mut(i);
                for (jj, js) in (j0..j1).enumerate() {
                    let orig = band.perm[js];
                    if orig == PAD {
                        continue;
                    }
                    let mut v = pre_row[jj] + band.bias[js];
                    if residual {
                        v += prev_row[orig];
                    }
                    act_row[orig] = if v < 0.0 { 0.0 } else { v };
                }
            }
        }
    }

    /// Evaluates output columns `cols` (one attribute's logit block) over
    /// the cached last-hidden activations into `self.logits` — the same
    /// kernel, bias add, and `w ⊙ mask` cache (`masked`, the session's —
    /// shared with the full forward path, never duplicated) as the
    /// session's block-restricted output path.
    pub(crate) fn output_block(
        &mut self,
        masked: &mut HashMap<ParamId, (usize, Matrix)>,
        store: &ParamStore,
        output_layer: &MaskedLinear,
        cols: std::ops::Range<usize>,
    ) {
        let (w, b) = output_layer.param_ids();
        let wm = crate::infer::masked_weight(masked, store, w, output_layer.mask());
        let h = self.acts.last().expect("begin() sized the activations");
        h.matmul_cols_into(wm, cols.clone(), &mut self.logits);
        let bv = store.value(b);
        let b_slice = &bv.row(0)[cols];
        for r in 0..self.logits.rows() {
            for (v, bias) in self.logits.row_mut(r).iter_mut().zip(b_slice) {
                *v += bias;
            }
        }
    }
}

/// Writes `table`'s row of each token into the next row of `x`, at column
/// `offset`.
fn gather_block(x: &mut Matrix, offset: usize, table: &Matrix, tokens: impl Iterator<Item = u32>) {
    let dim = table.cols();
    for (r, t) in tokens.enumerate() {
        let t = t as usize;
        assert!(
            t < table.rows(),
            "gather index {t} out of range {}",
            table.rows()
        );
        x.row_mut(r)[offset..offset + dim].copy_from_slice(table.row(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masks::build_masks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn banded_layer_sorts_stably_and_bounds_bands() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let masks = build_masks(&[2, 2, 2, 2], &[3, 3, 3, 3], 0, &[10]);
        let degrees = &masks.hidden_degrees;
        let w = store.register(Matrix::rand_uniform(10, 10, -1.0, 1.0, &mut rng));
        let b = store.register(Matrix::rand_uniform(1, 10, -1.0, 1.0, &mut rng));
        // Reuse the hidden→hidden geometry: a square 10×10 mask over the
        // shared degree vector.
        let mask = Arc::new({
            let mut m = Matrix::zeros(10, 10);
            for r in 0..10 {
                for c in 0..10 {
                    if degrees[r] <= degrees[c] {
                        m.set(r, c, 1.0);
                    }
                }
            }
            m
        });
        let band = BandedLayer::build(&store, w, b, &mask, degrees, 4);
        assert_eq!(band.starts[0], 0);
        // Every nonzero band is padded to a lane multiple; empty bands
        // stay zero-width.
        let mut counts = [0usize; 4];
        for &d in degrees.iter().take(10) {
            counts[d] += 1;
        }
        for (d, &cnt) in counts.iter().enumerate() {
            let w = band.starts[d + 1] - band.starts[d];
            let expect = if cnt == 0 {
                0
            } else {
                cnt.div_ceil(lane::WIDTH) * lane::WIDTH
            };
            assert_eq!(w, expect, "band {d} not padded to a lane multiple");
        }
        assert_eq!(*band.starts.last().unwrap(), band.perm.len());
        assert_eq!(band.wm.cols(), band.perm.len());
        // perm is sorted by degree, stable within a band.
        let real: Vec<usize> = band.perm.iter().copied().filter(|&o| o != PAD).collect();
        assert_eq!(real.len(), 10, "all real units present exactly once");
        for win in real.windows(2) {
            let (a, b) = (win[0], win[1]);
            assert!(
                degrees[a] < degrees[b] || (degrees[a] == degrees[b] && a < b),
                "perm not a stable degree sort"
            );
        }
        // Band d holds exactly the units of degree d, front-packed, then
        // padding sentinels.
        for (d, &cnt) in counts.iter().enumerate() {
            for (slot, js) in (band.starts[d]..band.starts[d + 1]).enumerate() {
                let orig = band.perm[js];
                if slot < cnt {
                    assert_eq!(degrees[orig], d);
                } else {
                    assert_eq!(orig, PAD, "padding slot holds a real unit");
                }
            }
        }
        // k_hi[d] is one past the highest input row with a nonzero mask
        // entry in any column of degree d (0 for empty bands) — the rows
        // the k-limited band GEMM is allowed to skip.
        for (d, &got) in band.k_hi.iter().enumerate() {
            let mut expect = 0;
            for r in 0..10 {
                for (c, &deg) in degrees.iter().take(10).enumerate() {
                    if deg == d && mask.get(r, c) != 0.0 {
                        expect = expect.max(r + 1);
                    }
                }
            }
            assert_eq!(got, expect, "k_hi wrong for band {d}");
        }
        // Sorted columns carry the masked weight of their original unit;
        // padding columns are all zero with zero bias.
        for (js, &orig) in band.perm.iter().enumerate() {
            for r in 0..10 {
                let expect = if orig == PAD {
                    0.0
                } else {
                    store.value(w).get(r, orig) * mask.get(r, orig)
                };
                assert_eq!(band.wm.get(r, js).to_bits(), expect.to_bits());
            }
            let expect_b = if orig == PAD {
                0.0
            } else {
                store.value(b).get(0, orig)
            };
            assert_eq!(band.bias[js], expect_b);
        }
    }
}
