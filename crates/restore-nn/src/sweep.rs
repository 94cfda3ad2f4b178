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
//! order), while each layer's frozen `(w ⊙ mask)ᵀ` cache has its unit rows
//! stably sorted by degree so a band is one contiguous row range for the
//! band GEMM ([`Matrix::matmul_t_band_into`], zero-initialized
//! ascending-`k` accumulation — the exact add sequence of the full tiled
//! GEMM). Band results land back in their units' rows through the
//! permutation. Every computed value is therefore the same full
//! ascending-`k` dot product the naive path computes, just computed once;
//! units of degree `> a` are masked out of everything evaluated so far and
//! stay at their zeroed placeholder.
//!
//! Rows in lanes: the trunk input, every activation matrix and the logit
//! block are **feature-major** — row `f` holds feature `f` of every batch
//! row — so the band GEMM vectorizes over batch rows, and a band of 6–10
//! units costs 6–10 units' work, with no padding to a lane multiple. The
//! output layer is frozen the same way (its column degrees are the
//! attributes the logit blocks belong to, already ascending), and each
//! logit block is transposed back to one row per batch row, bias added,
//! for the sampler.
//!
//! Distinct prefixes: until the first draw of a sweep, a row's trunk input,
//! its hidden bands of degree `≤ start`, attribute `start`'s logit block and
//! the distribution drawn from are functions of its evidence prefix — the
//! context row and the tokens `< start` — and Algorithm 1 fills a batch
//! with copies of each evidence row, one per missing tuple. The setup pass
//! runs over one row per distinct prefix ([`ArSweep::group_prefixes`]);
//! every batch row then takes its own draw, and [`ArSweep::expand_rows`]
//! copies the per-prefix state out for the incremental steps; a conditional
//! is never expanded, each row reads its prefix's distribution. Every kernel
//! computes a batch row's outputs from that row's inputs alone, so no value
//! depends on which rows are evaluated beside it.

use std::sync::Arc;

use crate::layers::MaskedLinear;
use crate::params::ParamStore;
use crate::tensor::Matrix;

/// The masked layers of a MADE network, as the sweep sees them: the input
/// layer followed by the hidden layers, the shared hidden-unit degree
/// vector, the output layer and its column degrees, and the residual
/// policy. Assembled per call by [`Made`](crate::made::Made) — it only
/// borrows the model.
pub(crate) struct SweepNet<'a> {
    /// Input layer then hidden layers, in trunk order.
    pub layers: Vec<&'a MaskedLinear>,
    /// Shared hidden-unit degrees (length ≥ the widest layer; layer `l`
    /// uses the first `width(l)` entries, exactly as mask construction
    /// does).
    pub degrees: &'a [usize],
    /// The logit layer.
    pub output: &'a MaskedLinear,
    /// The attribute each logit column belongs to: the output layer's
    /// degrees, ascending.
    pub output_degrees: &'a [usize],
    /// Number of model attributes; degrees lie in `0..n_attrs`.
    pub n_attrs: usize,
    /// Identity skips between equal-width hidden layers.
    pub residual: bool,
    /// The prebuilt frozen banded cache shared across sessions, if the
    /// model froze one (snapshot rehydration does). Sessions adopt it via
    /// `Arc` instead of re-deriving their own copy.
    pub banded: Option<&'a Arc<BandedCache>>,
}

impl<'a> SweepNet<'a> {
    /// Every layer the sweep multiplies, with its units' degrees: the
    /// trunk, then the output layer.
    fn each_layer(&self) -> impl Iterator<Item = (&'a MaskedLinear, &'a [usize])> + '_ {
        let trunk = self
            .layers
            .iter()
            .map(|l| (*l, &self.degrees[..l.mask().cols()]));
        trunk.chain([(self.output, self.output_degrees)])
    }
}

/// Frozen per-layer cache: the transposed masked weight, one row per unit,
/// with the unit rows stably sorted by degree so each degree band is a
/// contiguous row range.
#[derive(Debug)]
struct BandedLayer {
    /// `(w ⊙ mask)ᵀ`, rows permuted by `perm`: row `js` holds unit
    /// `perm[js]`'s weights over the inputs, in ascending input order.
    wmt: Matrix,
    /// Bias entries permuted identically.
    bias: Vec<f32>,
    /// Sorted position → original unit index.
    perm: Vec<usize>,
    /// `starts[d]..starts[d + 1]` is the sorted-row range of the degree-`d`
    /// band; units of degree `≤ d` occupy `0..starts[d + 1]`, and
    /// `starts[n_attrs]` is the layer width. Length `n_attrs + 1`.
    starts: Vec<usize>,
    /// `k_hi[d]` is one past the highest input row with a nonzero mask
    /// entry over the degree-`d` band's units (0 for an empty band).
    /// Inputs `≥ k_hi[d]` contribute exact zero weights, so the band GEMM
    /// contracts only `k < k_hi[d]` — for the first masked layer, whose
    /// input degrees ascend with the attribute layout, this skips the
    /// embedding blocks of attributes the band cannot read. Length
    /// `n_attrs`.
    k_hi: Vec<usize>,
}

impl BandedLayer {
    fn build(store: &ParamStore, layer: &MaskedLinear, degrees: &[usize], n_attrs: usize) -> Self {
        let (w, b) = layer.param_ids();
        let mask = layer.mask();
        let (k, width) = mask.shape();
        debug_assert_eq!(degrees.len(), width, "degree vector width mismatch");
        let mut perm: Vec<usize> = (0..width).collect();
        perm.sort_by_key(|&j| degrees[j]); // stable: within a band, original order
        let mut starts = vec![0usize; n_attrs + 1];
        for &d in degrees {
            starts[d + 1] += 1;
        }
        for d in 0..n_attrs {
            starts[d + 1] += starts[d];
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
        let (wv, bv) = (store.value(w), store.value(b));
        debug_assert_eq!(wv.shape(), (k, width), "weight/mask shape mismatch");
        let mut wmt = Matrix::zeros(width, k);
        for (js, &orig) in perm.iter().enumerate() {
            for r in 0..k {
                // Same element order as `Matrix::hadamard` (w * mask), so
                // cached values match the tape's masked weights.
                wmt.set(js, r, wv.get(r, orig) * mask.get(r, orig));
            }
        }
        Self {
            wmt,
            bias: perm.iter().map(|&j| bv.get(0, j)).collect(),
            perm,
            starts,
            k_hi,
        }
    }

    /// The units of degree bands `degrees` over the feature-major input
    /// `x`, into `out` (one row per unit, in sorted order), contracting only
    /// the inputs the bands' masks can see. Returns the sorted unit range.
    fn band_into(
        &self,
        x: &Matrix,
        degrees: std::ops::Range<usize>,
        out: &mut Matrix,
    ) -> std::ops::Range<usize> {
        let units = self.starts[degrees.start]..self.starts[degrees.end];
        let klim = self.k_hi[degrees].iter().copied().max().unwrap_or(0);
        x.matmul_t_band_into(&self.wmt, units.clone(), klim, out);
        units
    }
}

/// Frozen, `Arc`-shareable banded caches of one model, one per layer in
/// [`SweepNet::each_layer`] order — built once by
/// [`Made::freeze_banded`](crate::made::Made::freeze_banded) (snapshot
/// rehydration does this right after streaming the weights in) and adopted
/// by every inference session, so sessions skip the per-session
/// degree-sort-and-transpose copy of every layer. Weights must be frozen
/// when this is built; a model that keeps training must not freeze.
#[derive(Debug)]
pub(crate) struct BandedCache {
    /// The model's input-layer mask: what a session-built cache is known
    /// by. Weight ids are numbered from 0 in every store, so a session
    /// that sweeps a second model cannot tell the models apart by them;
    /// every model builds its own masks (held, so no later mask can reuse
    /// the address).
    mask: Arc<Matrix>,
    /// The trunk layers, then the output layer.
    layers: Vec<BandedLayer>,
}

impl BandedCache {
    pub(crate) fn build(store: &ParamStore, net: &SweepNet) -> Self {
        let layers = net
            .each_layer()
            .map(|(layer, degrees)| BandedLayer::build(store, layer, degrees, net.n_attrs));
        Self {
            mask: Arc::clone(net.layers[0].mask()),
            layers: layers.collect(),
        }
    }
}

/// Persistent state of one band-incremental sweep executor: frozen
/// degree-sorted weight caches plus the feature-major matrices the
/// attribute loop maintains. Lives inside an
/// [`InferenceSession`](crate::infer::InferenceSession), so the
/// completion engine's per-worker warm sessions keep the caches across
/// batches and path steps (parameters are frozen at completion time).
/// Activation matrices are recycled buffers — their *values* are
/// per-sweep, their allocations persist.
#[derive(Default)]
pub(crate) struct ArSweep {
    /// Degree-banded caches of the swept model's layers — the model's
    /// shared [`BandedCache`] when it froze one, otherwise built on first
    /// use. `None` before the first sweep.
    banded: Option<Arc<BandedCache>>,
    /// Current trunk input, feature-major: context block + every
    /// attribute's embedding block, refreshed in place as columns are
    /// sampled.
    x: Matrix,
    /// One activation matrix per masked trunk layer, feature-major, units
    /// in **original** order; units of degree bands not yet computed stay
    /// zeroed.
    acts: Vec<Matrix>,
    /// Band scratch, feature-major: a band's pre-activations, or the logit
    /// block before its bias.
    pre: Matrix,
    /// The buffer [`ArSweep::expand_rows`] expands into, swapped with the
    /// matrix it expanded.
    spare: Matrix,
    /// Logit block of the attribute being evaluated, one row per batch row
    /// (the full-trunk oracle, `Made::logits_attr_full_in`, writes its
    /// block here too).
    pub(crate) logits: Matrix,
    /// Softmax scratch, reused across attributes: every prefix's
    /// distribution for the first one of a sweep (and for a conditional,
    /// whose rows are visited with their prefix's slice), then one row's at
    /// a time.
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
    /// model's shared frozen cache (or builds a session-local one) unless
    /// the session already holds it, and sizes + zeroes the activation
    /// matrices (zeroed so the not-yet-computed bands contribute
    /// deterministic masked zeros to the full-length band dot products).
    pub(crate) fn begin(&mut self, store: &ParamStore, net: &SweepNet, m: usize) {
        let held = self.banded.as_ref();
        let current = match net.banded {
            Some(frozen) => held.is_some_and(|b| Arc::ptr_eq(b, frozen)),
            None => held.is_some_and(|b| Arc::ptr_eq(&b.mask, net.layers[0].mask())),
        };
        if !current {
            let cache = match net.banded {
                Some(frozen) => Arc::clone(frozen),
                None => Arc::new(BandedCache::build(store, net)),
            };
            self.banded = Some(cache);
        }
        self.x.resize(net.layers[0].mask().rows(), m);
        if self.acts.len() != net.layers.len() {
            self.acts = net.layers.iter().map(|_| Matrix::zeros(0, 0)).collect();
        }
        for (a, layer) in self.acts.iter_mut().zip(&net.layers) {
            a.resize(layer.mask().cols(), m);
            a.fill_zero();
        }
    }

    /// Setup: copies the representatives' rows of the batch context into
    /// `x`'s first features.
    pub(crate) fn set_x_context(&mut self, ctx: &Matrix) {
        let rows = self.reps.iter().map(|&r| ctx.row(r as usize));
        put_cols(&mut self.x, 0, rows);
    }

    /// Setup: gathers the embedding rows of the representatives' tokens
    /// into `x` from feature `offset` on.
    pub(crate) fn gather_x_block_reps(&mut self, offset: usize, table: &Matrix, tokens: &[u32]) {
        let reps = self.reps.iter().map(|&r| tokens[r as usize]);
        gather_block(&mut self.x, offset, table, reps);
    }

    /// Gathers embedding rows for a token column into `x` from feature
    /// `offset` on — the in-place refresh of one attribute's input block
    /// once `x` holds a column per batch row ([`ArSweep::expand_rows`]).
    pub(crate) fn gather_x_block(&mut self, offset: usize, table: &Matrix, tokens: &[u32]) {
        gather_block(&mut self.x, offset, table, tokens.iter().copied());
    }

    /// After the first draw the rows of a prefix part ways: the trunk input
    /// and the activations become one column per batch row, each a copy of
    /// its prefix's, for the incremental steps to continue from. Only what
    /// a later step reads is copied: the input features below `x_keep` (the
    /// context and the evidence's embedding blocks; every later block is
    /// gathered before it is read) and the hidden units of degree `≤ start`
    /// (the others are still zero).
    pub(crate) fn expand_rows(&mut self, net: &SweepNet, x_keep: usize, start: usize) {
        let ArSweep {
            x,
            acts,
            spare,
            group,
            ..
        } = self;
        expand(x, spare, group, |f| f < x_keep);
        for act in acts {
            expand(act, spare, group, |u| net.degrees[u] <= start);
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
        let banded = banded.as_deref().expect("begin() adopted the caches");
        let relu = |v: f32| if v < 0.0 { 0.0 } else { v };
        for (l, band) in banded.layers[..net.layers.len()].iter().enumerate() {
            let (prev, act): (&Matrix, &mut Matrix) = if l == 0 {
                (&*x, &mut acts[0])
            } else {
                let (head, tail) = acts.split_at_mut(l);
                (&head[l - 1], &mut tail[0])
            };
            let units = band.band_into(prev, degrees.clone(), pre);
            // The trunk applies residual skips only between equally shaped
            // hidden layers; the input layer (l == 0) never has one.
            let residual = l > 0 && net.residual && prev.rows() == act.rows();
            for (jj, js) in units.enumerate() {
                let (orig, b) = (band.perm[js], band.bias[js]);
                let out = act.row_mut(orig).iter_mut().zip(pre.row(jj));
                if residual {
                    for ((a, &p), &s) in out.zip(prev.row(orig)) {
                        *a = relu(p + b + s);
                    }
                } else {
                    out.for_each(|(a, &p)| *a = relu(p + b));
                }
            }
        }
    }

    /// Evaluates attribute `attr`'s logit block over the cached last-hidden
    /// activations into `self.logits`, one row per batch row: the band
    /// kernel over the frozen output layer, then the bias — the op sequence
    /// of the session's block-restricted output path.
    pub(crate) fn output_block(&mut self, attr: usize) {
        let banded = self.banded.as_deref().expect("begin() adopted the caches");
        let band = banded.layers.last().expect("the output layer's cache");
        let h = self.acts.last().expect("begin() sized the activations");
        let units = band.band_into(h, attr..attr + 1, &mut self.pre);
        let m = self.pre.cols();
        self.logits.resize(m, units.len());
        // Output columns ascend by degree already, so the sorted block is
        // the block in column order.
        for (jj, &b) in band.bias[units].iter().enumerate() {
            for (i, &p) in self.pre.row(jj).iter().enumerate() {
                self.logits.set(i, jj, p + b);
            }
        }
    }
}

/// Makes the feature-major `a` one column per batch row through `spare`:
/// the rows `keep` selects become copies of each row's prefix column
/// (`group`), the others zero.
fn expand(a: &mut Matrix, spare: &mut Matrix, group: &[u32], keep: impl Fn(usize) -> bool) {
    spare.resize(a.rows(), group.len());
    for f in 0..a.rows() {
        let (src, dst) = (a.row(f), spare.row_mut(f));
        if keep(f) {
            for (d, &g) in dst.iter_mut().zip(group) {
                *d = src[g as usize];
            }
        } else {
            dst.fill(0.0);
        }
    }
    std::mem::swap(a, spare);
}

/// Writes `table`'s row of each token into the next column of `x`, from
/// feature `offset` on.
fn gather_block(x: &mut Matrix, offset: usize, table: &Matrix, tokens: impl Iterator<Item = u32>) {
    let rows = tokens.map(|t| {
        let t = t as usize;
        assert!(
            t < table.rows(),
            "gather index {t} out of range {}",
            table.rows()
        );
        table.row(t)
    });
    put_cols(x, offset, rows);
}

/// Writes the `i`-th of `rows` into column `i` of the feature-major `x`,
/// from feature `offset` on.
fn put_cols<'r>(x: &mut Matrix, offset: usize, rows: impl Iterator<Item = &'r [f32]>) {
    let m = x.cols();
    let data = x.data_mut();
    for (i, row) in rows.enumerate() {
        for (f, &v) in row.iter().enumerate() {
            data[(offset + f) * m + i] = v;
        }
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
        let layer = MaskedLinear::new(&mut store, Arc::clone(&mask), &mut rng);
        let (w, b) = layer.param_ids();
        *store.value_mut(b) = Matrix::rand_uniform(1, 10, -1.0, 1.0, &mut rng);
        let band = BandedLayer::build(&store, &layer, &degrees[..10], 4);
        // Bands are unpadded: band `d` is exactly the units of degree `d`,
        // and the bands together are the layer.
        assert_eq!(band.starts[0], 0);
        assert_eq!(band.starts[4], 10);
        let mut counts = [0usize; 4];
        for &d in degrees.iter().take(10) {
            counts[d] += 1;
        }
        for (d, &cnt) in counts.iter().enumerate() {
            assert_eq!(band.starts[d + 1] - band.starts[d], cnt, "band {d} width");
        }
        assert_eq!(band.perm.len(), 10);
        assert_eq!(band.wmt.shape(), (10, 10));
        // perm is sorted by degree, stable within a band, and a permutation.
        let mut seen = band.perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>(), "perm not a permutation");
        for win in band.perm.windows(2) {
            let (a, b) = (win[0], win[1]);
            assert!(
                degrees[a] < degrees[b] || (degrees[a] == degrees[b] && a < b),
                "perm not a stable degree sort"
            );
        }
        for (d, &cnt) in counts.iter().enumerate() {
            for js in band.starts[d]..band.starts[d] + cnt {
                assert_eq!(degrees[band.perm[js]], d);
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
        // Sorted row `js` is the masked weight column of its original unit.
        for (js, &orig) in band.perm.iter().enumerate() {
            for r in 0..10 {
                let expect = store.value(w).get(r, orig) * mask.get(r, orig);
                assert_eq!(band.wmt.get(js, r).to_bits(), expect.to_bits());
            }
            assert_eq!(band.bias[js], store.value(b).get(0, orig));
        }
    }
}
