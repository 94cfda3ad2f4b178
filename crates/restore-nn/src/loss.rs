//! Losses and distribution utilities.
//!
//! The MADE output layer produces one softmax *block* per attribute; the
//! training loss is the per-attribute cross entropy, optionally weighted per
//! row so attributes with unknown values (e.g. masked tuple factors) do not
//! contribute.

use crate::tensor::Matrix;

/// Numerically stable softmax of a slice, written into `out`.
pub fn softmax_into(logits: &[f32], out: &mut [f32]) {
    debug_assert_eq!(logits.len(), out.len());
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for (o, &l) in out.iter_mut().zip(logits) {
        let e = (l - max).exp();
        *o = e;
        sum += e;
    }
    if sum > 0.0 {
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

/// Convenience allocating version of [`softmax_into`].
pub(crate) fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; logits.len()];
    softmax_into(logits, &mut out);
    out
}

/// Layout of the per-attribute logit blocks inside a logits matrix.
#[derive(Clone, Debug)]
pub struct BlockLayout {
    offsets: Vec<usize>,
    cards: Vec<usize>,
    total: usize,
}

impl BlockLayout {
    /// Builds a layout from per-attribute cardinalities.
    pub(crate) fn new(cards: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(cards.len());
        let mut total = 0;
        for &c in cards {
            offsets.push(total);
            total += c;
        }
        Self {
            offsets,
            cards: cards.to_vec(),
            total,
        }
    }

    pub(crate) fn num_blocks(&self) -> usize {
        self.cards.len()
    }

    pub(crate) fn total_width(&self) -> usize {
        self.total
    }

    pub fn block(&self, i: usize) -> (usize, usize) {
        (self.offsets[i], self.cards[i])
    }

    /// Extracts the softmax distribution of block `attr` from one logits row.
    pub fn dist(&self, logits_row: &[f32], attr: usize) -> Vec<f32> {
        let (off, card) = self.block(attr);
        softmax(&logits_row[off..off + card])
    }
}

/// Result of `block_cross_entropy`.
pub struct BlockLoss {
    /// Mean negative log-likelihood per weighted target.
    pub loss: f32,
    /// Per-attribute mean NLL (unweighted rows excluded), useful as the
    /// model-selection "test loss" of the paper (§5, Fig. 5b).
    pub per_attr: Vec<f32>,
    /// Gradient w.r.t. the logits, ready to seed `Tape::backward`.
    pub dlogits: Matrix,
}

/// Unnormalized result of [`block_cross_entropy_sums`]: weighted *sums*
/// instead of means, so microbatch losses can be combined exactly — the
/// data-parallel training engine normalizes by the whole batch's weight,
/// making the reduced gradient equal to the full-batch gradient no matter
/// how the batch was split.
pub struct BlockLossSums {
    /// Σ w·nll over all targets of this (micro)batch.
    pub loss_sum: f64,
    /// Σ w over all targets of this (micro)batch.
    pub weight_sum: f64,
    /// Per-attribute Σ w·nll.
    pub per_attr: Vec<f32>,
    /// Per-attribute Σ w.
    pub per_attr_weight: Vec<f32>,
    /// **Unnormalized** gradient w.r.t. the logits (softmax − one-hot,
    /// weighted); scale by `1 / total_weight` before seeding backward.
    pub dlogits: Matrix,
}

/// Softmax cross-entropy over attribute blocks, returning unnormalized
/// weighted sums (see [`BlockLossSums`]).
///
/// * `logits` — `m × layout.total_width()`.
/// * `targets[a][r]` — token of attribute `a` in row `r`; any slice-like
///   column type works (`Vec<u32>`, `&[u32]`), so callers can borrow their
///   token columns instead of cloning them.
/// * `weights` — optional per-attribute, per-row loss weights (`0` skips the
///   row for that attribute, e.g. when the value is unknown/masked).
pub fn block_cross_entropy_sums<T: AsRef<[u32]>>(
    logits: &Matrix,
    layout: &BlockLayout,
    targets: &[T],
    weights: Option<&[Vec<f32>]>,
) -> BlockLossSums {
    let m = logits.rows();
    assert_eq!(logits.cols(), layout.total_width(), "logits width mismatch");
    assert_eq!(
        targets.len(),
        layout.num_blocks(),
        "target attr count mismatch"
    );

    let mut dlogits = Matrix::zeros(m, logits.cols());
    let mut loss_sum = 0.0f64;
    let mut weight_sum = 0.0f64;
    let mut per_attr = vec![0.0f32; layout.num_blocks()];
    let mut per_attr_weight = vec![0.0f32; layout.num_blocks()];
    let mut probs = Vec::new();

    for a in 0..layout.num_blocks() {
        let (off, card) = layout.block(a);
        probs.resize(card, 0.0);
        for r in 0..m {
            let w = weights.map_or(1.0, |ws| ws[a][r]);
            if w == 0.0 {
                continue;
            }
            let row = logits.row(r);
            softmax_into(&row[off..off + card], &mut probs);
            let t = targets[a].as_ref()[r] as usize;
            assert!(
                t < card,
                "target token {t} out of range for attr {a} (card {card})"
            );
            let p = probs[t].max(1e-12);
            let nll = -p.ln();
            loss_sum += (w * nll) as f64;
            weight_sum += w as f64;
            per_attr[a] += w * nll;
            per_attr_weight[a] += w;
            let drow = dlogits.row_mut(r);
            for (j, &pj) in probs.iter().enumerate() {
                drow[off + j] += w * pj;
            }
            drow[off + t] -= w;
        }
    }

    BlockLossSums {
        loss_sum,
        weight_sum,
        per_attr,
        per_attr_weight,
        dlogits,
    }
}

/// Softmax cross-entropy over attribute blocks — the mean-normalized
/// convenience form of [`block_cross_entropy_sums`].
pub(crate) fn block_cross_entropy<T: AsRef<[u32]>>(
    logits: &Matrix,
    layout: &BlockLayout,
    targets: &[T],
    weights: Option<&[Vec<f32>]>,
) -> BlockLoss {
    let mut sums = block_cross_entropy_sums(logits, layout, targets, weights);
    let norm = if sums.weight_sum > 0.0 {
        1.0 / sums.weight_sum as f32
    } else {
        0.0
    };
    sums.dlogits.scale_assign(norm);
    for (p, w) in sums.per_attr.iter_mut().zip(&sums.per_attr_weight) {
        if *w > 0.0 {
            *p /= w;
        }
    }
    BlockLoss {
        loss: if sums.weight_sum > 0.0 {
            (sums.loss_sum / sums.weight_sum) as f32
        } else {
            0.0
        },
        per_attr: sums.per_attr,
        dlogits: sums.dlogits,
    }
}

/// Kullback–Leibler divergence `D_KL(p ‖ q)` between two discrete
/// distributions. Used by the completion-confidence machinery (§6): the
/// certainty of a prediction is `1 − exp(−D_KL(P_model ‖ P_incomplete))`.
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f32 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let mut kl = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi > 0.0 {
            kl += pi * (pi / qi.max(1e-9)).ln();
        }
    }
    kl.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let s = softmax(&[1000.0, -1000.0]);
        assert!((s[0] - 1.0).abs() < 1e-6);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn layout_blocks_are_contiguous() {
        let layout = BlockLayout::new(&[3, 2, 4]);
        assert_eq!(layout.total_width(), 9);
        assert_eq!(layout.block(0), (0, 3));
        assert_eq!(layout.block(1), (3, 2));
        assert_eq!(layout.block(2), (5, 4));
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_card() {
        let layout = BlockLayout::new(&[4]);
        let logits = Matrix::zeros(2, 4);
        let loss = block_cross_entropy(&logits, &layout, &[vec![0, 3]], None);
        assert!((loss.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_is_softmax_minus_onehot() {
        let layout = BlockLayout::new(&[2]);
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let loss = block_cross_entropy(&logits, &layout, &[vec![1]], None);
        assert!((loss.dlogits.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((loss.dlogits.get(0, 1) + 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_weight_rows_are_skipped() {
        let layout = BlockLayout::new(&[2]);
        let logits = Matrix::from_rows(&[&[5.0, -5.0], &[0.0, 0.0]]);
        let weights = vec![vec![0.0, 1.0]];
        let loss = block_cross_entropy(&logits, &layout, &[vec![1, 0]], Some(&weights));
        // Only the second (uniform) row counts.
        assert!((loss.loss - (2.0f32).ln()).abs() < 1e-5);
        assert_eq!(loss.dlogits.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn kl_divergence_zero_iff_equal() {
        let p = vec![0.2, 0.3, 0.5];
        assert!(kl_divergence(&p, &p) < 1e-7);
        let q = vec![0.5, 0.3, 0.2];
        assert!(kl_divergence(&p, &q) > 0.01);
    }

    #[test]
    fn per_attr_loss_separates_blocks() {
        let layout = BlockLayout::new(&[2, 2]);
        // First block confident-correct, second uniform.
        let logits = Matrix::from_rows(&[&[10.0, -10.0, 0.0, 0.0]]);
        let loss = block_cross_entropy(&logits, &layout, &[vec![0], vec![1]], None);
        assert!(loss.per_attr[0] < 1e-3);
        assert!((loss.per_attr[1] - (2.0f32).ln()).abs() < 1e-5);
    }
}
