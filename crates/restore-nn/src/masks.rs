//! MADE mask construction (Germain et al., ICML 2015), adapted for
//! attribute-grouped inputs and an always-visible conditioning context.
//!
//! Degrees:
//! * context columns have degree `0` — visible to every hidden unit;
//! * all embedding columns of attribute `i` share degree `i + 1`;
//! * hidden units carry degrees in `[lo, n_attrs - 1]` (cycled
//!   deterministically), where `lo = 0` when a context block exists;
//! * a hidden unit of degree `m` sees inputs with degree `≤ m` and previous
//!   hidden units with degree `≤ m`;
//! * the output block of attribute `i` sees hidden units with degree `≤ i`,
//!   hence only attributes `< i` (plus context) — the autoregressive
//!   property `p(x_i | x_{<i})` holds by construction.
//!
//! All hidden layers share one degree vector so residual (identity) skips
//! between equally sized hidden layers preserve the property.

use std::sync::Arc;

use crate::tensor::Matrix;

/// The set of masks for a MADE network.
#[derive(Clone, Debug)]
pub(crate) struct MadeMasks {
    /// Mask for the input → first hidden layer.
    pub input: Arc<Matrix>,
    /// Masks for hidden → hidden layers (one per extra hidden layer).
    pub hidden: Vec<Arc<Matrix>>,
    /// Mask for last hidden → output logits.
    pub output: Arc<Matrix>,
    /// Degrees assigned to hidden units (shared across hidden layers).
    pub hidden_degrees: Vec<usize>,
}

/// Builds MADE masks.
///
/// * `attr_embed_dims[i]` — width of the embedding block of attribute `i`.
/// * `attr_cards[i]` — cardinality (output block width) of attribute `i`.
/// * `ctx_dim` — width of the conditioning context block (0 for plain AR).
/// * `hidden_sizes` — widths of the hidden layers (must be non-empty).
pub(crate) fn build_masks(
    attr_embed_dims: &[usize],
    attr_cards: &[usize],
    ctx_dim: usize,
    hidden_sizes: &[usize],
) -> MadeMasks {
    let n = attr_embed_dims.len();
    assert_eq!(n, attr_cards.len(), "embed dims / cards mismatch");
    assert!(n > 0, "MADE needs at least one attribute");
    assert!(
        !hidden_sizes.is_empty(),
        "MADE needs at least one hidden layer"
    );

    // Input degrees: ctx block (degree 0) then one block per attribute.
    let mut input_degrees = Vec::new();
    input_degrees.extend(std::iter::repeat_n(0usize, ctx_dim));
    for (i, &d) in attr_embed_dims.iter().enumerate() {
        input_degrees.extend(std::iter::repeat_n(i + 1, d));
    }

    // Hidden degrees: cycle lo..=n-1. With a context block, degree-0 units
    // exist so that attribute 0's conditional can depend on the context.
    let lo = if ctx_dim > 0 { 0 } else { 1.min(n - 1) };
    let hi = n - 1; // a hidden unit never needs to see the last attribute
    let span = hi - lo + 1;
    let degree_of = |j: usize| lo + j % span;

    let h0 = hidden_sizes[0];
    let hidden_degrees: Vec<usize> = (0..hidden_sizes.iter().copied().max().unwrap())
        .map(degree_of)
        .collect();

    // input -> hidden0: allowed iff d_in <= d_hidden.
    let mut input_mask = Matrix::zeros(input_degrees.len(), h0);
    for (r, &din) in input_degrees.iter().enumerate() {
        for (c, &dh) in hidden_degrees.iter().take(h0).enumerate() {
            if din <= dh {
                input_mask.set(r, c, 1.0);
            }
        }
    }

    // hidden -> hidden: allowed iff d_prev <= d_next.
    let mut hidden_masks = Vec::new();
    for w in hidden_sizes.windows(2) {
        let (prev, next) = (w[0], w[1]);
        let mut m = Matrix::zeros(prev, next);
        for r in 0..prev {
            for c in 0..next {
                if hidden_degrees[r] <= hidden_degrees[c] {
                    m.set(r, c, 1.0);
                }
            }
        }
        hidden_masks.push(Arc::new(m));
    }

    // last hidden -> output block of attr i: allowed iff d_hidden <= i.
    let last_h = *hidden_sizes.last().unwrap();
    let total_out: usize = attr_cards.iter().sum();
    let mut output_mask = Matrix::zeros(last_h, total_out);
    let mut offset = 0;
    for (i, &card) in attr_cards.iter().enumerate() {
        for (r, &dh) in hidden_degrees.iter().take(last_h).enumerate() {
            if dh <= i {
                for c in 0..card {
                    output_mask.set(r, offset + c, 1.0);
                }
            }
        }
        offset += card;
    }

    MadeMasks {
        input: Arc::new(input_mask),
        hidden: hidden_masks,
        output: Arc::new(output_mask),
        hidden_degrees: hidden_degrees[..hidden_sizes.iter().copied().max().unwrap()].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_attribute_sees_nothing_without_context() {
        let masks = build_masks(&[2, 2], &[3, 3], 0, &[8]);
        // Output block of attr 0 requires hidden degree <= 0; without context
        // the minimum hidden degree is 1, so the block is fully masked and
        // attr 0's conditional comes from the output bias (its marginal).
        for r in 0..8 {
            for c in 0..3 {
                assert_eq!(masks.output.get(r, c), 0.0);
            }
        }
    }

    #[test]
    fn context_is_visible_to_all_attributes() {
        let ctx = 4;
        let masks = build_masks(&[2], &[3], ctx, &[6]);
        // With one attribute, hidden degrees are all 0 and the context rows
        // of the input mask must be fully connected.
        for r in 0..ctx {
            for c in 0..6 {
                assert_eq!(masks.input.get(r, c), 1.0, "ctx row {r} col {c}");
            }
        }
        // And the single output block sees every hidden unit.
        assert!(masks.output.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn attribute_embeddings_share_degrees() {
        let masks = build_masks(&[3, 2], &[2, 2], 0, &[7]);
        // Rows 0..3 belong to attr 0, rows 3..5 to attr 1; within each block
        // all rows must have identical mask patterns.
        for c in 0..7 {
            assert_eq!(masks.input.get(0, c), masks.input.get(1, c));
            assert_eq!(masks.input.get(1, c), masks.input.get(2, c));
            assert_eq!(masks.input.get(3, c), masks.input.get(4, c));
        }
    }

    #[test]
    fn later_attributes_see_strictly_more() {
        let masks = build_masks(&[1, 1, 1], &[2, 2, 2], 0, &[12]);
        // Count connections feeding each output block; they must be
        // non-decreasing in the attribute index.
        let counts: Vec<usize> = (0..3)
            .map(|i| {
                (0..12)
                    .filter(|&r| masks.output.get(r, i * 2) == 1.0)
                    .count()
            })
            .collect();
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2]);
        assert!(counts[2] > 0);
    }

    #[test]
    fn hidden_mask_is_upper_triangular_in_degrees() {
        let masks = build_masks(&[1, 1, 1, 1], &[2, 2, 2, 2], 0, &[8, 8]);
        assert_eq!(masks.hidden.len(), 1);
        let m = &masks.hidden[0];
        for r in 0..8 {
            for c in 0..8 {
                let allowed = masks.hidden_degrees[r] <= masks.hidden_degrees[c];
                assert_eq!(m.get(r, c) == 1.0, allowed);
            }
        }
    }

    #[test]
    fn single_attribute_degenerates_to_marginal() {
        // One attribute, no context: every path from input to output must be
        // blocked (the model can only learn the marginal through the bias).
        let masks = build_masks(&[2], &[4], 0, &[6]);
        // input mask * output mask composition must be all-zero
        let composed = masks.input.matmul(&masks.output);
        assert!(composed.data().iter().all(|&v| v == 0.0));
    }
}
