//! Reusable layers: linear, masked linear, embedding, and MLP.

use std::sync::Arc;

use rand::Rng;

use crate::infer::Forward;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Matrix;

/// Dense affine layer `y = x·W + b`.
#[derive(Clone, Debug)]
pub(crate) struct Linear {
    w: ParamId,
    b: ParamId,
}

impl Linear {
    pub(crate) fn new<R: Rng>(
        store: &mut ParamStore,
        in_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        let w = store.register(Matrix::glorot(in_dim, out_dim, rng));
        let b = store.register(Matrix::zeros(1, out_dim));
        Self { w, b }
    }

    pub(crate) fn forward<F: Forward>(&self, f: &mut F, store: &ParamStore, x: F::Id) -> F::Id {
        let w = f.param(store, self.w);
        let b = f.param(store, self.b);
        let h = f.matmul(x, w);
        f.add_row(h, b)
    }
}

/// Affine layer whose weight is element-wise gated by a fixed binary mask —
/// the building block of MADE.
#[derive(Clone, Debug)]
pub(crate) struct MaskedLinear {
    w: ParamId,
    b: ParamId,
    mask: Arc<Matrix>,
}

impl MaskedLinear {
    /// # Panics
    /// Panics unless `mask` holds only `0.0` and `1.0`: the weight-gradient
    /// kernel ([`Matrix::t_matmul_masked_acc`]) applies it as a select.
    pub(crate) fn new<R: Rng>(store: &mut ParamStore, mask: Arc<Matrix>, rng: &mut R) -> Self {
        assert!(
            mask.data().iter().all(|&m| m == 0.0 || m == 1.0),
            "a MADE mask is binary"
        );
        let (in_dim, out_dim) = mask.shape();
        let w = store.register(Matrix::glorot(in_dim, out_dim, rng));
        let b = store.register(Matrix::zeros(1, out_dim));
        Self { w, b, mask }
    }

    pub(crate) fn mask(&self) -> &Arc<Matrix> {
        &self.mask
    }

    /// `(weight, bias)` parameter ids — the inference engine's
    /// block-restricted output evaluation reads these directly.
    pub(crate) fn param_ids(&self) -> (ParamId, ParamId) {
        (self.w, self.b)
    }

    pub(crate) fn forward<F: Forward>(&self, f: &mut F, store: &ParamStore, x: F::Id) -> F::Id {
        let w = f.param(store, self.w);
        let b = f.param(store, self.b);
        let h = f.masked_matmul(x, w, &self.mask);
        f.add_row(h, b)
    }
}

/// Token embedding table.
#[derive(Clone, Debug)]
pub(crate) struct Embedding {
    table: ParamId,
}

impl Embedding {
    pub(crate) fn new<R: Rng>(
        store: &mut ParamStore,
        cardinality: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let table = store.register(Matrix::rand_uniform(
            cardinality.max(1),
            dim,
            -0.1,
            0.1,
            rng,
        ));
        Self { table }
    }

    /// The embedding table's parameter id — the incremental AR sweep
    /// gathers token rows straight out of the store with it.
    pub(crate) fn param_id(&self) -> ParamId {
        self.table
    }

    pub(crate) fn forward<F: Forward>(
        &self,
        f: &mut F,
        store: &ParamStore,
        tokens: &Arc<Vec<u32>>,
    ) -> F::Id {
        let table = f.param(store, self.table);
        f.gather(table, tokens)
    }
}

/// Fully connected network with ReLU activations between layers.
#[derive(Clone, Debug)]
pub(crate) struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// `dims = [in, h1, ..., out]`; ReLU after every layer except the last.
    pub(crate) fn new<R: Rng>(store: &mut ParamStore, dims: &[usize], rng: &mut R) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    pub(crate) fn forward<F: Forward>(&self, f: &mut F, store: &ParamStore, mut x: F::Id) -> F::Id {
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(f, store, x);
            if i + 1 < self.layers.len() {
                x = f.relu(x);
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_output_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, 3, 5, &mut rng);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(4, 3));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (4, 5));
    }

    #[test]
    fn embedding_looks_up_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, 10, 4, &mut rng);
        let mut tape = Tape::new();
        let y = emb.forward(&mut tape, &store, &Arc::new(vec![3, 3, 7]));
        let v = tape.value(y);
        assert_eq!(v.shape(), (3, 4));
        assert_eq!(v.row(0), v.row(1));
        assert_ne!(v.row(0), v.row(2));
    }

    #[test]
    fn mlp_learns_linear_regression() {
        // y = 2x - 1, trained with Adam on squared loss via manual seed grad.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, &[1, 8, 1], &mut rng);
        let mut adam = Adam::new(&store, 0.02);
        let xs: Vec<f32> = (0..32).map(|i| i as f32 / 16.0 - 1.0).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x - 1.0).collect();
        let x_mat = Matrix::from_vec(32, 1, xs);
        let y_mat = Matrix::from_vec(32, 1, ys);
        let mut last = f32::MAX;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let x = tape.input(x_mat.clone());
            let pred = mlp.forward(&mut tape, &store, x);
            let mut dloss = tape.value(pred).clone();
            dloss.add_scaled(&y_mat, -1.0);
            last = dloss.data().iter().map(|d| d * d).sum::<f32>() / 32.0;
            dloss.scale_assign(2.0 / 32.0);
            tape.backward(pred, dloss, &mut store);
            adam.step(&mut store);
        }
        assert!(last < 1e-2, "MLP failed to fit a line, mse = {last}");
    }

    #[test]
    fn masked_linear_respects_mask() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let mask = Arc::new(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]));
        let ml = MaskedLinear::new(&mut store, Arc::clone(&mask), &mut rng);
        let mut tape = Tape::new();
        // Vary input column 1; output column 0 must not change, and output
        // column 1 (fully masked) must stay at its bias value.
        let x1 = tape.input(Matrix::from_rows(&[&[1.0, 5.0]]));
        let y1 = ml.forward(&mut tape, &store, x1);
        let x2 = tape.input(Matrix::from_rows(&[&[1.0, -5.0]]));
        let y2 = ml.forward(&mut tape, &store, x2);
        assert_eq!(tape.value(y1).get(0, 0), tape.value(y2).get(0, 0));
        assert_eq!(tape.value(y1).get(0, 1), tape.value(y2).get(0, 1));
    }
}
