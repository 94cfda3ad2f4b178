//! Optimizers operating on a [`ParamStore`].

use crate::params::ParamStore;
use crate::tensor::Matrix;

/// Adam optimizer (Kingma & Ba).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer sized for `store`.
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        let mut m = Vec::with_capacity(store.len());
        let mut v = Vec::with_capacity(store.len());
        for id in 0..store.len() {
            let (r, c) = store.value(id).shape();
            m.push(Matrix::zeros(r, c));
            v.push(Matrix::zeros(r, c));
        }
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }

    /// Applies one update using the gradients accumulated in `store`, then
    /// clears them.
    pub fn step(&mut self, store: &mut ParamStore) {
        assert_eq!(store.len(), self.m.len(), "optimizer/store size mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for (id, value, grad) in store.iter_mut() {
            // Four equal-length slices zipped, so the loop vectorises
            // (`sqrt` and `/` round correctly in every lane).
            let moments = self.m[id].data_mut().iter_mut().zip(self.v[id].data_mut());
            for ((w, &g), (m, v)) in value.data_mut().iter_mut().zip(grad.data()).zip(moments) {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * (mhat / (vhat.sqrt() + eps));
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(w) = (w - 3)^2; gradient 2(w - 3).
    fn quadratic_descent<F: FnMut(&mut ParamStore)>(mut step: F) -> f32 {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::zeros(1, 1));
        for _ in 0..500 {
            let w = store.value(id).get(0, 0);
            let mut g = store.take_grads();
            g.accumulate(id, &Matrix::from_rows(&[&[2.0 * (w - 3.0)]]));
            store.put_grads(g);
            step(&mut store);
        }
        store.value(id).get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        store.register(Matrix::zeros(1, 1));
        let mut adam = Adam::new(&store, 0.05);
        let w = quadratic_descent(|s| adam.step(s));
        assert!((w - 3.0).abs() < 0.05, "adam converged to {w}");
    }

    #[test]
    fn step_clears_gradients() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::zeros(1, 1));
        let mut adam = Adam::new(&store, 0.01);
        let mut g = store.take_grads();
        g.accumulate(id, &Matrix::filled(1, 1, 1.0));
        store.put_grads(g);
        adam.step(&mut store);
        assert_eq!(store.grad(id).get(0, 0), 0.0);
    }
}
