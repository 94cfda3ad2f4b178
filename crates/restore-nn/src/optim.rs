//! Optimizers operating on a [`ParamStore`].

use crate::params::ParamStore;
use crate::tensor::Matrix;

/// Adam optimizer (Kingma & Ba) with optional decoupled weight decay.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
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
            weight_decay: 0.0,
            t: 0,
            m,
            v,
        }
    }

    /// Builder-style decoupled weight decay (AdamW).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update using the gradients accumulated in `store`, then
    /// clears them.
    pub fn step(&mut self, store: &mut ParamStore) {
        assert_eq!(store.len(), self.m.len(), "optimizer/store size mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        for (id, value, grad) in store.iter_mut() {
            // Four equal-length slices zipped, so the loop vectorises
            // (`sqrt` and `/` round correctly in every lane).
            let moments = self.m[id].data_mut().iter_mut().zip(self.v[id].data_mut());
            for ((w, &g), (m, v)) in value.data_mut().iter_mut().zip(grad.data()).zip(moments) {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * (mhat / (vhat.sqrt() + eps) + wd * *w);
            }
        }
        store.zero_grads();
    }
}

/// Plain SGD — kept as a baseline / for tests that need a predictable rule.
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    pub fn step(&mut self, store: &mut ParamStore) {
        let lr = self.lr;
        for (_, value, grad) in store.iter_mut() {
            for (w, &g) in value.data_mut().iter_mut().zip(grad.data()) {
                *w -= lr * g;
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
            store.accumulate_grad(id, &Matrix::from_rows(&[&[2.0 * (w - 3.0)]]));
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
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1);
        let w = quadratic_descent(|s| sgd.step(s));
        assert!((w - 3.0).abs() < 1e-3, "sgd converged to {w}");
    }

    #[test]
    fn step_clears_gradients() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::zeros(1, 1));
        let mut adam = Adam::new(&store, 0.01);
        store.accumulate_grad(id, &Matrix::filled(1, 1, 1.0));
        adam.step(&mut store);
        assert_eq!(store.grad(id).get(0, 0), 0.0);
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::filled(1, 1, 5.0));
        let mut adam = Adam::new(&store, 0.1).with_weight_decay(0.1);
        for _ in 0..200 {
            // zero task gradient; only decay acts
            adam.step(&mut store);
        }
        assert!(store.value(id).get(0, 0).abs() < 2.0);
    }
}
