//! Parameter storage shared by all layers of a model.
//!
//! Layers allocate parameters in a [`ParamStore`] and keep only the returned
//! [`ParamId`]s. Values and gradients are split: the store owns the values
//! plus one resident [`GradBuffer`] the optimizer consumes, while the
//! data-parallel training engine hands each microbatch its *own*
//! `GradBuffer` to accumulate into, reducing them back into the store in a
//! fixed order so training stays bit-identical under any worker count.

use crate::tensor::Matrix;

/// Index of a parameter inside a [`ParamStore`].
pub(crate) type ParamId = usize;

/// A gradient accumulator shaped like a [`ParamStore`]'s parameters.
///
/// Buffers are cheap to reuse: zeroing one keeps every allocation.
/// The training engine holds a pool of them, one in flight per microbatch.
#[derive(Clone, Debug, Default)]
pub struct GradBuffer {
    grads: Vec<Matrix>,
}

impl GradBuffer {
    /// A zeroed buffer matching `store`'s parameter shapes.
    pub(crate) fn new(store: &ParamStore) -> Self {
        Self {
            grads: store
                .values
                .iter()
                .map(|v| Matrix::zeros(v.rows(), v.cols()))
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.grads.len()
    }

    pub(crate) fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id]
    }

    /// Accumulates `delta` into the gradient of `id`.
    pub(crate) fn accumulate(&mut self, id: ParamId, delta: &Matrix) {
        self.grads[id].add_assign(delta);
    }

    /// Element-wise `self += other` over all gradients.
    pub(crate) fn add_from(&mut self, other: &GradBuffer) {
        assert_eq!(self.grads.len(), other.grads.len(), "buffer size mismatch");
        for (a, b) in self.grads.iter_mut().zip(&other.grads) {
            a.add_assign(b);
        }
    }

    /// Clears all accumulators, keeping allocations.
    pub(crate) fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Global L2 norm over all gradients.
    pub(crate) fn norm(&self) -> f32 {
        self.grads
            .iter()
            .map(|g| g.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }
}

/// Owns all trainable parameters of a model together with the resident
/// gradient buffer the optimizer consumes.
#[derive(Clone, Debug, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    grads: GradBuffer,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new parameter and returns its id.
    pub fn register(&mut self, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.values.push(value);
        self.grads.grads.push(Matrix::zeros(r, c));
        self.values.len() - 1
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters (for reporting model sizes).
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id]
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id]
    }

    pub fn grad(&self, id: ParamId) -> &Matrix {
        self.grads.grad(id)
    }

    /// Reduces a detached buffer into the resident gradients. The training
    /// engine calls this once per microbatch, in ascending microbatch
    /// order, which pins the floating-point reduction tree independently of
    /// the worker count.
    pub(crate) fn accumulate_from(&mut self, other: &GradBuffer) {
        self.grads.add_from(other);
    }

    /// Detaches the resident gradient buffer (leaving an empty one) — used
    /// by [`Tape::backward`](crate::tape::Tape::backward) to flush into the
    /// store while reading parameter values from it.
    pub(crate) fn take_grads(&mut self) -> GradBuffer {
        std::mem::take(&mut self.grads)
    }

    /// Re-attaches a buffer detached with [`ParamStore::take_grads`].
    pub(crate) fn put_grads(&mut self, grads: GradBuffer) {
        debug_assert_eq!(grads.len(), self.values.len(), "buffer size mismatch");
        self.grads = grads;
    }

    /// Clears all gradient accumulators (keeping allocations).
    pub(crate) fn zero_grads(&mut self) {
        self.grads.zero();
    }

    /// Global L2 norm over all gradients.
    pub(crate) fn grad_norm(&self) -> f32 {
        self.grads.norm()
    }

    /// Scales every gradient so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads.grads {
                g.scale_assign(s);
            }
        }
    }

    /// Copies every parameter *value* from `other` in place, reusing this
    /// store's allocations (gradients are untouched). This is the
    /// double-buffered early-stopping primitive: training keeps one
    /// best-params buffer alive and refreshes it on improved epochs
    /// instead of cloning the whole store each time.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(self.values.len(), other.values.len(), "store size mismatch");
        for (dst, src) in self.values.iter_mut().zip(&other.values) {
            dst.copy_from(src);
        }
    }

    /// All parameter values in registration order — the authoritative
    /// (unpadded) layout the persistence layer serializes.
    pub fn values(&self) -> &[Matrix] {
        &self.values
    }

    /// Overwrites every parameter value from one contiguous little-endian
    /// f32 byte stream in registration order — the snapshot loader's
    /// single-copy path: weight bytes stream straight from the file
    /// payload into the store without materializing intermediate blocks.
    pub fn import_raw_le(&mut self, bytes: &[u8]) -> Result<(), String> {
        let expected = self.num_scalars() * 4;
        if bytes.len() != expected {
            return Err(format!(
                "weight byte count mismatch: store needs {expected} bytes, import has {}",
                bytes.len()
            ));
        }
        let mut chunks = bytes.chunks_exact(4);
        for dst in &mut self.values {
            for v in dst.data_mut() {
                let chunk = chunks.next().expect("length checked above");
                *v = f32::from_le_bytes(chunk.try_into().unwrap());
            }
        }
        Ok(())
    }

    /// Iterates over `(id, value, grad)` triples, mutably — used by
    /// optimizers.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Matrix, &Matrix)> {
        self.values
            .iter_mut()
            .zip(self.grads.grads.iter())
            .enumerate()
            .map(|(id, (v, g))| (id, v, g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adds `delta` into the store's resident gradient of `id`.
    fn accumulate(store: &mut ParamStore, id: ParamId, delta: &Matrix) {
        let mut g = store.take_grads();
        g.accumulate(id, delta);
        store.put_grads(g);
    }

    #[test]
    fn register_and_accumulate() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::filled(2, 2, 1.0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 4);
        accumulate(&mut store, id, &Matrix::filled(2, 2, 0.5));
        accumulate(&mut store, id, &Matrix::filled(2, 2, 0.25));
        assert_eq!(store.grad(id).get(0, 0), 0.75);
        store.zero_grads();
        assert_eq!(store.grad(id).get(1, 1), 0.0);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::zeros(1, 2));
        accumulate(&mut store, id, &Matrix::from_rows(&[&[3.0, 4.0]]));
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-6);
        let g = store.grad(id);
        assert!((g.get(0, 0) - 0.6).abs() < 1e-6);
    }

    #[test]
    fn clip_grad_norm_leaves_small_grads() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::zeros(1, 2));
        accumulate(&mut store, id, &Matrix::from_rows(&[&[0.3, 0.4]]));
        store.clip_grad_norm(1.0);
        assert!((store.grad(id).get(0, 1) - 0.4).abs() < 1e-7);
    }

    #[test]
    fn detached_buffers_reduce_into_the_store() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::zeros(2, 2));
        let mut a = GradBuffer::new(&store);
        let mut b = GradBuffer::new(&store);
        a.accumulate(id, &Matrix::filled(2, 2, 1.0));
        b.accumulate(id, &Matrix::filled(2, 2, 2.0));
        store.accumulate_from(&a);
        store.accumulate_from(&b);
        assert_eq!(store.grad(id).get(0, 0), 3.0);
        a.zero();
        assert_eq!(a.grad(id).get(1, 1), 0.0);
    }

    #[test]
    fn take_and_put_grads_round_trip() {
        let mut store = ParamStore::new();
        let id = store.register(Matrix::zeros(1, 1));
        let mut g = store.take_grads();
        g.accumulate(id, &Matrix::filled(1, 1, 5.0));
        store.put_grads(g);
        assert_eq!(store.grad(id).get(0, 0), 5.0);
    }
}
