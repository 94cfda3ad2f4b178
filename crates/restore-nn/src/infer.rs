//! The gradient-free inference engine.
//!
//! Training records every op on a [`Tape`](crate::tape::Tape) (through its
//! [`TapeCtx`](crate::tape::TapeCtx)) so gradients can flow backwards; inference — the autoregressive sampling loop that
//! dominates ReStore's runtime — needs none of that. This module provides:
//!
//! * [`Forward`] — the op vocabulary shared by both execution paths. Layer
//!   definitions ([`crate::layers`], [`crate::made::Made`],
//!   [`crate::deepsets::DeepSets`]) are written once against this trait;
//!   the tape implements it by recording nodes, the inference engine by
//!   evaluating into reusable buffers.
//! * [`InferenceSession`] — a pool of preallocated activation buffers. A
//!   forward pass borrows it as an [`InferCtx`], evaluates with **no node
//!   recording, no parameter copies, and no `Arc` cloning** (parameter
//!   references resolve straight into the [`ParamStore`]), and leaves the
//!   buffers behind for the next pass. After warm-up, repeated forwards of
//!   the same shape are allocation-free.
//!
//! Both paths produce **bit-identical** values: the inference kernels reuse
//! the exact same loop orders and skip conditions as the tape ops (see
//! `Matrix::masked_matmul_into`), which the equivalence tests pin down.

use std::sync::Arc;

use crate::params::{ParamId, ParamStore};
use crate::tensor::Matrix;

/// The forward-pass op vocabulary. Implemented by the recording
/// [`TapeCtx`](crate::tape::TapeCtx) (training) and by `InferCtx` (no-grad
/// inference), so one set of layer definitions drives both paths.
pub trait Forward {
    /// Handle to a value produced during this forward pass.
    type Id: Copy;

    /// Introduces a non-trainable input by copying it in.
    fn input(&mut self, value: &Matrix) -> Self::Id;
    /// References a trainable parameter of `store`.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Self::Id;
    /// `x · w`.
    fn matmul(&mut self, x: Self::Id, w: Self::Id) -> Self::Id;
    /// `x · (w ⊙ mask)` — MADE masked linear.
    fn masked_matmul(&mut self, x: Self::Id, w: Self::Id, mask: &Arc<Matrix>) -> Self::Id;
    /// Broadcast-add a `1 × n` bias row to every row of `x`.
    fn add_row(&mut self, x: Self::Id, bias: Self::Id) -> Self::Id;
    /// Element-wise addition of equally shaped values.
    fn add(&mut self, a: Self::Id, b: Self::Id) -> Self::Id;
    /// Element-wise `max(0, x)`.
    fn relu(&mut self, x: Self::Id) -> Self::Id;
    /// Scalar multiplication.
    fn scale(&mut self, x: Self::Id, s: f32) -> Self::Id;
    /// Fused `relu(a + b)` — the residual-block hot path. The default
    /// records/evaluates the two ops separately (what the tape needs for
    /// backward); executors may fuse, the value is identical either way.
    fn add_relu(&mut self, a: Self::Id, b: Self::Id) -> Self::Id {
        let s = self.add(a, b);
        self.relu(s)
    }
    /// Column-wise concatenation.
    fn concat_cols(&mut self, parts: &[Self::Id]) -> Self::Id;
    /// Embedding gather: `out[i] = table[idx[i]]`.
    fn gather(&mut self, table: Self::Id, idx: &Arc<Vec<u32>>) -> Self::Id;
    /// Segment sum: `out[seg[i]] += x[i]` over `n_segments` output rows.
    fn segment_sum(&mut self, x: Self::Id, seg: &Arc<Vec<u32>>, n_segments: usize) -> Self::Id;
    /// The computed value behind `id`.
    fn value(&self, id: Self::Id) -> &Matrix;

    /// Shape of the value behind `id`.
    fn shape(&self, id: Self::Id) -> (usize, usize) {
        self.value(id).shape()
    }
}

/// Handle to a value inside an [`InferCtx`]: either a parameter (resolved
/// in the store, zero-copy) or an activation buffer of the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum InferRef {
    Param(ParamId),
    Buf(usize),
}

/// A reusable pool of activation buffers for gradient-free forward passes.
///
/// Create one per worker thread, then run any number of forward passes
/// through it; buffers are recycled between passes (and grown on first
/// use), so steady-state inference performs no heap allocation.
#[derive(Default)]
pub struct InferenceSession {
    bufs: Vec<Matrix>,
    /// Materialized `w ⊙ mask` per masked-linear weight (plus the mask's
    /// pointer, to catch a weight being reused under a different mask),
    /// computed once per session. The tape recomputes the hadamard on
    /// every forward; at inference the parameters are frozen, so caching
    /// it turns every masked matmul into a plain matmul. Bit-equality
    /// holds because the tape also materializes `w ⊙ mask` before
    /// multiplying.
    masked: std::collections::HashMap<crate::params::ParamId, (usize, Matrix)>,
    /// State of the band-incremental AR sweep: frozen degree-sorted
    /// masked-weight caches plus per-layer activation buffers, persistent
    /// across batches like the pooled buffers above (see
    /// [`crate::sweep::ArSweep`]).
    sweep: crate::sweep::ArSweep,
    /// Per-row conditional-distribution scratch (see
    /// [`InferenceSession::take_dists`]).
    dists: Vec<Vec<f32>>,
}

impl InferenceSession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled buffers (diagnostics).
    pub fn pooled_buffers(&self) -> usize {
        self.bufs.len()
    }

    /// The session's band-incremental sweep state plus the shared
    /// masked-weight cache, borrowed disjointly — the sweep's output-block
    /// evaluation reuses the same `w ⊙ mask` products as the full forward
    /// path instead of materializing its own copies.
    #[allow(clippy::type_complexity)]
    pub(crate) fn sweep_parts(
        &mut self,
    ) -> (
        &mut crate::sweep::ArSweep,
        &mut std::collections::HashMap<ParamId, (usize, Matrix)>,
    ) {
        (&mut self.sweep, &mut self.masked)
    }

    /// Takes the session's per-row conditional-distribution scratch — the
    /// buffer [`Made::conditional_dists_in`](crate::made::Made::conditional_dists_in)
    /// fills. Taken by value (and returned via
    /// [`InferenceSession::store_dists`]) because the fill call borrows
    /// the session too; callers that consume the distributions in place
    /// hand the allocations back so repeated calls on a warm session
    /// allocate nothing.
    pub fn take_dists(&mut self) -> Vec<Vec<f32>> {
        std::mem::take(&mut self.dists)
    }

    /// Returns a scratch taken with [`InferenceSession::take_dists`].
    pub fn store_dists(&mut self, dists: Vec<Vec<f32>>) {
        self.dists = dists;
    }

    /// Starts a forward pass against `store`, rewinding the buffer cursor.
    ///
    /// Sessions assume **frozen parameters**: masked weights are cached on
    /// first use, so create a fresh session after any optimizer step.
    pub(crate) fn ctx<'a>(&'a mut self, store: &'a ParamStore) -> InferCtx<'a> {
        InferCtx {
            store,
            bufs: &mut self.bufs,
            masked: &mut self.masked,
            used: 0,
        }
    }

    /// Resolves a handle produced by a context of this session.
    pub(crate) fn value<'a>(&'a self, store: &'a ParamStore, id: InferRef) -> &'a Matrix {
        match id {
            InferRef::Param(p) => store.value(p),
            InferRef::Buf(i) => &self.bufs[i],
        }
    }
}

/// Ensures a session masked-weight cache holds `w ⊙ mask` for `pid`,
/// materializing it on first use, and returns it. One weight must always
/// pair with the same mask within a session (true for every layer type).
/// Shared by [`InferCtx`] and the sweep's output-block evaluation, so both
/// engines read the same cached product.
pub(crate) fn masked_weight<'m>(
    masked: &'m mut std::collections::HashMap<ParamId, (usize, Matrix)>,
    store: &ParamStore,
    pid: ParamId,
    mask: &Arc<Matrix>,
) -> &'m Matrix {
    let entry = masked
        .entry(pid)
        .or_insert_with(|| (Arc::as_ptr(mask) as usize, store.value(pid).hadamard(mask)));
    debug_assert_eq!(
        entry.0,
        Arc::as_ptr(mask) as usize,
        "weight {pid} used with two different masks in one session"
    );
    &entry.1
}

/// One in-flight no-grad forward pass over an [`InferenceSession`].
pub(crate) struct InferCtx<'a> {
    store: &'a ParamStore,
    bufs: &'a mut Vec<Matrix>,
    masked: &'a mut std::collections::HashMap<ParamId, (usize, Matrix)>,
    used: usize,
}

impl InferCtx<'_> {
    /// Claims the next pooled buffer (allocating a slot on first use) and
    /// hands it out by value so the caller can write while still reading
    /// other values of `self`. Must be returned via [`InferCtx::put_back`].
    fn claim(&mut self) -> (usize, Matrix) {
        if self.used == self.bufs.len() {
            self.bufs.push(Matrix::zeros(0, 0));
        }
        let idx = self.used;
        self.used += 1;
        (idx, std::mem::take(&mut self.bufs[idx]))
    }

    fn put_back(&mut self, idx: usize, m: Matrix) -> InferRef {
        self.bufs[idx] = m;
        InferRef::Buf(idx)
    }

    fn resolve<'m>(store: &'m ParamStore, bufs: &'m [Matrix], id: InferRef) -> &'m Matrix {
        match id {
            InferRef::Param(p) => store.value(p),
            InferRef::Buf(i) => &bufs[i],
        }
    }

    /// Ensures the cached `w ⊙ mask` for parameter `pid` exists,
    /// materializing it on first use. One weight must always pair with the
    /// same mask within a session (true for every layer type).
    fn masked_weight(&mut self, pid: ParamId, mask: &Arc<Matrix>) {
        masked_weight(self.masked, self.store, pid, mask);
    }

    /// Block-restricted masked-linear output: computes only columns `cols`
    /// of `x · (w ⊙ mask) + b` — the batched sampler evaluates just the
    /// logit block of the attribute it is filling. Values are bit-identical
    /// to the corresponding slice of the full layer output.
    pub(crate) fn masked_linear_cols(
        &mut self,
        x: InferRef,
        w: ParamId,
        mask: &Arc<Matrix>,
        bias: ParamId,
        cols: std::ops::Range<usize>,
    ) -> InferRef {
        self.masked_weight(w, mask);
        let (idx, mut out) = self.claim();
        {
            let xm = Self::resolve(self.store, self.bufs, x);
            let masked = &self.masked[&w].1;
            xm.matmul_cols_into(masked, cols.clone(), &mut out);
        }
        let b = self.store.value(bias);
        let b_slice = &b.row(0)[cols];
        for r in 0..out.rows() {
            for (v, bv) in out.row_mut(r).iter_mut().zip(b_slice) {
                *v += bv;
            }
        }
        self.put_back(idx, out)
    }
}

impl Forward for InferCtx<'_> {
    type Id = InferRef;

    fn input(&mut self, value: &Matrix) -> InferRef {
        let (idx, mut out) = self.claim();
        out.copy_from(value);
        self.put_back(idx, out)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> InferRef {
        debug_assert!(
            std::ptr::eq(store, self.store),
            "parameters must come from the session's store"
        );
        InferRef::Param(id)
    }

    fn matmul(&mut self, x: InferRef, w: InferRef) -> InferRef {
        let (idx, mut out) = self.claim();
        self.value(x).matmul_into(self.value(w), &mut out);
        self.put_back(idx, out)
    }

    fn masked_matmul(&mut self, x: InferRef, w: InferRef, mask: &Arc<Matrix>) -> InferRef {
        // Weight parameters go through the per-session masked-weight cache
        // (one hadamard per session instead of one per pass), turning the
        // op into a plain tiled matmul; non-param weights fall back to the
        // fused kernel.
        if let InferRef::Param(pid) = w {
            self.masked_weight(pid, mask);
            let (idx, mut out) = self.claim();
            {
                let xm = Self::resolve(self.store, self.bufs, x);
                xm.matmul_into(&self.masked[&pid].1, &mut out);
            }
            return self.put_back(idx, out);
        }
        let (idx, mut out) = self.claim();
        self.value(x)
            .masked_matmul_into(self.value(w), mask, &mut out);
        self.put_back(idx, out)
    }

    fn add_row(&mut self, x: InferRef, bias: InferRef) -> InferRef {
        let (idx, mut out) = self.claim();
        {
            let xm = Self::resolve(self.store, self.bufs, x);
            let b = Self::resolve(self.store, self.bufs, bias);
            assert_eq!(b.shape(), (1, xm.cols()), "bias must be 1 x cols");
            let bias_row = b.row(0);
            out.resize(xm.rows(), xm.cols());
            for r in 0..xm.rows() {
                for ((o, &v), &bv) in out.row_mut(r).iter_mut().zip(xm.row(r)).zip(bias_row) {
                    *o = v + bv;
                }
            }
        }
        self.put_back(idx, out)
    }

    fn add(&mut self, a: InferRef, b: InferRef) -> InferRef {
        let (idx, mut out) = self.claim();
        {
            let am = Self::resolve(self.store, self.bufs, a);
            let bm = Self::resolve(self.store, self.bufs, b);
            assert_eq!(am.shape(), bm.shape(), "add shape mismatch");
            out.resize(am.rows(), am.cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(am.data()).zip(bm.data()) {
                *o = x + y;
            }
        }
        self.put_back(idx, out)
    }

    fn relu(&mut self, x: InferRef) -> InferRef {
        let (idx, mut out) = self.claim();
        {
            let xm = Self::resolve(self.store, self.bufs, x);
            out.resize(xm.rows(), xm.cols());
            for (o, &v) in out.data_mut().iter_mut().zip(xm.data()) {
                *o = if v < 0.0 { 0.0 } else { v };
            }
        }
        self.put_back(idx, out)
    }

    fn scale(&mut self, x: InferRef, s: f32) -> InferRef {
        let (idx, mut out) = self.claim();
        {
            let xm = Self::resolve(self.store, self.bufs, x);
            out.resize(xm.rows(), xm.cols());
            for (o, &v) in out.data_mut().iter_mut().zip(xm.data()) {
                *o = v * s;
            }
        }
        self.put_back(idx, out)
    }

    fn add_relu(&mut self, a: InferRef, b: InferRef) -> InferRef {
        let (idx, mut out) = self.claim();
        {
            let am = Self::resolve(self.store, self.bufs, a);
            let bm = Self::resolve(self.store, self.bufs, b);
            assert_eq!(am.shape(), bm.shape(), "add shape mismatch");
            out.resize(am.rows(), am.cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(am.data()).zip(bm.data()) {
                let v = x + y;
                *o = if v < 0.0 { 0.0 } else { v };
            }
        }
        self.put_back(idx, out)
    }

    fn concat_cols(&mut self, parts: &[InferRef]) -> InferRef {
        assert!(!parts.is_empty(), "concat of zero parts");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let (idx, mut out) = self.claim();
        out.resize(rows, total);
        let mut offset = 0;
        for &p in parts {
            let m = self.value(p);
            assert_eq!(m.rows(), rows, "concat row mismatch");
            let c = m.cols();
            for r in 0..rows {
                out.row_mut(r)[offset..offset + c].copy_from_slice(m.row(r));
            }
            offset += c;
        }
        self.put_back(idx, out)
    }

    fn gather(&mut self, table: InferRef, idx: &Arc<Vec<u32>>) -> InferRef {
        let (slot, mut out) = self.claim();
        let t = self.value(table);
        out.resize(idx.len(), t.cols());
        for (i, &ix) in idx.iter().enumerate() {
            let ix = ix as usize;
            assert!(ix < t.rows(), "gather index {ix} out of range {}", t.rows());
            out.row_mut(i).copy_from_slice(t.row(ix));
        }
        self.put_back(slot, out)
    }

    fn segment_sum(&mut self, x: InferRef, seg: &Arc<Vec<u32>>, n_segments: usize) -> InferRef {
        let (slot, mut out) = self.claim();
        let m = self.value(x);
        assert_eq!(m.rows(), seg.len(), "segment ids must cover all rows");
        out.resize(n_segments, m.cols());
        out.fill_zero();
        for (i, &s) in seg.iter().enumerate() {
            let s = s as usize;
            assert!(s < n_segments, "segment id {s} out of range {n_segments}");
            let src = m.row(i);
            // Safety note not needed: disjoint matrices (out is local).
            for (o, v) in out.row_mut(s).iter_mut().zip(src) {
                *o += v;
            }
        }
        self.put_back(slot, out)
    }

    fn value(&self, id: InferRef) -> &Matrix {
        match id {
            InferRef::Param(p) => self.store.value(p),
            InferRef::Buf(i) => &self.bufs[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs the same op chain on the tape and the inference engine and
    /// checks bit equality.
    #[test]
    fn ops_match_tape_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut store = ParamStore::new();
        let w = store.register(Matrix::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
        let b = store.register(Matrix::rand_uniform(1, 4, -0.5, 0.5, &mut rng));
        let table = store.register(Matrix::rand_uniform(6, 3, -1.0, 1.0, &mut rng));
        let mask = Arc::new(Matrix::from_rows(&[
            &[1.0, 0.0, 1.0, 1.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[1.0, 1.0, 0.0, 1.0],
        ]));
        let idx = Arc::new(vec![0u32, 3, 5, 1]);
        let seg = Arc::new(vec![1u32, 0, 1, 1]);

        fn chain<F: Forward>(
            f: &mut F,
            store: &ParamStore,
            (w, b, table): (ParamId, ParamId, ParamId),
            mask: &Arc<Matrix>,
            idx: &Arc<Vec<u32>>,
            seg: &Arc<Vec<u32>>,
        ) -> Matrix {
            let t = f.param(store, table);
            let x = f.gather(t, idx);
            let wv = f.param(store, w);
            let bv = f.param(store, b);
            let h = f.masked_matmul(x, wv, mask);
            let h = f.add_row(h, bv);
            let h = f.relu(h);
            let h2 = f.scale(h, 0.5);
            let h = f.add(h, h2);
            let cat = f.concat_cols(&[h, h]);
            let pooled = f.segment_sum(cat, seg, 2);
            f.value(pooled).clone()
        }

        let mut tape = Tape::new();
        let want = chain(
            &mut tape.ctx(&store),
            &store,
            (w, b, table),
            &mask,
            &idx,
            &seg,
        );

        let mut session = InferenceSession::new();
        let got = chain(
            &mut session.ctx(&store),
            &store,
            (w, b, table),
            &mask,
            &idx,
            &seg,
        );
        assert_eq!(want, got, "no-grad forward diverged from tape forward");
    }

    #[test]
    fn buffers_are_recycled_across_passes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let w = store.register(Matrix::rand_uniform(4, 4, -1.0, 1.0, &mut rng));
        let x = Matrix::rand_uniform(8, 4, -1.0, 1.0, &mut rng);
        let mut session = InferenceSession::new();
        let mut first = None;
        for _ in 0..5 {
            let mut ctx = session.ctx(&store);
            let xi = ctx.input(&x);
            let wi = ctx.param(&store, w);
            let h = ctx.matmul(xi, wi);
            let out = ctx.relu(h);
            let v = ctx.value(out).clone();
            match &first {
                None => first = Some(v),
                Some(f) => assert_eq!(f, &v),
            }
        }
        // input + matmul + relu = 3 buffers, reused every pass.
        assert_eq!(session.pooled_buffers(), 3);
    }
}
