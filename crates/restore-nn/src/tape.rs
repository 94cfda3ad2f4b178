//! A small tape-based reverse-mode automatic differentiation engine,
//! arena-backed so one tape can be reused across training steps.
//!
//! The tape records every operation of a forward pass as an op plus a value
//! slot in a node *arena*; calling [`Tape::backward`] walks the ops in
//! reverse and accumulates gradients into a matching gradient arena.
//! [`Tape::reset`] rewinds the arenas without dropping their matrices, so
//! after the first step of a training run every forward + backward pass of
//! the same shape performs **no heap allocation** — mirroring what
//! [`InferenceSession`](crate::infer::InferenceSession) does for the
//! gradient-free completion path.
//!
//! Two ways to drive it:
//!
//! * the inherent op methods (and the legacy [`Forward`] impl on `Tape`
//!   itself) *materialize* parameter leaves by copying the store's current
//!   values into the arena — the original behaviour, kept for tests and
//!   single-shot uses;
//! * [`Tape::ctx`] borrows the tape together with a [`ParamStore`] and
//!   returns a [`TapeCtx`], whose [`Forward`] impl resolves parameter
//!   leaves **in place** (no copies) — the hot training path.
//!
//! Only the operations the ReStore models need are implemented: (masked)
//! matrix multiplication, bias broadcast, element-wise add, ReLU, column
//! concatenation, embedding gather, and segment-sum pooling (for DeepSets).

use std::sync::Arc;

use crate::infer::Forward;
use crate::params::{GradBuffer, ParamId, ParamStore};
use crate::tensor::Matrix;

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarId(usize);

enum Op {
    /// Input or parameter leaf. `param` is `Some` for trainable leaves.
    Leaf { param: Option<ParamId> },
    /// `x · w`
    MatMul { x: VarId, w: VarId },
    /// `x · (w ⊙ mask)` — used by MADE masked linear layers. `masked`
    /// indexes the arena slot holding the materialized `w ⊙ mask`, which
    /// the backward pass reuses instead of recomputing the hadamard.
    MaskedMatMul {
        x: VarId,
        w: VarId,
        mask: Arc<Matrix>,
        masked: usize,
    },
    /// Broadcast-add a `1 × n` bias row to every row of `x`.
    AddRow { x: VarId, bias: VarId },
    /// Element-wise addition of equally shaped values.
    Add { a: VarId, b: VarId },
    /// Element-wise `max(0, x)`.
    Relu { x: VarId },
    /// Column-wise concatenation; the ids live in the tape's parts arena.
    ConcatCols { parts: std::ops::Range<usize> },
    /// Gather rows of an embedding matrix: `out[i] = table[idx[i]]`.
    Gather { table: VarId, idx: Arc<Vec<u32>> },
    /// Segment sum: `out[seg[i]] += x[i]`, with `n_segments` output rows.
    SegmentSum {
        x: VarId,
        seg: Arc<Vec<u32>>,
        n_segments: usize,
    },
    /// Scalar multiplication.
    Scale { x: VarId, s: f32 },
}

/// Records a forward pass; consumed by [`Tape::backward`]. Reusable via
/// `Tape::reset` / [`Tape::ctx`] — the node, gradient, parts, and
/// masked-weight arenas all keep their capacity across passes.
#[derive(Default)]
pub struct Tape {
    ops: Vec<Op>,
    /// Node value arena; `values[i]` is valid iff `materialized[i]`.
    values: Vec<Matrix>,
    materialized: Vec<bool>,
    /// Node gradient arena; `grads[i]` is valid iff `has_grad[i]`.
    grads: Vec<Matrix>,
    has_grad: Vec<bool>,
    /// Backing storage for `Op::ConcatCols` part lists.
    parts: Vec<VarId>,
    /// Materialized `w ⊙ mask` products, one per masked matmul of the pass.
    masked: Vec<Matrix>,
    masked_len: usize,
    /// Live node count of the current pass (`<= values.len()`).
    len: usize,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the tape for a fresh pass, keeping every arena allocation.
    pub(crate) fn reset(&mut self) {
        self.len = 0;
        self.ops.clear();
        self.parts.clear();
        self.masked_len = 0;
        self.materialized.fill(false);
        self.has_grad.fill(false);
    }

    /// Starts a recorded forward pass whose parameter leaves resolve
    /// straight into `store` (no copies). Resets the tape first.
    pub fn ctx<'a>(&'a mut self, store: &'a ParamStore) -> TapeCtx<'a> {
        self.reset();
        TapeCtx { tape: self, store }
    }

    /// The current value of `v`.
    ///
    /// # Panics
    /// Panics for parameter leaves recorded through a [`TapeCtx`] (they
    /// are resolved in the store, not materialized here).
    pub fn value(&self, v: VarId) -> &Matrix {
        self.val(None, v)
    }

    fn val<'a>(&'a self, store: Option<&'a ParamStore>, v: VarId) -> &'a Matrix {
        if self.materialized[v.0] {
            return &self.values[v.0];
        }
        match (&self.ops[v.0], store) {
            (Op::Leaf { param: Some(pid) }, Some(s)) => s.value(*pid),
            (Op::Leaf { param: Some(_) }, None) => {
                panic!("parameter leaf is not materialized; resolve it through the store")
            }
            _ => unreachable!("only parameter leaves can be unmaterialized"),
        }
    }

    fn val_shape(&self, store: Option<&ParamStore>, v: VarId) -> (usize, usize) {
        self.val(store, v).shape()
    }

    /// Claims the value slot of the next node, handing the matrix out by
    /// value so the caller can write while reading other arena values.
    fn claim(&mut self) -> (usize, Matrix) {
        if self.len == self.values.len() {
            self.values.push(Matrix::default());
            self.materialized.push(false);
            self.grads.push(Matrix::default());
            self.has_grad.push(false);
        }
        let i = self.len;
        self.len += 1;
        (i, std::mem::take(&mut self.values[i]))
    }

    fn put(&mut self, i: usize, op: Op, value: Matrix) -> VarId {
        self.values[i] = value;
        self.materialized[i] = true;
        self.ops.push(op);
        debug_assert_eq!(self.ops.len(), i + 1, "op/arena cursor drift");
        VarId(i)
    }

    fn claim_masked(&mut self) -> (usize, Matrix) {
        if self.masked_len == self.masked.len() {
            self.masked.push(Matrix::default());
        }
        let i = self.masked_len;
        self.masked_len += 1;
        (i, std::mem::take(&mut self.masked[i]))
    }

    // ---- op recording (store = None → operands must be materialized) ----

    fn do_input(&mut self, value: &Matrix) -> VarId {
        let (i, mut out) = self.claim();
        out.copy_from(value);
        self.put(i, Op::Leaf { param: None }, out)
    }

    fn do_param_ref(&mut self, id: ParamId) -> VarId {
        let (i, buf) = self.claim();
        // Keep the (stale) buffer in the arena slot; the node resolves
        // against the store instead.
        self.values[i] = buf;
        self.ops.push(Op::Leaf { param: Some(id) });
        debug_assert_eq!(self.ops.len(), i + 1, "op/arena cursor drift");
        VarId(i)
    }

    fn do_matmul(&mut self, store: Option<&ParamStore>, x: VarId, w: VarId) -> VarId {
        let (i, mut out) = self.claim();
        {
            let xm = self.val(store, x);
            let wm = self.val(store, w);
            xm.matmul_into(wm, &mut out);
        }
        self.put(i, Op::MatMul { x, w }, out)
    }

    fn do_masked_matmul(
        &mut self,
        store: Option<&ParamStore>,
        x: VarId,
        w: VarId,
        mask: Arc<Matrix>,
    ) -> VarId {
        let (mi, mut mbuf) = self.claim_masked();
        {
            let wm = self.val(store, w);
            assert_eq!(wm.shape(), mask.shape(), "mask shape mismatch");
            mbuf.resize(wm.rows(), wm.cols());
            for ((o, &a), &b) in mbuf.data_mut().iter_mut().zip(wm.data()).zip(mask.data()) {
                *o = a * b;
            }
        }
        self.masked[mi] = mbuf;
        let (i, mut out) = self.claim();
        {
            let xm = self.val(store, x);
            xm.matmul_into(&self.masked[mi], &mut out);
        }
        self.put(
            i,
            Op::MaskedMatMul {
                x,
                w,
                mask,
                masked: mi,
            },
            out,
        )
    }

    fn do_add_row(&mut self, store: Option<&ParamStore>, x: VarId, bias: VarId) -> VarId {
        let (i, mut out) = self.claim();
        {
            let xm = self.val(store, x);
            let b = self.val(store, bias);
            assert_eq!(b.shape(), (1, xm.cols()), "bias must be 1 x cols");
            out.resize(xm.rows(), xm.cols());
            let bias_row = b.row(0);
            for r in 0..xm.rows() {
                let src = xm.row(r);
                let dst = &mut out.data_mut()[r * src.len()..(r + 1) * src.len()];
                for ((o, &v), &bv) in dst.iter_mut().zip(src).zip(bias_row) {
                    *o = v + bv;
                }
            }
        }
        self.put(i, Op::AddRow { x, bias }, out)
    }

    fn do_add(&mut self, store: Option<&ParamStore>, a: VarId, b: VarId) -> VarId {
        let (i, mut out) = self.claim();
        {
            let am = self.val(store, a);
            let bm = self.val(store, b);
            assert_eq!(am.shape(), bm.shape(), "add shape mismatch");
            out.resize(am.rows(), am.cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(am.data()).zip(bm.data()) {
                *o = x + y;
            }
        }
        self.put(i, Op::Add { a, b }, out)
    }

    fn do_relu(&mut self, store: Option<&ParamStore>, x: VarId) -> VarId {
        let (i, mut out) = self.claim();
        {
            let xm = self.val(store, x);
            out.resize(xm.rows(), xm.cols());
            for (o, &v) in out.data_mut().iter_mut().zip(xm.data()) {
                *o = if v < 0.0 { 0.0 } else { v };
            }
        }
        self.put(i, Op::Relu { x }, out)
    }

    fn do_scale(&mut self, store: Option<&ParamStore>, x: VarId, s: f32) -> VarId {
        let (i, mut out) = self.claim();
        {
            let xm = self.val(store, x);
            out.resize(xm.rows(), xm.cols());
            for (o, &v) in out.data_mut().iter_mut().zip(xm.data()) {
                *o = v * s;
            }
        }
        self.put(i, Op::Scale { x, s }, out)
    }

    fn do_concat_cols(&mut self, store: Option<&ParamStore>, parts: &[VarId]) -> VarId {
        assert!(!parts.is_empty(), "concat of zero parts");
        let start = self.parts.len();
        self.parts.extend_from_slice(parts);
        let range = start..self.parts.len();
        let (i, mut out) = self.claim();
        {
            let rows = self.val(store, parts[0]).rows();
            let total: usize = parts.iter().map(|&p| self.val(store, p).cols()).sum();
            out.resize(rows, total);
            let mut offset = 0;
            for &p in parts {
                let m = self.val(store, p);
                assert_eq!(m.rows(), rows, "concat row mismatch");
                let c = m.cols();
                for r in 0..rows {
                    out.data_mut()[r * total + offset..r * total + offset + c]
                        .copy_from_slice(m.row(r));
                }
                offset += c;
            }
        }
        self.put(i, Op::ConcatCols { parts: range }, out)
    }

    fn do_gather(&mut self, store: Option<&ParamStore>, table: VarId, idx: Arc<Vec<u32>>) -> VarId {
        let (i, mut out) = self.claim();
        {
            let t = self.val(store, table);
            out.resize(idx.len(), t.cols());
            for (r, &ix) in idx.iter().enumerate() {
                let ix = ix as usize;
                assert!(ix < t.rows(), "gather index {ix} out of range {}", t.rows());
                let c = t.cols();
                out.data_mut()[r * c..(r + 1) * c].copy_from_slice(t.row(ix));
            }
        }
        self.put(i, Op::Gather { table, idx }, out)
    }

    fn do_segment_sum(
        &mut self,
        store: Option<&ParamStore>,
        x: VarId,
        seg: Arc<Vec<u32>>,
        n_segments: usize,
    ) -> VarId {
        let (i, mut out) = self.claim();
        {
            let m = self.val(store, x);
            assert_eq!(m.rows(), seg.len(), "segment ids must cover all rows");
            let cols = m.cols();
            out.resize(n_segments, cols);
            out.fill_zero();
            for (r, &s) in seg.iter().enumerate() {
                let s = s as usize;
                assert!(s < n_segments, "segment id {s} out of range {n_segments}");
                let src = m.row(r);
                for (o, v) in out.data_mut()[s * cols..(s + 1) * cols].iter_mut().zip(src) {
                    *o += v;
                }
            }
        }
        self.put(i, Op::SegmentSum { x, seg, n_segments }, out)
    }

    // ---- legacy inherent API (parameter leaves are materialized) --------

    /// Records a non-trainable input leaf.
    pub fn input(&mut self, value: Matrix) -> VarId {
        self.do_input(&value)
    }

    /// Records a trainable parameter leaf with a *copy* of the store's
    /// current value (the original tape behaviour). The training engine
    /// avoids the copy by recording through [`Tape::ctx`] instead.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        let (i, mut out) = self.claim();
        out.copy_from(store.value(id));
        self.put(i, Op::Leaf { param: Some(id) }, out)
    }

    pub fn matmul(&mut self, x: VarId, w: VarId) -> VarId {
        self.do_matmul(None, x, w)
    }

    /// Masked matmul `x · (w ⊙ mask)`; the mask is applied on the fly so the
    /// stored parameter stays dense and the optimizer never sees the mask.
    pub(crate) fn masked_matmul(&mut self, x: VarId, w: VarId, mask: Arc<Matrix>) -> VarId {
        self.do_masked_matmul(None, x, w, mask)
    }

    pub(crate) fn add_row(&mut self, x: VarId, bias: VarId) -> VarId {
        self.do_add_row(None, x, bias)
    }

    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.do_add(None, a, b)
    }

    pub(crate) fn relu(&mut self, x: VarId) -> VarId {
        self.do_relu(None, x)
    }

    pub fn scale(&mut self, x: VarId, s: f32) -> VarId {
        self.do_scale(None, x, s)
    }

    /// Concatenates values column-wise. All parts must share the row count.
    pub(crate) fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        self.do_concat_cols(None, parts)
    }

    /// Embedding lookup: row `i` of the output is row `idx[i]` of `table`.
    pub(crate) fn gather(&mut self, table: VarId, idx: Arc<Vec<u32>>) -> VarId {
        self.do_gather(None, table, idx)
    }

    /// Sum-pooling by segment: output row `s` is the sum of input rows `i`
    /// with `seg[i] == s`. Segments with no members stay zero — exactly the
    /// behaviour DeepSets needs for empty evidence sets.
    pub(crate) fn segment_sum(&mut self, x: VarId, seg: Arc<Vec<u32>>, n_segments: usize) -> VarId {
        self.do_segment_sum(None, x, seg, n_segments)
    }

    // ---- backward -------------------------------------------------------

    /// Claims the gradient slot of `v`, zero-initializing it to the given
    /// shape the first time a gradient reaches the node.
    fn take_grad(&mut self, v: VarId, rows: usize, cols: usize) -> Matrix {
        let mut g = std::mem::take(&mut self.grads[v.0]);
        if !self.has_grad[v.0] {
            g.resize(rows, cols);
            g.fill_zero();
            self.has_grad[v.0] = true;
        }
        g
    }

    fn put_grad(&mut self, v: VarId, g: Matrix) {
        self.grads[v.0] = g;
    }

    /// Runs reverse-mode differentiation seeding `root`'s gradient with
    /// `seed` (same shape as `root`'s value), then flushes parameter
    /// gradients into `store`'s resident gradient buffer.
    pub fn backward(&mut self, root: VarId, seed: Matrix, store: &mut ParamStore) {
        let mut grads = store.take_grads();
        self.backward_with(root, seed, store, &mut grads);
        store.put_grads(grads);
    }

    /// [`Tape::backward`] flushing into a caller-owned [`GradBuffer`] —
    /// the data-parallel training engine gives every microbatch its own
    /// buffer and reduces them in a fixed order afterwards. Parameter
    /// values are only *read* from `store`.
    pub fn backward_with(
        &mut self,
        root: VarId,
        seed: Matrix,
        store: &ParamStore,
        out: &mut GradBuffer,
    ) {
        assert_eq!(
            self.val_shape(Some(store), root),
            seed.shape(),
            "seed gradient shape mismatch"
        );
        {
            let (r, c) = seed.shape();
            let mut g = self.take_grad(root, r, c);
            g.add_assign(&seed);
            self.put_grad(root, g);
        }

        for i in (0..=root.0).rev() {
            if !self.has_grad[i] {
                continue;
            }
            let gi = std::mem::take(&mut self.grads[i]);
            match &self.ops[i] {
                Op::Leaf { param } => {
                    if let Some(pid) = *param {
                        out.accumulate(pid, &gi);
                    }
                }
                Op::MatMul { x, w } => {
                    let (x, w) = (*x, *w);
                    let (xr, xc) = self.val_shape(Some(store), x);
                    let mut gx = self.take_grad(x, xr, xc);
                    gi.matmul_t_acc(self.val(Some(store), w), &mut gx);
                    self.put_grad(x, gx);
                    let (wr, wc) = self.val_shape(Some(store), w);
                    let mut gw = self.take_grad(w, wr, wc);
                    self.val(Some(store), x).t_matmul_acc(&gi, &mut gw);
                    self.put_grad(w, gw);
                }
                Op::MaskedMatMul {
                    x, w, mask, masked, ..
                } => {
                    let (x, w, mi) = (*x, *w, *masked);
                    let mask = Arc::clone(mask);
                    let (xr, xc) = self.val_shape(Some(store), x);
                    let mut gx = self.take_grad(x, xr, xc);
                    gi.matmul_t_acc(&self.masked[mi], &mut gx);
                    self.put_grad(x, gx);
                    let (wr, wc) = self.val_shape(Some(store), w);
                    let mut gw = self.take_grad(w, wr, wc);
                    self.val(Some(store), x)
                        .t_matmul_masked_acc(&gi, &mask, &mut gw);
                    self.put_grad(w, gw);
                }
                Op::AddRow { x, bias } => {
                    let (x, bias) = (*x, *bias);
                    let (r, c) = gi.shape();
                    let mut gx = self.take_grad(x, r, c);
                    gx.add_assign(&gi);
                    self.put_grad(x, gx);
                    let mut gb = self.take_grad(bias, 1, c);
                    gi.col_sums_acc(&mut gb);
                    self.put_grad(bias, gb);
                }
                Op::Add { a, b } => {
                    let (a, b) = (*a, *b);
                    let (r, c) = gi.shape();
                    let mut ga = self.take_grad(a, r, c);
                    ga.add_assign(&gi);
                    self.put_grad(a, ga);
                    let mut gb = self.take_grad(b, r, c);
                    gb.add_assign(&gi);
                    self.put_grad(b, gb);
                }
                Op::Relu { x } => {
                    let x = *x;
                    let (r, c) = gi.shape();
                    let mut gx = self.take_grad(x, r, c);
                    {
                        let xv = self.val(Some(store), x);
                        for ((o, &g), &v) in gx.data_mut().iter_mut().zip(gi.data()).zip(xv.data())
                        {
                            if v > 0.0 {
                                *o += g;
                            }
                        }
                    }
                    self.put_grad(x, gx);
                }
                Op::ConcatCols { parts } => {
                    let parts = parts.clone();
                    let rows = gi.rows();
                    let mut offset = 0;
                    for k in parts {
                        let p = self.parts[k];
                        let (pr, pc) = self.val_shape(Some(store), p);
                        let mut gp = self.take_grad(p, pr, pc);
                        for r in 0..rows {
                            for (o, &g) in gp
                                .row_mut(r)
                                .iter_mut()
                                .zip(&gi.row(r)[offset..offset + pc])
                            {
                                *o += g;
                            }
                        }
                        self.put_grad(p, gp);
                        offset += pc;
                    }
                }
                Op::Gather { table, idx } => {
                    let (table, idx) = (*table, Arc::clone(idx));
                    let (tr, tc) = self.val_shape(Some(store), table);
                    let mut gt = self.take_grad(table, tr, tc);
                    for (r, &ix) in idx.iter().enumerate() {
                        let src = gi.row(r);
                        let dst = gt.row_mut(ix as usize);
                        for (d, g) in dst.iter_mut().zip(src) {
                            *d += g;
                        }
                    }
                    self.put_grad(table, gt);
                }
                Op::SegmentSum { x, seg, n_segments } => {
                    debug_assert_eq!(gi.rows(), *n_segments);
                    let (x, seg) = (*x, Arc::clone(seg));
                    let cols = gi.cols();
                    let mut gx = self.take_grad(x, seg.len(), cols);
                    for (r, &s) in seg.iter().enumerate() {
                        for (o, &g) in gx.row_mut(r).iter_mut().zip(gi.row(s as usize)) {
                            *o += g;
                        }
                    }
                    self.put_grad(x, gx);
                }
                Op::Scale { x, s } => {
                    let (x, s) = (*x, *s);
                    let (r, c) = gi.shape();
                    let mut gx = self.take_grad(x, r, c);
                    gx.add_scaled(&gi, s);
                    self.put_grad(x, gx);
                }
            }
            self.grads[i] = gi;
        }
    }
}

/// One recorded forward pass over a reusable [`Tape`] with parameters
/// resolved in place — the training-path mirror of `InferCtx`.
pub struct TapeCtx<'a> {
    tape: &'a mut Tape,
    store: &'a ParamStore,
}

impl Forward for TapeCtx<'_> {
    type Id = VarId;

    fn input(&mut self, value: &Matrix) -> VarId {
        self.tape.do_input(value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        debug_assert!(
            std::ptr::eq(store, self.store),
            "parameters must come from the context's store"
        );
        self.tape.do_param_ref(id)
    }

    fn matmul(&mut self, x: VarId, w: VarId) -> VarId {
        self.tape.do_matmul(Some(self.store), x, w)
    }

    fn masked_matmul(&mut self, x: VarId, w: VarId, mask: &Arc<Matrix>) -> VarId {
        self.tape
            .do_masked_matmul(Some(self.store), x, w, Arc::clone(mask))
    }

    fn add_row(&mut self, x: VarId, bias: VarId) -> VarId {
        self.tape.do_add_row(Some(self.store), x, bias)
    }

    fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.tape.do_add(Some(self.store), a, b)
    }

    fn relu(&mut self, x: VarId) -> VarId {
        self.tape.do_relu(Some(self.store), x)
    }

    fn scale(&mut self, x: VarId, s: f32) -> VarId {
        self.tape.do_scale(Some(self.store), x, s)
    }

    fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        self.tape.do_concat_cols(Some(self.store), parts)
    }

    fn gather(&mut self, table: VarId, idx: &Arc<Vec<u32>>) -> VarId {
        self.tape
            .do_gather(Some(self.store), table, Arc::clone(idx))
    }

    fn segment_sum(&mut self, x: VarId, seg: &Arc<Vec<u32>>, n_segments: usize) -> VarId {
        self.tape
            .do_segment_sum(Some(self.store), x, Arc::clone(seg), n_segments)
    }

    fn value(&self, id: VarId) -> &Matrix {
        self.tape.val(Some(self.store), id)
    }
}

/// The tape records ops instead of just evaluating them; layer definitions
/// written against [`Forward`] drive training through this impl (parameter
/// values copied into leaves — see [`Tape::ctx`] for the zero-copy path)
/// and inference through `InferCtx`.
impl Forward for Tape {
    type Id = VarId;

    fn input(&mut self, value: &Matrix) -> VarId {
        self.do_input(value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        Tape::param(self, store, id)
    }

    fn matmul(&mut self, x: VarId, w: VarId) -> VarId {
        Tape::matmul(self, x, w)
    }

    fn masked_matmul(&mut self, x: VarId, w: VarId, mask: &Arc<Matrix>) -> VarId {
        Tape::masked_matmul(self, x, w, Arc::clone(mask))
    }

    fn add_row(&mut self, x: VarId, bias: VarId) -> VarId {
        Tape::add_row(self, x, bias)
    }

    fn add(&mut self, a: VarId, b: VarId) -> VarId {
        Tape::add(self, a, b)
    }

    fn relu(&mut self, x: VarId) -> VarId {
        Tape::relu(self, x)
    }

    fn scale(&mut self, x: VarId, s: f32) -> VarId {
        Tape::scale(self, x, s)
    }

    fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        Tape::concat_cols(self, parts)
    }

    fn gather(&mut self, table: VarId, idx: &Arc<Vec<u32>>) -> VarId {
        Tape::gather(self, table, Arc::clone(idx))
    }

    fn segment_sum(&mut self, x: VarId, seg: &Arc<Vec<u32>>, n_segments: usize) -> VarId {
        Tape::segment_sum(self, x, Arc::clone(seg), n_segments)
    }

    fn value(&self, id: VarId) -> &Matrix {
        Tape::value(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn finite_diff_check<F>(param_shape: (usize, usize), mut f: F, seed: u64)
    where
        F: FnMut(&mut Tape, VarId) -> VarId,
    {
        // Scalar-output finite-difference gradient check for a single param.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let pid = store.register(Matrix::rand_uniform(
            param_shape.0,
            param_shape.1,
            -0.8,
            0.8,
            &mut rng,
        ));

        // Analytic gradient.
        let mut tape = Tape::new();
        let p = tape.param(&store, pid);
        let out = f(&mut tape, p);
        let (or, oc) = tape.value(out).shape();
        store.zero_grads();
        tape.backward(out, Matrix::filled(or, oc, 1.0), &mut store);
        let analytic = store.grad(pid).clone();

        // Numeric gradient of sum(out).
        let eps = 1e-3f32;
        for i in 0..param_shape.0 {
            for j in 0..param_shape.1 {
                let orig = store.value(pid).get(i, j);
                let eval = |store: &ParamStore, f: &mut F| -> f32 {
                    let mut t = Tape::new();
                    let p = t.param(store, pid);
                    let o = f(&mut t, p);
                    t.value(o).data().iter().sum()
                };
                store.value_mut(pid).set(i, j, orig + eps);
                let up = eval(&store, &mut f);
                store.value_mut(pid).set(i, j, orig - eps);
                let down = eval(&store, &mut f);
                store.value_mut(pid).set(i, j, orig);
                let numeric = (up - down) / (2.0 * eps);
                let a = analytic.get(i, j);
                assert!(
                    (a - numeric).abs() < 1e-2 * (1.0 + a.abs().max(numeric.abs())),
                    "grad mismatch at ({i},{j}): analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn matmul_backward_is_bit_identical_to_naive_kernels() {
        // The backward pass runs on the register-tiled accumulate kernels;
        // this pins the tape's gradients against the naive reference loops
        // bit-for-bit (shapes chosen to exercise tile remainders, zeros
        // from ReLU-like sparsity included).
        let mut rng = StdRng::seed_from_u64(77);
        let mut x = Matrix::rand_uniform(9, 6, -1.0, 1.0, &mut rng);
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                if (i + j) % 3 == 0 {
                    x.set(i, j, 0.0);
                }
            }
        }
        let w_val = Matrix::rand_uniform(6, 11, -1.0, 1.0, &mut rng);
        let seed_grad = Matrix::rand_uniform(9, 11, -1.0, 1.0, &mut rng);

        // `x` is a parameter too, so its gradient lands in the store.
        let mut store = ParamStore::new();
        let pid = store.register(w_val.clone());
        let xid = store.register(x.clone());
        let mut tape = Tape::new();
        let xi = tape.param(&store, xid);
        let w = tape.param(&store, pid);
        let out = tape.matmul(xi, w);
        store.zero_grads();
        tape.backward(out, seed_grad.clone(), &mut store);

        // dW = xᵀ · g, dx = g · wᵀ — via the naive reference kernels.
        let mut dw = Matrix::zeros(6, 11);
        x.t_matmul_acc_naive(&seed_grad, &mut dw);
        let mut dx = Matrix::zeros(9, 6);
        seed_grad.matmul_t_acc_naive(&w_val, &mut dx);

        for (a, b) in store.grad(pid).data().iter().zip(dw.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "dW diverged from naive");
        }
        for (a, b) in store.grad(xid).data().iter().zip(dx.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "dx diverged from naive");
        }
    }

    #[test]
    fn masked_matmul_backward_is_bit_identical_to_naive_kernels() {
        // The accumulate kernels sum every term — zeros included — from
        // zero and gate the finished product; the loops they replaced
        // skipped zero activations, added term by term into the gradient
        // slot and multiplied every term by the mask. A tape cannot tell
        // the two apart (a slot starts at `+0.0`, a weight is used once a
        // pass): the expected values are the old loops, written out.
        let mut rng = StdRng::seed_from_u64(78);
        let (rows, inp, out) = (33, 10, 19);
        let mut x = Matrix::rand_uniform(rows, inp, -1.0, 1.0, &mut rng);
        let mut mask = Matrix::rand_uniform(inp, out, -1.0, 1.0, &mut rng);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = [0.0, *v, -0.0, *v, *v][i % 5];
        }
        for m in mask.data_mut() {
            *m = if *m < 0.0 { 0.0 } else { 1.0 };
        }
        let w_val = Matrix::rand_uniform(inp, out, -1.0, 1.0, &mut rng);
        let seed_grad = Matrix::rand_uniform(rows, out, -1.0, 1.0, &mut rng);

        let mut dw = Matrix::zeros(inp, out);
        for r in 0..rows {
            for i in (0..inp).filter(|&i| x.get(r, i) != 0.0) {
                for j in 0..out {
                    let term = x.get(r, i) * seed_grad.get(r, j) * mask.get(i, j);
                    dw.set(i, j, dw.get(i, j) + term);
                }
            }
        }
        let mut dx = Matrix::zeros(rows, inp);
        seed_grad.matmul_t_acc_naive(&w_val.hadamard(&mask), &mut dx);

        let mask = Arc::new(mask);
        let mut store = ParamStore::new();
        let pid = store.register(w_val);
        let xid = store.register(x.clone());
        let mut tape = Tape::new();
        for pass in ["fresh", "reused"] {
            tape.reset();
            let xi = tape.param(&store, xid);
            let w = tape.param(&store, pid);
            let y = tape.masked_matmul(xi, w, Arc::clone(&mask));
            store.zero_grads();
            tape.backward(y, seed_grad.clone(), &mut store);
            for (a, b) in store.grad(pid).data().iter().zip(dw.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "dW diverged ({pass} tape)");
            }
            for (a, b) in store.grad(xid).data().iter().zip(dx.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "dx diverged ({pass} tape)");
            }
        }
    }

    #[test]
    fn matmul_gradient_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.25, -0.75]]);
        finite_diff_check(
            (3, 4),
            move |tape, p| {
                let xi = tape.input(x.clone());
                tape.matmul(xi, p)
            },
            10,
        );
    }

    #[test]
    fn masked_matmul_gradient_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.25, -0.75]]);
        let mask = Arc::new(Matrix::from_rows(&[
            &[1.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 1.0, 1.0],
            &[1.0, 1.0, 0.0, 0.0],
        ]));
        finite_diff_check(
            (3, 4),
            move |tape, p| {
                let xi = tape.input(x.clone());
                tape.masked_matmul(xi, p, Arc::clone(&mask))
            },
            11,
        );
    }

    #[test]
    fn relu_chain_gradient_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 0.25]]);
        finite_diff_check(
            (2, 3),
            move |tape, p| {
                let xi = tape.input(x.clone());
                let h = tape.matmul(xi, p);
                tape.relu(h)
            },
            12,
        );
    }

    #[test]
    fn bias_gradient_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.5, -1.0, 0.25], &[1.5, 0.25, -2.0]]);
        finite_diff_check(
            (1, 3),
            move |tape, p| {
                let xi = tape.input(x.clone());
                tape.add_row(xi, p)
            },
            13,
        );
    }

    #[test]
    fn gather_gradient_accumulates_duplicates() {
        let mut store = ParamStore::new();
        let pid = store.register(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut tape = Tape::new();
        let table = tape.param(&store, pid);
        let out = tape.gather(table, Arc::new(vec![0, 1, 0]));
        tape.backward(out, Matrix::filled(3, 2, 1.0), &mut store);
        // Row 0 gathered twice -> grad 2, row 1 once -> grad 1.
        assert_eq!(store.grad(pid).row(0), &[2.0, 2.0]);
        assert_eq!(store.grad(pid).row(1), &[1.0, 1.0]);
    }

    #[test]
    fn segment_sum_pools_and_backprops() {
        let mut store = ParamStore::new();
        let xid = store.register(Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]));
        let mut tape = Tape::new();
        let x = tape.param(&store, xid);
        let out = tape.segment_sum(x, Arc::new(vec![1, 1, 0]), 3);
        assert_eq!(tape.value(out).row(0), &[4.0]);
        assert_eq!(tape.value(out).row(1), &[3.0]);
        assert_eq!(tape.value(out).row(2), &[0.0]); // empty segment
        let mut seed = Matrix::zeros(3, 1);
        seed.set(1, 0, 1.0);
        tape.backward(out, seed, &mut store);
        assert_eq!(store.grad(xid).data(), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_splits_gradient() {
        let mut store = ParamStore::new();
        let aid = store.register(Matrix::from_rows(&[&[1.0, 2.0]]));
        let bid = store.register(Matrix::from_rows(&[&[3.0]]));
        let mut tape = Tape::new();
        let a = tape.param(&store, aid);
        let b = tape.param(&store, bid);
        let out = tape.concat_cols(&[a, b]);
        assert_eq!(tape.value(out).row(0), &[1.0, 2.0, 3.0]);
        tape.backward(out, Matrix::from_rows(&[&[10.0, 20.0, 30.0]]), &mut store);
        assert_eq!(store.grad(aid).row(0), &[10.0, 20.0]);
        assert_eq!(store.grad(bid).row(0), &[30.0]);
    }

    #[test]
    fn residual_add_gradient_flows_both_ways() {
        let mut store = ParamStore::new();
        let pid = store.register(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let xid = store.register(Matrix::from_rows(&[&[1.0, 2.0]]));
        let mut tape = Tape::new();
        let x = tape.param(&store, xid);
        let w = tape.param(&store, pid);
        let h = tape.matmul(x, w);
        let out = tape.add(h, x);
        tape.backward(out, Matrix::filled(1, 2, 1.0), &mut store);
        // dx = dy·Wᵀ + dy = [1,1]·I + [1,1] = [2,2]
        assert_eq!(store.grad(xid).row(0), &[2.0, 2.0]);
    }

    /// One chained pass through every op, used by the reuse tests below.
    fn chain_pass(
        tape: &mut Tape,
        store: &ParamStore,
        (w, b, table): (ParamId, ParamId, ParamId),
        mask: &Arc<Matrix>,
        idx: &Arc<Vec<u32>>,
        seg: &Arc<Vec<u32>>,
        zero_copy: bool,
    ) -> (VarId, Matrix) {
        fn chain<F: Forward>(
            f: &mut F,
            store: &ParamStore,
            (w, b, table): (ParamId, ParamId, ParamId),
            mask: &Arc<Matrix>,
            idx: &Arc<Vec<u32>>,
            seg: &Arc<Vec<u32>>,
        ) -> (F::Id, Matrix) {
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
            let v = f.value(pooled).clone();
            (pooled, v)
        }
        if zero_copy {
            let mut f = tape.ctx(store);
            chain(&mut f, store, (w, b, table), mask, idx, seg)
        } else {
            tape.reset();
            chain(tape, store, (w, b, table), mask, idx, seg)
        }
    }

    /// Tape reuse across resets — and the zero-copy parameter path — must
    /// reproduce the fresh-tape pass bit for bit, values and gradients.
    #[test]
    fn reused_and_zero_copy_passes_match_fresh_tapes_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut store = ParamStore::new();
        let w = store.register(Matrix::rand_uniform(3, 4, -1.0, 1.0, &mut rng));
        let b = store.register(Matrix::rand_uniform(1, 4, -0.5, 0.5, &mut rng));
        let table = store.register(Matrix::rand_uniform(6, 3, -1.0, 1.0, &mut rng));
        let ids = (w, b, table);
        let mask = Arc::new(Matrix::from_rows(&[
            &[1.0, 0.0, 1.0, 1.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[1.0, 1.0, 0.0, 1.0],
        ]));
        // Ragged shapes across passes: the arena must not leak state.
        type IdxSeg = (Arc<Vec<u32>>, Arc<Vec<u32>>);
        let shapes: Vec<IdxSeg> = vec![
            (Arc::new(vec![0u32, 3, 5, 1]), Arc::new(vec![1u32, 0, 1, 1])),
            (Arc::new(vec![2u32, 2]), Arc::new(vec![0u32, 0])),
            (Arc::new(vec![0u32, 3, 5, 1]), Arc::new(vec![1u32, 0, 1, 1])),
        ];

        let mut reused = Tape::new();
        let mut capacity_after_first = 0;
        for (pass, (idx, seg)) in shapes.iter().enumerate() {
            // Reference: fresh tape, materialized params.
            let mut fresh = Tape::new();
            let (root_f, val_f) = chain_pass(&mut fresh, &store, ids, &mask, idx, seg, false);
            let (fr, fc) = val_f.shape();
            let mut gf = GradBuffer::new(&store);
            fresh.backward_with(root_f, Matrix::filled(fr, fc, 1.0), &store, &mut gf);

            for zero_copy in [false, true] {
                let (root, val) = chain_pass(&mut reused, &store, ids, &mask, idx, seg, zero_copy);
                assert_eq!(val, val_f, "pass {pass} value diverged (zc={zero_copy})");
                let mut g = GradBuffer::new(&store);
                reused.backward_with(root, Matrix::filled(fr, fc, 1.0), &store, &mut g);
                for pid in [w, b, table] {
                    assert_eq!(
                        g.grad(pid),
                        gf.grad(pid),
                        "pass {pass} grad of {pid} diverged (zc={zero_copy})"
                    );
                }
            }
            // The node arena stays flat across reused passes.
            if pass == 0 {
                capacity_after_first = reused.values.len();
            } else {
                assert_eq!(
                    reused.values.len(),
                    capacity_after_first,
                    "arena grew after warm-up"
                );
            }
        }
    }
}
