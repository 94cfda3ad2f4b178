//! A small tape-based reverse-mode automatic differentiation engine,
//! arena-backed so one tape can be reused across passes — and the one
//! forward executor of the crate.
//!
//! [`Forward`] names the op vocabulary the models are written against;
//! [`TapeCtx`] is its one implementor. [`Tape::ctx`] borrows the tape
//! together with a [`ParamStore`] and returns a [`TapeCtx`], which records
//! every operation of a forward pass as an op plus a value slot in a node
//! *arena*; parameter leaves resolve **in place** in the store (no copies).
//! [`Tape::backward_with`] walks the ops in reverse and accumulates
//! parameter gradients into a caller-owned [`GradBuffer`]. A gradient-free
//! pass (the validation loss, the SSAR context at completion, the sweep's
//! full-trunk oracles) records the same way and simply never calls it.
//! Starting a context rewinds the arenas without dropping their matrices,
//! so after the first pass every forward (+ backward) pass of the same
//! shape performs **no heap allocation**.
//!
//! Only the operations the ReStore models need are implemented: (masked)
//! matrix multiplication, bias broadcast, element-wise add, ReLU, column
//! concatenation, embedding gather, and segment-sum pooling (for DeepSets).

use std::sync::Arc;

use crate::params::{GradBuffer, ParamId, ParamStore};
use crate::tensor::Matrix;

/// The forward-pass op vocabulary. Layer definitions (the crate's layers,
/// [`Made`](crate::Made), [`DeepSets`](crate::DeepSets)) are written against
/// it; [`TapeCtx`] implements it by recording nodes on a [`Tape`].
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
}

/// Records a forward pass through [`Tape::ctx`]; consumed by
/// [`Tape::backward_with`]. Every context rewinds the tape — the node,
/// gradient, parts, and masked-weight arenas all keep their capacity across
/// passes.
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

    /// Starts a recorded forward pass whose parameter leaves resolve
    /// straight into `store` (no copies). Rewinds the tape first, keeping
    /// every arena allocation.
    pub fn ctx<'a>(&'a mut self, store: &'a ParamStore) -> TapeCtx<'a> {
        self.len = 0;
        self.ops.clear();
        self.parts.clear();
        self.masked_len = 0;
        self.materialized.fill(false);
        self.has_grad.fill(false);
        TapeCtx { tape: self, store }
    }

    /// Node slots in the arena (diagnostics): the most nodes one pass of
    /// this tape has recorded.
    pub(crate) fn arena_len(&self) -> usize {
        self.values.len()
    }

    /// The value of `v`: materialized in the arena, or — for a parameter
    /// leaf — resolved in `store`.
    fn val<'a>(&'a self, store: &'a ParamStore, v: VarId) -> &'a Matrix {
        if self.materialized[v.0] {
            return &self.values[v.0];
        }
        match self.ops[v.0] {
            Op::Leaf { param: Some(pid) } => store.value(pid),
            _ => unreachable!("only parameter leaves can be unmaterialized"),
        }
    }

    fn val_shape(&self, store: &ParamStore, v: VarId) -> (usize, usize) {
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
    /// `seed` (same shape as `root`'s value), flushing parameter gradients
    /// into a caller-owned [`GradBuffer`] — the data-parallel training
    /// engine gives every microbatch its own buffer and reduces them in a
    /// fixed order afterwards. Parameter values are only *read* from
    /// `store`, which must be the store the pass was recorded against.
    pub fn backward_with(
        &mut self,
        root: VarId,
        seed: Matrix,
        store: &ParamStore,
        out: &mut GradBuffer,
    ) {
        assert_eq!(
            self.val_shape(store, root),
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
                    let (xr, xc) = self.val_shape(store, x);
                    let mut gx = self.take_grad(x, xr, xc);
                    gi.matmul_t_acc(self.val(store, w), &mut gx);
                    self.put_grad(x, gx);
                    let (wr, wc) = self.val_shape(store, w);
                    let mut gw = self.take_grad(w, wr, wc);
                    self.val(store, x).t_matmul_acc(&gi, &mut gw);
                    self.put_grad(w, gw);
                }
                Op::MaskedMatMul {
                    x, w, mask, masked, ..
                } => {
                    let (x, w, mi) = (*x, *w, *masked);
                    let mask = Arc::clone(mask);
                    let (xr, xc) = self.val_shape(store, x);
                    let mut gx = self.take_grad(x, xr, xc);
                    gi.matmul_t_acc(&self.masked[mi], &mut gx);
                    self.put_grad(x, gx);
                    let (wr, wc) = self.val_shape(store, w);
                    let mut gw = self.take_grad(w, wr, wc);
                    self.val(store, x).t_matmul_masked_acc(&gi, &mask, &mut gw);
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
                        let xv = self.val(store, x);
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
                        let (pr, pc) = self.val_shape(store, p);
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
                    let (tr, tc) = self.val_shape(store, table);
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
            }
            self.grads[i] = gi;
        }
    }
}

/// One recorded forward pass over a reusable [`Tape`] with parameters
/// resolved in place.
pub struct TapeCtx<'a> {
    tape: &'a mut Tape,
    store: &'a ParamStore,
}

impl<'a> TapeCtx<'a> {
    /// Ends the pass, handing out the value behind `id` for as long as
    /// the tape stays borrowed — how a gradient-free pass returns its
    /// output.
    pub(crate) fn into_value(self, id: VarId) -> &'a Matrix {
        self.tape.val(self.store, id)
    }
}

impl Forward for TapeCtx<'_> {
    type Id = VarId;

    fn input(&mut self, value: &Matrix) -> VarId {
        let tape = &mut *self.tape;
        let (i, mut out) = tape.claim();
        out.copy_from(value);
        tape.put(i, Op::Leaf { param: None }, out)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> VarId {
        debug_assert!(
            std::ptr::eq(store, self.store),
            "parameters must come from the context's store"
        );
        let tape = &mut *self.tape;
        let (i, buf) = tape.claim();
        // Keep the (stale) buffer in the arena slot; the node resolves
        // against the store instead.
        tape.values[i] = buf;
        tape.ops.push(Op::Leaf { param: Some(id) });
        debug_assert_eq!(tape.ops.len(), i + 1, "op/arena cursor drift");
        VarId(i)
    }

    fn matmul(&mut self, x: VarId, w: VarId) -> VarId {
        let (tape, store) = (&mut *self.tape, self.store);
        let (i, mut out) = tape.claim();
        {
            let xm = tape.val(store, x);
            let wm = tape.val(store, w);
            xm.matmul_into(wm, &mut out);
        }
        tape.put(i, Op::MatMul { x, w }, out)
    }

    fn masked_matmul(&mut self, x: VarId, w: VarId, mask: &Arc<Matrix>) -> VarId {
        let (tape, store) = (&mut *self.tape, self.store);
        let (mi, mut mbuf) = tape.claim_masked();
        {
            let wm = tape.val(store, w);
            assert_eq!(wm.shape(), mask.shape(), "mask shape mismatch");
            mbuf.resize(wm.rows(), wm.cols());
            for ((o, &a), &b) in mbuf.data_mut().iter_mut().zip(wm.data()).zip(mask.data()) {
                *o = a * b;
            }
        }
        tape.masked[mi] = mbuf;
        let (i, mut out) = tape.claim();
        {
            let xm = tape.val(store, x);
            xm.matmul_into(&tape.masked[mi], &mut out);
        }
        tape.put(
            i,
            Op::MaskedMatMul {
                x,
                w,
                mask: Arc::clone(mask),
                masked: mi,
            },
            out,
        )
    }

    fn add_row(&mut self, x: VarId, bias: VarId) -> VarId {
        let (tape, store) = (&mut *self.tape, self.store);
        let (i, mut out) = tape.claim();
        {
            let xm = tape.val(store, x);
            let b = tape.val(store, bias);
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
        tape.put(i, Op::AddRow { x, bias }, out)
    }

    fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let (tape, store) = (&mut *self.tape, self.store);
        let (i, mut out) = tape.claim();
        {
            let am = tape.val(store, a);
            let bm = tape.val(store, b);
            assert_eq!(am.shape(), bm.shape(), "add shape mismatch");
            out.resize(am.rows(), am.cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(am.data()).zip(bm.data()) {
                *o = x + y;
            }
        }
        tape.put(i, Op::Add { a, b }, out)
    }

    fn relu(&mut self, x: VarId) -> VarId {
        let (tape, store) = (&mut *self.tape, self.store);
        let (i, mut out) = tape.claim();
        {
            let xm = tape.val(store, x);
            out.resize(xm.rows(), xm.cols());
            for (o, &v) in out.data_mut().iter_mut().zip(xm.data()) {
                *o = if v < 0.0 { 0.0 } else { v };
            }
        }
        tape.put(i, Op::Relu { x }, out)
    }

    fn concat_cols(&mut self, parts: &[VarId]) -> VarId {
        let (tape, store) = (&mut *self.tape, self.store);
        assert!(!parts.is_empty(), "concat of zero parts");
        let start = tape.parts.len();
        tape.parts.extend_from_slice(parts);
        let range = start..tape.parts.len();
        let (i, mut out) = tape.claim();
        {
            let rows = tape.val(store, parts[0]).rows();
            let total: usize = parts.iter().map(|&p| tape.val(store, p).cols()).sum();
            out.resize(rows, total);
            let mut offset = 0;
            for &p in parts {
                let m = tape.val(store, p);
                assert_eq!(m.rows(), rows, "concat row mismatch");
                let c = m.cols();
                for r in 0..rows {
                    out.data_mut()[r * total + offset..r * total + offset + c]
                        .copy_from_slice(m.row(r));
                }
                offset += c;
            }
        }
        tape.put(i, Op::ConcatCols { parts: range }, out)
    }

    fn gather(&mut self, table: VarId, idx: &Arc<Vec<u32>>) -> VarId {
        let (tape, store) = (&mut *self.tape, self.store);
        let (i, mut out) = tape.claim();
        {
            let t = tape.val(store, table);
            out.resize(idx.len(), t.cols());
            for (r, &ix) in idx.iter().enumerate() {
                let ix = ix as usize;
                assert!(ix < t.rows(), "gather index {ix} out of range {}", t.rows());
                let c = t.cols();
                out.data_mut()[r * c..(r + 1) * c].copy_from_slice(t.row(ix));
            }
        }
        let idx = Arc::clone(idx);
        tape.put(i, Op::Gather { table, idx }, out)
    }

    fn segment_sum(&mut self, x: VarId, seg: &Arc<Vec<u32>>, n_segments: usize) -> VarId {
        let (tape, store) = (&mut *self.tape, self.store);
        let (i, mut out) = tape.claim();
        {
            let m = tape.val(store, x);
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
        let seg = Arc::clone(seg);
        tape.put(i, Op::SegmentSum { x, seg, n_segments }, out)
    }

    fn value(&self, id: VarId) -> &Matrix {
        self.tape.val(self.store, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Records `pass` on a fresh tape, differentiates its root against a
    /// seed gradient built from the root's value, and returns the root's
    /// value with the parameter gradients.
    fn run_pass<P, S>(store: &ParamStore, pass: P, seed: S) -> (Matrix, GradBuffer)
    where
        P: FnOnce(&mut TapeCtx<'_>) -> VarId,
        S: FnOnce(&Matrix) -> Matrix,
    {
        let mut tape = Tape::new();
        let (root, value) = {
            let mut f = tape.ctx(store);
            let root = pass(&mut f);
            (root, f.value(root).clone())
        };
        let mut grads = GradBuffer::new(store);
        tape.backward_with(root, seed(&value), store, &mut grads);
        (value, grads)
    }

    fn ones(v: &Matrix) -> Matrix {
        Matrix::filled(v.rows(), v.cols(), 1.0)
    }

    fn finite_diff_check<F>(param_shape: (usize, usize), mut f: F, seed: u64)
    where
        F: FnMut(&mut TapeCtx<'_>, VarId) -> VarId,
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
        let (_, grads) = run_pass(
            &store,
            |c| {
                let p = c.param(&store, pid);
                f(c, p)
            },
            ones,
        );
        let analytic = grads.grad(pid).clone();

        // Numeric gradient of sum(out).
        let eps = 1e-3f32;
        for i in 0..param_shape.0 {
            for j in 0..param_shape.1 {
                let orig = store.value(pid).get(i, j);
                let eval = |store: &ParamStore, f: &mut F| -> f32 {
                    let mut t = Tape::new();
                    let mut c = t.ctx(store);
                    let p = c.param(store, pid);
                    let o = f(&mut c, p);
                    c.value(o).data().iter().sum()
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

        // `x` is a parameter too, so its gradient lands in the buffer.
        let mut store = ParamStore::new();
        let pid = store.register(w_val.clone());
        let xid = store.register(x.clone());
        let (_, grads) = run_pass(
            &store,
            |f| {
                let xi = f.param(&store, xid);
                let w = f.param(&store, pid);
                f.matmul(xi, w)
            },
            |_| seed_grad.clone(),
        );

        // dW = xᵀ · g, dx = g · wᵀ — via the naive reference kernels.
        let mut dw = Matrix::zeros(6, 11);
        x.t_matmul_acc_naive(&seed_grad, &mut dw);
        let mut dx = Matrix::zeros(9, 6);
        seed_grad.matmul_t_acc_naive(&w_val, &mut dx);

        for (a, b) in grads.grad(pid).data().iter().zip(dw.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "dW diverged from naive");
        }
        for (a, b) in grads.grad(xid).data().iter().zip(dx.data()) {
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
            let y = {
                let mut f = tape.ctx(&store);
                let xi = f.param(&store, xid);
                let w = f.param(&store, pid);
                f.masked_matmul(xi, w, &mask)
            };
            let mut grads = GradBuffer::new(&store);
            tape.backward_with(y, seed_grad.clone(), &store, &mut grads);
            for (a, b) in grads.grad(pid).data().iter().zip(dw.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "dW diverged ({pass} tape)");
            }
            for (a, b) in grads.grad(xid).data().iter().zip(dx.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "dx diverged ({pass} tape)");
            }
        }
    }

    #[test]
    fn matmul_gradient_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.25, -0.75]]);
        finite_diff_check(
            (3, 4),
            move |f, p| {
                let xi = f.input(&x);
                f.matmul(xi, p)
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
            move |f, p| {
                let xi = f.input(&x);
                f.masked_matmul(xi, p, &mask)
            },
            11,
        );
    }

    #[test]
    fn relu_chain_gradient_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 0.25]]);
        finite_diff_check(
            (2, 3),
            move |f, p| {
                let xi = f.input(&x);
                let h = f.matmul(xi, p);
                f.relu(h)
            },
            12,
        );
    }

    #[test]
    fn bias_gradient_matches_finite_difference() {
        let x = Matrix::from_rows(&[&[0.5, -1.0, 0.25], &[1.5, 0.25, -2.0]]);
        finite_diff_check(
            (1, 3),
            move |f, p| {
                let xi = f.input(&x);
                f.add_row(xi, p)
            },
            13,
        );
    }

    #[test]
    fn gather_gradient_accumulates_duplicates() {
        let mut store = ParamStore::new();
        let pid = store.register(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let (_, grads) = run_pass(
            &store,
            |f| {
                let table = f.param(&store, pid);
                f.gather(table, &Arc::new(vec![0, 1, 0]))
            },
            ones,
        );
        // Row 0 gathered twice -> grad 2, row 1 once -> grad 1.
        assert_eq!(grads.grad(pid).row(0), &[2.0, 2.0]);
        assert_eq!(grads.grad(pid).row(1), &[1.0, 1.0]);
    }

    #[test]
    fn segment_sum_pools_and_backprops() {
        let mut store = ParamStore::new();
        let xid = store.register(Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]));
        let (out, grads) = run_pass(
            &store,
            |f| {
                let x = f.param(&store, xid);
                f.segment_sum(x, &Arc::new(vec![1, 1, 0]), 3)
            },
            |_| {
                let mut seed = Matrix::zeros(3, 1);
                seed.set(1, 0, 1.0);
                seed
            },
        );
        assert_eq!(out.row(0), &[4.0]);
        assert_eq!(out.row(1), &[3.0]);
        assert_eq!(out.row(2), &[0.0]); // empty segment
        assert_eq!(grads.grad(xid).data(), &[1.0, 1.0, 0.0]);
    }

    #[test]
    fn concat_splits_gradient() {
        let mut store = ParamStore::new();
        let aid = store.register(Matrix::from_rows(&[&[1.0, 2.0]]));
        let bid = store.register(Matrix::from_rows(&[&[3.0]]));
        let (out, grads) = run_pass(
            &store,
            |f| {
                let a = f.param(&store, aid);
                let b = f.param(&store, bid);
                f.concat_cols(&[a, b])
            },
            |_| Matrix::from_rows(&[&[10.0, 20.0, 30.0]]),
        );
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(grads.grad(aid).row(0), &[10.0, 20.0]);
        assert_eq!(grads.grad(bid).row(0), &[30.0]);
    }

    #[test]
    fn residual_add_gradient_flows_both_ways() {
        let mut store = ParamStore::new();
        let pid = store.register(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let xid = store.register(Matrix::from_rows(&[&[1.0, 2.0]]));
        let (_, grads) = run_pass(
            &store,
            |f| {
                let x = f.param(&store, xid);
                let w = f.param(&store, pid);
                let h = f.matmul(x, w);
                f.add(h, x)
            },
            ones,
        );
        // dx = dy·Wᵀ + dy = [1,1]·I + [1,1] = [2,2]
        assert_eq!(grads.grad(xid).row(0), &[2.0, 2.0]);
    }

    /// One chained pass through every op, used by the reuse test below.
    fn chain_pass(
        tape: &mut Tape,
        store: &ParamStore,
        (w, b, table): (ParamId, ParamId, ParamId),
        mask: &Arc<Matrix>,
        idx: &Arc<Vec<u32>>,
        seg: &Arc<Vec<u32>>,
    ) -> (VarId, Matrix) {
        let mut f = tape.ctx(store);
        let t = f.param(store, table);
        let x = f.gather(t, idx);
        let wv = f.param(store, w);
        let bv = f.param(store, b);
        let h = f.masked_matmul(x, wv, mask);
        let h = f.add_row(h, bv);
        let h = f.relu(h);
        let h2 = f.add(h, h);
        let h = f.add(h2, h);
        let cat = f.concat_cols(&[h, h]);
        let pooled = f.segment_sum(cat, seg, 2);
        let v = f.value(pooled).clone();
        (pooled, v)
    }

    /// Tape reuse across passes must reproduce the fresh-tape pass bit for
    /// bit, values and gradients.
    #[test]
    fn reused_passes_match_fresh_tapes_bit_for_bit() {
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
            // Reference: a fresh tape.
            let mut fresh = Tape::new();
            let (root_f, val_f) = chain_pass(&mut fresh, &store, ids, &mask, idx, seg);
            let (fr, fc) = val_f.shape();
            let mut gf = GradBuffer::new(&store);
            fresh.backward_with(root_f, Matrix::filled(fr, fc, 1.0), &store, &mut gf);

            // Twice per shape: once after a differently shaped pass, once
            // right after the same shape.
            for repeat in 0..2 {
                let (root, val) = chain_pass(&mut reused, &store, ids, &mask, idx, seg);
                assert_eq!(val, val_f, "pass {pass} value diverged (repeat {repeat})");
                let mut g = GradBuffer::new(&store);
                reused.backward_with(root, Matrix::filled(fr, fc, 1.0), &store, &mut g);
                for pid in [w, b, table] {
                    assert_eq!(
                        g.grad(pid),
                        gf.grad(pid),
                        "pass {pass} grad of {pid} diverged (repeat {repeat})"
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
