//! Dense row-major `f32` matrices — the only tensor shape the ReStore models
//! need. Kept deliberately small: 2-D, contiguous, no views.

use std::cell::RefCell;

use rand::Rng;

/// Build-time SIMD lane-width selection for the wide `f32` kernels.
///
/// The tiled GEMM kernels below keep fixed-width `[f32; N]` accumulator
/// blocks that the autovectorizer maps onto whole vector registers; `N`
/// (one or two lanes' worth of `f32`s) is picked **at build time** from
/// the target features the compiler is allowed to use, with a scalar
/// fallback of 1 for targets without packed `f32` math. No `unsafe`, no
/// intrinsics, no runtime dispatch: the selection only shapes the tiles,
/// and every tile accumulates each output element from zero in ascending
/// `k`, so the kernels stay bit-identical to their naive references on
/// every target (the lane width changes *speed*, never *values*).
pub mod lane {
    /// `f32` lanes in the widest vector register the build may use.
    #[cfg(target_feature = "avx512f")]
    pub const WIDTH: usize = 16;
    /// `f32` lanes in the widest vector register the build may use.
    #[cfg(all(not(target_feature = "avx512f"), target_feature = "avx"))]
    pub const WIDTH: usize = 8;
    /// `f32` lanes in the widest vector register the build may use.
    #[cfg(all(
        not(target_feature = "avx512f"),
        not(target_feature = "avx"),
        any(target_feature = "sse2", target_feature = "neon")
    ))]
    pub const WIDTH: usize = 4;
    /// `f32` lanes in the widest vector register the build may use.
    #[cfg(not(any(
        target_feature = "avx512f",
        target_feature = "avx",
        target_feature = "sse2",
        target_feature = "neon"
    )))]
    pub const WIDTH: usize = 1;

    /// The target feature [`WIDTH`] was derived from (bench-record label).
    #[cfg(target_feature = "avx512f")]
    pub const TARGET_FEATURE: &str = "avx512f";
    /// The target feature [`WIDTH`] was derived from (bench-record label).
    #[cfg(all(not(target_feature = "avx512f"), target_feature = "avx"))]
    pub const TARGET_FEATURE: &str = "avx";
    /// The target feature [`WIDTH`] was derived from (bench-record label).
    #[cfg(all(
        not(target_feature = "avx512f"),
        not(target_feature = "avx"),
        target_feature = "sse2"
    ))]
    pub const TARGET_FEATURE: &str = "sse2";
    /// The target feature [`WIDTH`] was derived from (bench-record label).
    #[cfg(all(
        not(target_feature = "avx512f"),
        not(target_feature = "avx"),
        not(target_feature = "sse2"),
        target_feature = "neon"
    ))]
    pub const TARGET_FEATURE: &str = "neon";
    /// The target feature [`WIDTH`] was derived from (bench-record label).
    #[cfg(not(any(
        target_feature = "avx512f",
        target_feature = "avx",
        target_feature = "sse2",
        target_feature = "neon"
    )))]
    pub const TARGET_FEATURE: &str = "scalar";
}

/// A dense row-major matrix of `f32` values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer does not match {rows}x{cols}"
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested slices (handy in tests).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Uniform random matrix in `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| rng.random_range(lo..hi)).collect();
        Self { rows, cols, data }
    }

    /// Glorot/Xavier-uniform initialization for a `fan_in × fan_out`
    /// weight: `U(-b, b)` with `b = sqrt(6 / (fan_in + fan_out))`.
    ///
    /// Replaces the seed's fan-in-only bound (`sqrt(6 / fan_in)`, ReLU-gain
    /// Kaiming), which was too hot for the layers that do *not* feed a
    /// ReLU — MADE's logit output layer and the DeepSets context head —
    /// so the symmetric fan-in + fan-out bound is used for every layer.
    pub(crate) fn glorot<R: Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
        Self::rand_uniform(fan_in, fan_out, -bound, bound, rng)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` — standard matrix multiply.
    ///
    /// Uses the cache-friendly i-k-j loop order; plenty fast for the model
    /// sizes ReStore trains (hundreds of rows × a few hundred columns).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a preallocated output (resized and
    /// overwritten) — the tape reuses its arena's activations this way
    /// instead of allocating per op.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch {:?}·{:?}",
            self.shape(),
            other.shape()
        );
        out.resize(self.rows, other.cols);
        gemm_tiled(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// Reference (naive i-k-j loop) form of [`Matrix::matmul_into`] — the
    /// bit-equality oracle of the lane-tiled forward GEMM: per `(i, j)` the
    /// output accumulates from zero in ascending `k`, the exact sequence
    /// the tiled kernel runs.
    #[cfg(test)]
    pub(crate) fn matmul_into_naive(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch {:?}·{:?}",
            self.shape(),
            other.shape()
        );
        out.resize(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * n..(i + 1) * n];
            out_row.fill(0.0);
            for (k, &av) in a_row.iter().enumerate() {
                let b_row = other.row(k);
                for j in 0..n {
                    out_row[j] += av * b_row[j];
                }
            }
        }
    }

    /// Computes only columns `cols` of `self · other` into `out` (shaped
    /// `self.rows × cols.len()`), contracting only `k < k_limit` of the
    /// inner dimension, with the tiled kernel's zero-initialized
    /// ascending-`k` accumulation — the exact per-element add sequence of
    /// [`Matrix::matmul_into`]. With `k_limit = self.cols()` every value is
    /// bit-identical to the corresponding entry of the full product. A
    /// smaller limit requires every skipped `other` row to be zero over
    /// `cols`; each skipped naive-loop term is then an exact
    /// `a · 0.0 = ±0.0` whose addition cannot change any accumulator bit
    /// (the accumulators start at `+0.0` and `x + ±0.0` preserves `x`'s
    /// bits for every finite `x`), so results stay bit-identical to the
    /// full-`k` product for finite activations. The full-trunk oracle of
    /// the AR sweep (`Made::logits_attr_full_in`) evaluates one
    /// attribute's logit block with it; the benchmark probes it.
    pub fn matmul_col_band_limited_into(
        &self,
        other: &Matrix,
        cols: std::ops::Range<usize>,
        k_limit: usize,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert!(cols.end <= other.cols, "column range out of bounds");
        assert!(k_limit <= self.cols, "k_limit out of bounds");
        let width = cols.len();
        out.resize(self.rows, width);
        gemm_tiled_cols(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            k_limit,
            other.cols,
            cols.start,
            width,
        );
    }

    /// The band GEMM of the AR sweep, with batch rows in the SIMD lanes.
    /// `self` is feature-major — `k × m`, row `k` holding input feature `k`
    /// of every batch row — and row `j` of `wt` holds unit `j`'s weights
    /// over the inputs (a column of the weight, contiguous). Writes
    /// `out[jj][i] = Σ_{k < k_limit} self[k][i] · wt[units.start + jj][k]`
    /// (`out` is `units.len() × m`): per element the zero-initialized
    /// ascending-`k` sum of [`Matrix::matmul_col_band_limited_into`] on the
    /// transposed operands, bit for bit, under the same zero-tail contract.
    pub(crate) fn matmul_t_band_into(
        &self,
        wt: &Matrix,
        units: std::ops::Range<usize>,
        k_limit: usize,
        out: &mut Matrix,
    ) {
        assert!(units.end <= wt.rows, "unit range out of bounds");
        assert!(k_limit <= self.rows.min(wt.cols), "k_limit out of bounds");
        out.resize(units.len(), self.cols);
        let w = &wt.data[units.start * wt.cols..units.end * wt.cols];
        gemm_rows_in_lanes(&self.data, w, &mut out.data, self.cols, wt.cols, k_limit);
    }

    /// Reference (naive loop, full `k`) form of
    /// [`Matrix::matmul_col_band_limited_into`] — the bit-equality oracle
    /// of the lane-tiled band GEMMs.
    #[cfg(test)]
    pub(crate) fn matmul_col_band_into_naive(
        &self,
        other: &Matrix,
        cols: std::ops::Range<usize>,
        out: &mut Matrix,
    ) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert!(cols.end <= other.cols, "column range out of bounds");
        let (c0, w) = (cols.start, cols.len());
        out.resize(self.rows, w);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * w..(i + 1) * w];
            out_row.fill(0.0);
            for (k, &av) in a_row.iter().enumerate() {
                let b_row = &other.row(k)[c0..c0 + w];
                for j in 0..w {
                    out_row[j] += av * b_row[j];
                }
            }
        }
    }

    /// `out += self · otherᵀ` without materializing the transpose, into a
    /// caller-owned accumulator — the input gradient.
    ///
    /// All three accumulate kernels share one contract, `out += P`: `P` is
    /// the product as the forward GEMM computes it (per element a
    /// zero-initialized sum in ascending order of the contracted index,
    /// zero terms added and not skipped — so a non-finite gradient meets a
    /// zero activation as `NaN`, exactly as in the forward pass) and lands
    /// in `out` with one add per element. They run *on* the forward GEMM:
    /// the operand that is the wrong way round for it (here `other`, a
    /// weight) is transposed into per-thread scratch first.
    pub fn matmul_t_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "accumulator shape mismatch"
        );
        acc_product(other, out, None, |bt, p| {
            gemm_tiled(&self.data, bt, p, self.rows, self.cols, other.rows)
        });
    }

    /// Reference (naive i-j-k loop) form of [`Matrix::matmul_t_acc`] — the
    /// bit-equality contract of the tiled kernel is defined against this.
    #[cfg(test)]
    pub(crate) fn matmul_t_acc_naive(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "accumulator shape mismatch"
        );
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += a_row[k] * b_row[k];
                }
                out.data[i * other.rows + j] += acc;
            }
        }
    }

    /// `out += selfᵀ · other` — the weight gradient, under the contract of
    /// [`Matrix::matmul_t_acc`]: `self` (a microbatch of activations) is
    /// transposed and the product runs on the forward GEMM, each element
    /// summed from zero in ascending row order.
    pub fn t_matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        self.t_matmul_acc_gated(other, None, out);
    }

    /// Reference form of [`Matrix::t_matmul_acc`]: per element a
    /// zero-initialized sum in ascending row order, zero terms included,
    /// added to `out` once.
    #[cfg(test)]
    pub(crate) fn t_matmul_acc_naive(&self, other: &Matrix, out: &mut Matrix) {
        let ones = Matrix::filled(self.cols, other.cols, 1.0);
        self.t_matmul_masked_acc_naive(other, &ones, out);
    }

    /// `out += (selfᵀ · other) ⊙ mask` — the masked-linear weight gradient.
    /// [`Matrix::t_matmul_acc`] with the finished product gated by a
    /// **binary** mask as a select (`mask == 0` adds `+0.0`, anything else
    /// adds the product) — [`MaskedLinear`](crate::layers::MaskedLinear)
    /// asserts its masks hold only `0.0` and `1.0`.
    pub(crate) fn t_matmul_masked_acc(&self, other: &Matrix, mask: &Matrix, out: &mut Matrix) {
        assert_eq!(mask.shape(), out.shape(), "mask shape mismatch");
        self.t_matmul_acc_gated(other, Some(&mask.data), out);
    }

    fn t_matmul_acc_gated(&self, other: &Matrix, mask: Option<&[f32]>, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "accumulator shape mismatch"
        );
        acc_product(self, out, mask, |at, p| {
            gemm_tiled(at, &other.data, p, self.cols, self.rows, other.cols)
        });
    }

    /// Reference form of [`Matrix::t_matmul_masked_acc`] — the bit-equality
    /// contract of the kernel is defined against this: the zero-initialized
    /// ascending-row sum of every term, the mask applied to the result, one
    /// add into `out`.
    #[cfg(test)]
    pub(crate) fn t_matmul_masked_acc_naive(
        &self,
        other: &Matrix,
        mask: &Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "accumulator shape mismatch"
        );
        assert_eq!(mask.shape(), out.shape(), "mask shape mismatch");
        for i in 0..self.cols {
            for j in 0..other.cols {
                let mut acc = 0.0;
                for r in 0..self.rows {
                    acc += self.get(r, i) * other.get(r, j);
                }
                out.data[i * other.cols + j] += if mask.get(i, j) == 0.0 { 0.0 } else { acc };
            }
        }
    }

    /// `out += column sums of self` (`out` is `1 × cols`) — the bias
    /// gradient, in accumulation form.
    pub(crate) fn col_sums_acc(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (1, self.cols), "accumulator shape mismatch");
        for r in 0..self.rows {
            let row = self.row(r);
            for (o, v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    /// Element-wise in-place addition.
    pub(crate) fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise product (Hadamard), returning a new matrix.
    pub(crate) fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales all entries in place.
    pub fn scale_assign(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Fills with zeros, keeping the allocation.
    pub(crate) fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes in place to `rows × cols`, keeping the allocation when the
    /// new size fits. Newly exposed elements are zero; retained elements
    /// keep whatever they held (callers overwrite).
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Regroups the rows in place: the matrix becomes `group.len()` rows,
    /// row `r` a copy of the old row `group[r]`. Needs `group[r] ≤ r`, which
    /// is what makes it safe without a second buffer: rows past the old end
    /// only read old rows and are appended first (no zero-fill), then the
    /// old rows are rewritten from the last one down, so no row is
    /// overwritten before every row that copies it has been written.
    pub(crate) fn expand_rows(&mut self, group: &[u32]) {
        let (old, c) = (self.rows, self.cols);
        debug_assert!((group.iter().enumerate()).all(|(r, &g)| (g as usize) < old.min(r + 1)));
        self.data.reserve((group.len() - old) * c);
        for &g in &group[old..] {
            let g = g as usize;
            self.data.extend_from_within(g * c..(g + 1) * c);
        }
        for (r, &g) in group[..old].iter().enumerate().rev() {
            let g = g as usize;
            if g != r {
                self.data.copy_within(g * c..(g + 1) * c, r * c);
            }
        }
        self.rows = group.len();
    }

    /// Becomes an element-wise copy of `other`, reusing the allocation.
    pub(crate) fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }
}

/// Register-tiled GEMM microkernel over raw row-major slices: MR×NR
/// accumulators live in registers across the whole k loop, so each weight
/// row is streamed once per row-block instead of once per row. For every
/// `(i, j)` the contributions accumulate in ascending `k`, so the result
/// is bit-identical to the naive zero-initialized i-k-j loop (zero
/// activations contribute exact zeros; skipping them is not worth the
/// branch). Free function over plain slices so LLVM gets clean noalias
/// information for the output.
fn gemm_tiled(a: &[f32], b: &[f32], out: &mut [f32], rows: usize, kk: usize, n: usize) {
    gemm_tiled_cols(a, b, out, rows, kk, kk, n, 0, n)
}

/// Column-band generalization of [`gemm_tiled`]: computes only columns
/// `c0..c0 + w` of `a · b` (where `b` is `kk × bn` row-major) into `out`
/// (`rows × w`, row-major), contracting only `k < klim` (`a`'s row stride
/// stays `kk`; callers pass `klim == kk` for the full product). Per
/// `(i, j)` the dot product still accumulates from zero in ascending `k`,
/// so each computed value is bit-identical to the corresponding entry of
/// the full product whenever the skipped `b` rows are zero — the
/// incremental AR sweep relies on this to recompute one degree band per
/// step without touching input rows its mask zeroes out.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled_cols(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    rows: usize,
    kk: usize,
    klim: usize,
    bn: usize,
    c0: usize,
    w: usize,
) {
    const MR: usize = 4;
    const L: usize = lane::WIDTH;
    let mut i = 0;
    while i + MR <= rows {
        // Hierarchical fixed-width column tiles, widths derived from the
        // build-time lane width: two-lane and one-lane tiles first (whole
        // vector registers the autovectorizer cannot miss), then
        // power-of-two sub-lane tails. Narrow outputs (the degree bands of
        // the incremental sweep are ~width/n_attrs columns) keep their
        // accumulators in registers instead of falling into a
        // variable-length remainder loop. Tile width only groups columns —
        // each `(i, j)` is still an independent zero-init ascending-k dot
        // product, so the result does not depend on the tiling (or the
        // lane width). The constant-condition branches below fold away at
        // compile time.
        let mut j0 = 0;
        if L == 1 {
            // Scalar fallback: fixed register tiles still buy ILP.
            while j0 + 32 <= w {
                mul_tile::<32>(a, b, out, i, kk, klim, bn, c0, w, j0);
                j0 += 32;
            }
            while j0 + 8 <= w {
                mul_tile::<8>(a, b, out, i, kk, klim, bn, c0, w, j0);
                j0 += 8;
            }
            while j0 + 4 <= w {
                mul_tile::<4>(a, b, out, i, kk, klim, bn, c0, w, j0);
                j0 += 4;
            }
        } else {
            while j0 + 2 * L <= w {
                mul_tile::<{ 2 * L }>(a, b, out, i, kk, klim, bn, c0, w, j0);
                j0 += 2 * L;
            }
            while j0 + L <= w {
                mul_tile::<L>(a, b, out, i, kk, klim, bn, c0, w, j0);
                j0 += L;
            }
            if L > 8 {
                while j0 + 8 <= w {
                    mul_tile::<8>(a, b, out, i, kk, klim, bn, c0, w, j0);
                    j0 += 8;
                }
            }
            if L > 4 {
                while j0 + 4 <= w {
                    mul_tile::<4>(a, b, out, i, kk, klim, bn, c0, w, j0);
                    j0 += 4;
                }
            }
        }
        while j0 + 2 <= w {
            mul_tile::<2>(a, b, out, i, kk, klim, bn, c0, w, j0);
            j0 += 2;
        }
        while j0 < w {
            mul_tile::<1>(a, b, out, i, kk, klim, bn, c0, w, j0);
            j0 += 1;
        }
        i += MR;
    }
    for i in i..rows {
        let a_row = &a[i * kk..i * kk + klim];
        let out_row = &mut out[i * w..(i + 1) * w];
        out_row.fill(0.0);
        for (k, &av) in a_row.iter().enumerate() {
            let b_row = &b[k * bn + c0..k * bn + c0 + w];
            for j in 0..w {
                out_row[j] += av * b_row[j];
            }
        }
    }
}

thread_local! {
    /// Scratch of the accumulate kernels: the transposed operand, then the
    /// product. Per thread, so a long-lived caller allocates it once.
    static ACC_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The shared body of the accumulate kernels: hands `product` the
/// transpose of `flipped` and a buffer shaped like `out`, which it must
/// overwrite with the finished product, then adds that product into `out`
/// — one add per element, gated by `mask` (same shape as `out`) as a
/// select when there is one.
fn acc_product(
    flipped: &Matrix,
    out: &mut Matrix,
    mask: Option<&[f32]>,
    product: impl FnOnce(&[f32], &mut [f32]),
) {
    ACC_SCRATCH.with_borrow_mut(|scratch| {
        scratch.resize(flipped.len() + out.len(), 0.0);
        let (t, p) = scratch.split_at_mut(flipped.len());
        // Blocks of source rows: a line's worth of contiguous writes per
        // column, and no power-of-two stride over the whole operand.
        let (rows, cols) = flipped.shape();
        for r0 in (0..rows).step_by(16) {
            for c in 0..cols {
                for r in r0..(r0 + 16).min(rows) {
                    t[c * rows + r] = flipped.data[r * cols + c];
                }
            }
        }
        product(t, p);
        match mask {
            None => out.data.iter_mut().zip(&*p).for_each(|(o, &v)| *o += v),
            Some(mask) => {
                for ((o, &v), &m) in out.data.iter_mut().zip(&*p).zip(mask) {
                    *o += if m == 0.0 { 0.0 } else { v };
                }
            }
        }
    });
}

/// One `4 × NR` register tile of [`gemm_tiled_cols`]: columns
/// `j0..j0 + NR` (offset by `c0` inside `b`) for rows `i..i + 4`,
/// accumulated from zero in ascending `k` up to `klim` (`a`'s row stride
/// stays `kk`). Monomorphized per tile width so the accumulator array
/// stays in registers.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn mul_tile<const NR: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    kk: usize,
    klim: usize,
    bn: usize,
    c0: usize,
    w: usize,
    j0: usize,
) {
    const MR: usize = 4;
    let mut acc = [[0f32; NR]; MR];
    for k in 0..klim {
        let b_tile = &b[k * bn + c0 + j0..k * bn + c0 + j0 + NR];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a[(i + r) * kk + k];
            for (o, &bv) in acc_row.iter_mut().zip(b_tile) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * w + j0..(i + r) * w + j0 + NR].copy_from_slice(acc_row);
    }
}

/// Kernel of [`Matrix::matmul_t_band_into`]: `x` is feature-major with row
/// stride `m`, `w` holds `out.len() / m` unit rows of stride `kw`, and
/// `out` gets one row of `m` per unit. Batch rows sit in the lanes, in
/// hierarchical row tiles — two lanes, one lane, then power-of-two tails —
/// so the setup pass over a few dozen distinct prefixes runs no padded
/// vector; within a row tile, units go four, two, then one at a time. (A
/// tile width at or above `L` after the `L` tiles finds no rows left.)
fn gemm_rows_in_lanes(x: &[f32], w: &[f32], out: &mut [f32], m: usize, kw: usize, klim: usize) {
    const L: usize = lane::WIDTH;
    let mut r0 = 0;
    macro_rules! row_tiles {
        ($($r:expr),*) => {$(
            while m - r0 >= $r {
                units_tile::<{ $r }>(x, w, out, m, kw, klim, r0);
                r0 += $r;
            }
        )*};
    }
    row_tiles!(2 * L, L, 8, 4, 2, 1);
}

/// Every unit of [`gemm_rows_in_lanes`] over batch rows `r0..r0 + R`.
#[inline(always)]
fn units_tile<const R: usize>(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    m: usize,
    kw: usize,
    klim: usize,
    r0: usize,
) {
    let n = out.len() / m;
    let mut j = 0;
    while j + 4 <= n {
        rows_tile::<4, R>(x, w, out, m, kw, klim, r0, j);
        j += 4;
    }
    if j + 2 <= n {
        rows_tile::<2, R>(x, w, out, m, kw, klim, r0, j);
        j += 2;
    }
    if j < n {
        rows_tile::<1, R>(x, w, out, m, kw, klim, r0, j);
    }
}

/// One `NJ`-unit × `R`-row register tile of [`gemm_rows_in_lanes`]: per
/// `k`, one contiguous `R`-wide load of input feature `k` and a broadcast
/// weight per unit; every accumulator starts at zero and takes its terms
/// in ascending `k`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn rows_tile<const NJ: usize, const R: usize>(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    m: usize,
    kw: usize,
    klim: usize,
    r0: usize,
    j0: usize,
) {
    let mut acc = [[0f32; R]; NJ];
    let w_rows: [&[f32]; NJ] = std::array::from_fn(|u| &w[(j0 + u) * kw..][..klim]);
    for k in 0..klim {
        let xs = &x[k * m + r0..][..R];
        for (acc_u, w_u) in acc.iter_mut().zip(&w_rows) {
            let wv = w_u[k];
            for (o, &xv) in acc_u.iter_mut().zip(xs) {
                *o += xv * wv;
            }
        }
    }
    for (u, acc_u) in acc.iter().enumerate() {
        out[(j0 + u) * m + r0..][..R].copy_from_slice(acc_u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computed() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Matrix::rand_uniform(4, 5, -1.0, 1.0, &mut rng);
        // explicit aᵀ
        let mut at = Matrix::zeros(3, 4);
        for i in 0..4 {
            for j in 0..3 {
                at.set(j, i, a.get(i, j));
            }
        }
        let expect = at.matmul(&b);
        let mut got = Matrix::zeros(3, 5);
        a.t_matmul_acc(&b, &mut got);
        for (x, y) in expect.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_t_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::rand_uniform(4, 3, -1.0, 1.0, &mut rng);
        let b = Matrix::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let mut bt = Matrix::zeros(3, 5);
        for i in 0..5 {
            for j in 0..3 {
                bt.set(j, i, b.get(i, j));
            }
        }
        let expect = a.matmul(&bt);
        let mut got = Matrix::zeros(4, 5);
        a.matmul_t_acc(&b, &mut got);
        for (x, y) in expect.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn acc_kernels_accumulate_and_gate() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::rand_uniform(5, 3, -1.0, 1.0, &mut rng);
        let b = Matrix::rand_uniform(5, 4, -1.0, 1.0, &mut rng);

        let mut once = Matrix::zeros(3, 4);
        a.t_matmul_acc(&b, &mut once);
        // Accumulates rather than overwrites.
        let mut acc = once.clone();
        a.t_matmul_acc(&b, &mut acc);
        let mut twice = once.clone();
        twice.add_assign(&once);
        for (x, y) in acc.data().iter().zip(twice.data()) {
            assert!((x - y).abs() < 1e-5);
        }

        let mut mask = Matrix::zeros(3, 4);
        for r in 0..3 {
            for c in 0..4 {
                mask.set(r, c, ((r + c) % 2) as f32);
            }
        }
        let mut acc = Matrix::zeros(3, 4);
        a.t_matmul_masked_acc(&b, &mask, &mut acc);
        assert_eq!(acc, once.hadamard(&mask));
    }

    /// Random matrix with planted exact zeros and negative zeros, so the
    /// tiled kernels hit the `a == 0` skip and signed-zero accumulation
    /// paths the bit-equality contract has to preserve.
    fn tricky(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::rand_uniform(rows, cols, -1.0, 1.0, rng);
        for i in 0..rows {
            for j in 0..cols {
                match (i * cols + j) % 7 {
                    0 => m.set(i, j, 0.0),
                    3 => m.set(i, j, -0.0),
                    _ => {}
                }
            }
        }
        m
    }

    /// All three accumulate kernels against their oracles on the shapes of
    /// one linear layer's backward pass — `gx (rows × inp) += g · wᵀ` and
    /// `gw (inp × out) += xᵀ · g`, plain and masked — with `tricky`
    /// operands, non-zero accumulators with planted `±0.0`, a random binary
    /// mask, and each accumulator used twice.
    fn check_acc_kernels(rows: usize, inp: usize, out: usize, rng: &mut StdRng) {
        let same = |tiled: &Matrix, naive: &Matrix, what: &str| {
            for (x, y) in tiled.data().iter().zip(naive.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what} {rows}x{inp}x{out}");
            }
        };
        let (x, g, w) = (
            tricky(rows, inp, rng),
            tricky(rows, out, rng),
            tricky(inp, out, rng),
        );
        let mut mask = Matrix::rand_uniform(inp, out, -1.0, 1.0, rng);
        for m in mask.data_mut() {
            *m = if *m < 0.0 { 0.0 } else { 1.0 };
        }
        let (mut gx, mut gw, mut gm) = (
            tricky(rows, inp, rng),
            tricky(inp, out, rng),
            tricky(inp, out, rng),
        );
        let (mut gx_naive, mut gw_naive, mut gm_naive) = (gx.clone(), gw.clone(), gm.clone());
        for _ in 0..2 {
            g.matmul_t_acc(&w, &mut gx);
            g.matmul_t_acc_naive(&w, &mut gx_naive);
            same(&gx, &gx_naive, "matmul_t_acc");
            x.t_matmul_acc(&g, &mut gw);
            x.t_matmul_acc_naive(&g, &mut gw_naive);
            same(&gw, &gw_naive, "t_matmul_acc");
            x.t_matmul_masked_acc(&g, &mask, &mut gm);
            x.t_matmul_masked_acc_naive(&g, &mask, &mut gm_naive);
            same(&gm, &gm_naive, "t_matmul_masked_acc");
        }
    }

    #[test]
    fn tiled_acc_kernels_are_bit_identical_to_naive() {
        let mut rng = StdRng::seed_from_u64(11);
        // Shapes straddling the tile sizes: exact multiples, remainders in
        // both dimensions, and degenerate single rows/cols — each triple
        // once as `(m × k) · (n × k)ᵀ` and once as `(k × m)ᵀ · (k × n)`.
        let shapes = [
            (8usize, 8usize, 8usize),
            (9, 5, 11),
            (4, 32, 4),
            (1, 3, 1),
            (13, 1, 17),
            (6, 64, 33),
        ];
        for &(m, k, n) in &shapes {
            check_acc_kernels(m, n, k, &mut rng);
            check_acc_kernels(k, m, n, &mut rng);
        }
    }

    #[test]
    fn acc_kernels_bit_identical_to_naive_on_the_tapes_shapes() {
        // What training feeds them: microbatches of 32 rows (1 and 33 when
        // ragged) through the 88 → 64 → 64 → n trunk, n over every residue
        // of the two-lane tile, and the small fixture's 24 × 24.
        let mut rng = StdRng::seed_from_u64(25);
        for rows in [32usize, 1, 33] {
            for (inp, out) in [(88usize, 64usize), (64, 64), (24, 24)] {
                check_acc_kernels(rows, inp, out, &mut rng);
            }
        }
        for out in 200..200 + 2 * lane::WIDTH {
            check_acc_kernels(32, 64, out, &mut rng);
        }
    }

    /// Every residue of the output width modulo the lane width (and the
    /// two-lane tile) — exercises every tail path of the tile ladder on
    /// whatever lane width this build selected.
    fn ragged_widths() -> impl Iterator<Item = usize> {
        (1..=2 * lane::WIDTH.max(8) + 1).chain([64])
    }

    #[test]
    fn wide_forward_kernel_bit_identical_to_naive_on_ragged_widths() {
        let mut rng = StdRng::seed_from_u64(21);
        for m in [1usize, 4, 9] {
            for n in ragged_widths() {
                let k = 7;
                let a = tricky(m, k, &mut rng);
                let b = tricky(k, n, &mut rng);
                let mut tiled = Matrix::zeros(0, 0);
                let mut naive = Matrix::zeros(0, 0);
                a.matmul_into(&b, &mut tiled);
                a.matmul_into_naive(&b, &mut naive);
                assert_eq!(tiled.shape(), naive.shape());
                for (x, y) in tiled.data().iter().zip(naive.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "matmul {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn wide_band_kernel_bit_identical_to_naive_on_ragged_bands() {
        // Band starts both lane-aligned and not, band widths covering every
        // residue mod the lane width — the shapes the padded sweep and its
        // unpadded escape hatch feed this kernel.
        let mut rng = StdRng::seed_from_u64(22);
        let (m, k, n) = (9usize, 5usize, 2 * lane::WIDTH.max(8) + 40);
        let a = tricky(m, k, &mut rng);
        let b = tricky(k, n, &mut rng);
        for start in [0usize, 3, lane::WIDTH] {
            for w in 1..=2 * lane::WIDTH.max(8) + 1 {
                let band = start..start + w;
                let mut tiled = Matrix::zeros(0, 0);
                let mut naive = Matrix::zeros(0, 0);
                a.matmul_col_band_limited_into(&b, band.clone(), k, &mut tiled);
                a.matmul_col_band_into_naive(&b, band.clone(), &mut naive);
                for (x, y) in tiled.data().iter().zip(naive.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "band {band:?} of {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn k_limited_band_kernel_bit_identical_to_full_k_on_zero_tails() {
        // The k-limit contract: when every skipped `other` row is zero over
        // the band, contracting only `k < k_limit` is bit-identical to the
        // full product (skipped terms are exact `a · 0.0 = ±0.0` adds).
        // Zero the tail rows of `b` inside the band and check the limited
        // kernel against the full-k naive oracle at every limit.
        let mut rng = StdRng::seed_from_u64(24);
        let (m, k, n) = (9usize, 11usize, lane::WIDTH.max(8) + 13);
        let a = tricky(m, k, &mut rng);
        for start in [0usize, 3] {
            for w in [1usize, lane::WIDTH, lane::WIDTH + 3] {
                let band = start..start + w;
                for klim in [0usize, 1, 5, k] {
                    let mut b = tricky(k, n, &mut rng);
                    for r in klim..k {
                        for c in band.clone() {
                            b.set(r, c, 0.0);
                        }
                    }
                    let mut limited = Matrix::zeros(0, 0);
                    let mut naive = Matrix::zeros(0, 0);
                    a.matmul_col_band_limited_into(&b, band.clone(), klim, &mut limited);
                    a.matmul_col_band_into_naive(&b, band.clone(), &mut naive);
                    for (x, y) in limited.data().iter().zip(naive.data()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "band {band:?} klim {klim}");
                    }
                }
            }
        }
    }

    fn transpose(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols(), m.rows());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                t.set(c, r, m.get(r, c));
            }
        }
        t
    }

    #[test]
    fn rows_in_lanes_band_kernel_bit_identical_to_naive() {
        // The sweep's band GEMM on transposed operands against the band
        // oracle: row counts straddling every row tile (two lanes, one
        // lane, 8, 4, 2, 1) on this build's lane width, band widths
        // 1..=17 straddling the unit tiles (4, 2, 1), and k-limits with
        // the skipped weight rows zeroed over the band.
        let mut rng = StdRng::seed_from_u64(26);
        let (k, n, l) = (19usize, 24usize, lane::WIDTH);
        let mut rows = vec![1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 67];
        rows.extend(
            [l - 1, l + 1, 2 * l - 1, 2 * l + 1, 4 * l + 3]
                .iter()
                .filter(|&&m| m > 0),
        );
        for m in rows {
            let a = tricky(m, k, &mut rng);
            let at = transpose(&a);
            for w in 1..=17 {
                let band = 5..5 + w;
                for klim in [0usize, 1, 8, k] {
                    let mut b = tricky(k, n, &mut rng);
                    for r in klim..k {
                        for c in band.clone() {
                            b.set(r, c, 0.0);
                        }
                    }
                    let (mut got, mut naive) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                    at.matmul_t_band_into(&transpose(&b), band.clone(), klim, &mut got);
                    a.matmul_col_band_into_naive(&b, band.clone(), &mut naive);
                    assert_eq!(got.shape(), (w, m));
                    for (i, jj) in (0..m).flat_map(|i| (0..w).map(move |jj| (i, jj))) {
                        assert_eq!(
                            got.get(jj, i).to_bits(),
                            naive.get(i, jj).to_bits(),
                            "{m} rows, band {band:?}, klim {klim}, at ({i}, {jj})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_acc_kernels_bit_identical_to_naive_on_ragged_widths() {
        let mut rng = StdRng::seed_from_u64(23);
        for n in ragged_widths() {
            // matmul_t_acc: (7 × 6) · (n × 6)ᵀ; t_matmul_acc and its masked
            // form: (6 × 7)ᵀ · (6 × n).
            check_acc_kernels(7, n, 6, &mut rng);
            check_acc_kernels(6, 7, n, &mut rng);
        }
    }

    #[test]
    fn col_band_matmul_is_bit_identical_to_full_product() {
        // Every column band of the product — tile-aligned, straddling, and
        // degenerate single columns — must match the full GEMM bit for bit,
        // including planted exact/negative zeros in both operands.
        let mut rng = StdRng::seed_from_u64(13);
        for &(m, k, n) in &[
            (9usize, 5usize, 70usize),
            (4, 32, 33),
            (1, 3, 5),
            (6, 1, 64),
        ] {
            let a = tricky(m, k, &mut rng);
            let b = tricky(k, n, &mut rng);
            let full = a.matmul(&b);
            let bands = [
                0..n,
                0..1.min(n),
                n / 3..(2 * n / 3).max(n / 3 + 1),
                n - 1..n,
            ];
            for band in bands {
                let mut out = Matrix::zeros(0, 0);
                a.matmul_col_band_limited_into(&b, band.clone(), k, &mut out);
                assert_eq!(out.shape(), (m, band.len()));
                for i in 0..m {
                    for (jj, j) in band.clone().enumerate() {
                        assert_eq!(
                            out.get(i, jj).to_bits(),
                            full.get(i, j).to_bits(),
                            "band {band:?} ({m}x{k}x{n}) diverged at ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiled_acc_kernels_accumulate_repeatedly() {
        // Repeated accumulation into the same buffer (how the backward
        // pass uses these) must also track the naive sequence bit-for-bit.
        let mut rng = StdRng::seed_from_u64(12);
        let a = tricky(7, 10, &mut rng);
        let b = tricky(5, 10, &mut rng);
        let mut tiled = Matrix::zeros(7, 5);
        let mut naive = Matrix::zeros(7, 5);
        for _ in 0..3 {
            a.matmul_t_acc(&b, &mut tiled);
            a.matmul_t_acc_naive(&b, &mut naive);
        }
        assert_eq!(tiled, naive);

        let a = tricky(10, 7, &mut rng);
        let b = tricky(10, 5, &mut rng);
        let mut tiled = Matrix::zeros(7, 5);
        let mut naive = Matrix::zeros(7, 5);
        for _ in 0..3 {
            a.t_matmul_acc(&b, &mut tiled);
            a.t_matmul_acc_naive(&b, &mut naive);
        }
        assert_eq!(tiled, naive);
    }

    #[test]
    fn col_sums_sums_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut sums = Matrix::zeros(1, 2);
        a.col_sums_acc(&mut sums);
        assert_eq!(sums, Matrix::from_rows(&[&[9.0, 12.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn glorot_respects_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Matrix::glorot(64, 32, &mut rng);
        let bound = (6.0f32 / (64.0 + 32.0)).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn glorot_pins_init_distribution() {
        // Pin the init contract: bound = sqrt(6 / (fan_in + fan_out)), the
        // samples fill that support (not a tighter one), and the mean is
        // near zero. Guards against silent regressions to fan-in-only.
        let (fan_in, fan_out) = (100usize, 50usize);
        let bound = (6.0f32 / (fan_in + fan_out) as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(4);
        let w = Matrix::glorot(fan_in, fan_out, &mut rng);
        let max_abs = w.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max_abs <= bound, "sample {max_abs} exceeds bound {bound}");
        assert!(max_abs > 0.95 * bound, "samples do not fill the support");
        let mean: f32 = w.data().iter().sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.05 * bound, "mean {mean} too far from zero");
        // Uniform variance b²/3 within 10%.
        let var: f32 = w.data().iter().map(|v| v * v).sum::<f32>() / w.len() as f32;
        let expect = bound * bound / 3.0;
        assert!(
            (var - expect).abs() < 0.1 * expect,
            "variance {var} vs {expect}"
        );
    }
}
