//! A minimal `f32` matrix and the kernels an LSTM needs.
//!
//! The forward (inference) kernels — [`matvec_acc`], [`gemm_acc`],
//! [`gemm_dense_acc`], [`axpy`] — are thin shape-checked fronts over the
//! runtime-dispatched SIMD kernel layer in [`icsad_simd`]: one backend
//! (scalar / SSE2 / AVX2+FMA / AVX-512) is selected per process by CPU
//! detection, and every backend produces bitwise-identical results under
//! the dispatched FMA policy (pinned by `icsad-simd`'s parity proptests).
//! Weights are stored row-major with the *input* dimension as rows, so
//! `y += xᵀ·W` walks contiguous weight rows and vectorizes along the
//! output columns only — every `y[j]` accumulates its `k` contributions in
//! ascending order, which keeps batched ≡ per-record bit-identical.
//!
//! The row-major matrix feeds the per-record and one-hot kernels
//! ([`matvec_acc`], [`gemm_acc`]). The register-tiled dense kernel
//! ([`gemm_dense_acc`]) reads a [`Panels`] copy instead: column panels the
//! weights' owner packs once — at construction, on deserialization and
//! after every optimizer step — so no kernel call copies a weight.
//!
//! The backward (training) kernels ride the same layer: the data gradient
//! `dX += dY·Wᵀ` is [`gemm_dense_acc`] over a **transposed** pack
//! ([`Panels::pack_transposed`], refreshed with the forward panels after
//! every optimizer step), and the weight gradient is the batched
//! outer product [`outer_acc`] (`dW += Xᵀ·dY`) with the sparse kernel's
//! zero-skip. Both keep the ascending-contraction order, so SIMD ≡ scalar
//! stays bitwise for training too.

pub use icsad_simd::Panels;

/// A dense row-major `f32` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor2 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor2 {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor2 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor data length mismatch");
        Tensor2 { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` for a 0-element tensor.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets every element to zero.
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Re-packs `panels` from this matrix for [`gemm_dense_acc`].
    pub(crate) fn pack_into(&self, panels: &mut Panels) {
        panels.pack(self.rows, self.cols, &self.data);
    }

    /// Re-packs `panels` with this matrix's transpose: [`gemm_dense_acc`]
    /// over it computes `dX += dY·Wᵀ`, contracting over this matrix's
    /// columns.
    pub(crate) fn pack_transposed_into(&self, panels: &mut Panels) {
        panels.pack_transposed(self.rows, self.cols, &self.data);
    }

    /// Adds `other` elementwise (used to merge per-thread gradients).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor2) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "tensor shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }
}

/// `y += xᵀ · w` where `w` is `(in × out)`, `x` has length `in` and `y` has
/// length `out`.
///
/// Skips zero entries of `x`, which makes one-hot inputs nearly free.
///
/// Whether `acc + x·w` contracts into a fused multiply-add used to be a
/// compile-time `cfg!(target_feature = "fma")` decision; it now travels
/// with the runtime-dispatched backend ([`icsad_simd::current`]), so a
/// portable binary on FMA hardware rounds identically on the scalar and
/// SIMD paths (`mul_add` is correctly rounded with or without the
/// hardware instruction).
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn matvec_acc(w: &Tensor2, x: &[f32], y: &mut [f32]) {
    assert_eq!(w.rows(), x.len(), "matvec_acc: input length mismatch");
    assert_eq!(w.cols(), y.len(), "matvec_acc: output length mismatch");
    icsad_simd::gemm_acc_f32(1, x, w.rows(), w.as_slice(), w.cols(), y);
}

/// Batched outer-product accumulate `dw += Xᵀ·dY`: `batch` row-major
/// input rows (`batch × dw.rows()`) against `batch` gradient rows
/// (`batch × dw.cols()`). With `batch == 1` this is the rank-1 update
/// `dw += x ⊗ dy`.
///
/// Skips zero entries of `x` — the gradient of a one-hot input touches a
/// single row per batch entry — and accumulates each element's batch
/// contributions in ascending order on every backend.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn outer_acc(batch: usize, x: &[f32], dy: &[f32], dw: &mut Tensor2) {
    assert_eq!(
        x.len(),
        batch * dw.rows(),
        "outer_acc: input block mismatch"
    );
    assert_eq!(
        dy.len(),
        batch * dw.cols(),
        "outer_acc: gradient block mismatch"
    );
    let (rows, cols) = (dw.rows(), dw.cols());
    icsad_simd::outer_acc_f32(batch, x, rows, dy, cols, dw.as_mut_slice());
}

/// Batched `matvec_acc`: `y[b] += x[b]ᵀ · w` for every row `b` of a
/// `batch × w.rows()` input block, accumulating into a `batch × w.cols()`
/// output block (both row-major slices).
///
/// This is the matrix–matrix product that lets `B` in-flight sequences
/// step through a layer together. Per output element the `k` contributions
/// are accumulated in the same ascending order as [`matvec_acc`], and zero
/// entries of `x` are skipped identically, so results are bit-identical to
/// `B` separate `matvec_acc` calls — on every SIMD backend, which
/// vectorizes along the output columns only.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn gemm_acc(batch: usize, x: &[f32], w: &Tensor2, y: &mut [f32]) {
    let k_dim = w.rows();
    let n = w.cols();
    assert_eq!(x.len(), batch * k_dim, "gemm_acc: input block mismatch");
    assert_eq!(y.len(), batch * n, "gemm_acc: output block mismatch");
    icsad_simd::gemm_acc_f32(batch, x, k_dim, w.as_slice(), n, y);
}

/// Register-blocked batched product for *dense* inputs:
/// `y[b] += x[b]ᵀ · W` like [`gemm_acc`], but without the zero-skip, with
/// the output tile held in registers across the whole `k` loop, and over
/// the panel-packed copy `w` of the weights.
///
/// The axpy formulation of [`matvec_acc`]/[`gemm_acc`] performs one load +
/// one store of the output row per `k` step — fine for one-hot inputs
/// where almost every `k` is skipped, but store-bound for dense inputs
/// (recurrent state, hidden activations). The dispatched kernel
/// ([`icsad_simd::gemm_dense_acc_f32`]) holds a register tile of four
/// lanes × two vectors and reads the weight panels in place, so each
/// weight vector is loaded once per tile and output stores happen once per
/// tile instead of once per `k`.
///
/// Per output element the `k` contributions are still accumulated in one
/// ascending chain, so results compare equal (`f32 ==`) to per-lane
/// [`matvec_acc`] on the row-major weights; including `xi == 0` terms can
/// only flip the sign of a zero, which `==` and every downstream consumer
/// treat identically.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn gemm_dense_acc(batch: usize, x: &[f32], w: &Panels, y: &mut [f32]) {
    icsad_simd::gemm_dense_acc_f32(batch, x, w, y);
}

/// `y += a * x` over slices (under the dispatched FMA policy).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    icsad_simd::axpy_f32(a, x, y);
}

/// Grows a pooled scratch buffer to at least `n` elements (never shrinks,
/// so one buffer serves its high-water mark without reallocating). Callers
/// must treat retained contents as garbage and overwrite or zero the
/// region they use.
pub(crate) fn grow(v: &mut Vec<f32>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w23() -> Tensor2 {
        // 2x3: rows are inputs.
        Tensor2::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn matvec_matches_manual() {
        let w = w23();
        let mut y = vec![0.0; 3];
        matvec_acc(&w, &[10.0, 100.0], &mut y);
        assert_eq!(y, vec![410.0, 520.0, 630.0]);
    }

    #[test]
    fn matvec_accumulates() {
        let w = w23();
        let mut y = vec![1.0; 3];
        matvec_acc(&w, &[1.0, 0.0], &mut y);
        assert_eq!(y, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn matvec_skips_zeros_correctly() {
        let w = w23();
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        matvec_acc(&w, &[0.0, 2.5], &mut a);
        matvec_acc(&w, &[1e-30, 2.5], &mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    fn wt23() -> Panels {
        let mut wt = Panels::default();
        w23().pack_transposed_into(&mut wt);
        wt
    }

    #[test]
    fn transposed_pack_product_matches_manual() {
        let mut dx = vec![0.0; 2];
        gemm_dense_acc(1, &[1.0, 0.0, 1.0], &wt23(), &mut dx);
        assert_eq!(dx, vec![4.0, 10.0]);
    }

    #[test]
    fn transposed_pack_product_batches_rows_independently() {
        let dy = [1.0, 0.0, 1.0, 0.0, 2.0, 0.0];
        let mut dx = vec![0.0; 4];
        gemm_dense_acc(2, &dy, &wt23(), &mut dx);
        assert_eq!(dx, vec![4.0, 10.0, 4.0, 10.0]);
    }

    #[test]
    fn outer_product_matches_manual() {
        let mut dw = Tensor2::zeros(2, 3);
        outer_acc(1, &[2.0, 0.0], &[1.0, 2.0, 3.0], &mut dw);
        assert_eq!(dw.as_slice(), &[2.0, 4.0, 6.0, 0.0, 0.0, 0.0]);
        outer_acc(1, &[1.0, 1.0], &[1.0, 1.0, 1.0], &mut dw);
        assert_eq!(dw.as_slice(), &[3.0, 5.0, 7.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn outer_product_batch_sums_rank_one_updates() {
        let mut batched = Tensor2::zeros(2, 3);
        outer_acc(
            2,
            &[2.0, 0.0, 1.0, 1.0],
            &[1.0, 2.0, 3.0, 1.0, 1.0, 1.0],
            &mut batched,
        );
        assert_eq!(batched.as_slice(), &[3.0, 5.0, 7.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn transpose_consistency() {
        // <W x, y> == <x, W^T y> for random-ish data.
        let w = w23();
        let x = [0.3f32, -1.2];
        let y = [2.0f32, -0.5, 0.25];
        let mut wx = vec![0.0; 3];
        matvec_acc(&w, &x, &mut wx);
        let mut wty = vec![0.0; 2];
        gemm_dense_acc(1, &y, &wt23(), &mut wty);
        let lhs: f32 = wx.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(wty.iter()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = Tensor2::zeros(2, 2);
        let mut b = Tensor2::zeros(2, 2);
        a.as_mut_slice()[0] = 1.0;
        b.as_mut_slice()[0] = 2.0;
        b.as_mut_slice()[3] = 5.0;
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn axpy_works() {
        let mut y = vec![1.0, 2.0];
        axpy(3.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![31.0, 62.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dimension_mismatch_panics() {
        let w = w23();
        let mut y = vec![0.0; 2];
        matvec_acc(&w, &[1.0, 2.0], &mut y);
    }

    #[test]
    fn gemm_matches_per_row_matvec_bitwise() {
        // 80 input rows > the internal k block, 7 lanes, mixed zeros/ones.
        let w = Tensor2::from_vec(
            80,
            5,
            (0..400)
                .map(|i| ((i * 37 % 101) as f32 - 50.0) / 13.0)
                .collect(),
        );
        let x: Vec<f32> = (0..7 * 80)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => 1.0,
                _ => ((i * 29 % 83) as f32 - 41.0) / 7.0,
            })
            .collect();
        let mut batched = vec![0.25f32; 7 * 5];
        gemm_acc(7, &x, &w, &mut batched);
        for b in 0..7 {
            let mut single = vec![0.25f32; 5];
            matvec_acc(&w, &x[b * 80..(b + 1) * 80], &mut single);
            assert_eq!(&batched[b * 5..(b + 1) * 5], single.as_slice(), "lane {b}");
        }
    }

    #[test]
    fn gemm_dense_matches_per_row_matvec() {
        // Sizes straddling the tile boundaries: 70 inputs, 37 outputs,
        // 6 lanes (one partial lane tile, partial j tile).
        let w = Tensor2::from_vec(
            70,
            37,
            (0..70 * 37)
                .map(|i| ((i * 53 % 211) as f32 - 105.0) / 29.0)
                .collect(),
        );
        let x: Vec<f32> = (0..6 * 70)
            .map(|i| match i % 7 {
                0 => 0.0, // exact zeros exercise the no-skip equivalence
                1 => 1.0,
                _ => ((i * 41 % 173) as f32 - 86.0) / 23.0,
            })
            .collect();
        // Non-zero initial contents stand in for a preloaded bias.
        let mut batched: Vec<f32> = (0..6 * 37).map(|i| (i % 5) as f32 - 2.0).collect();
        let reference = batched.clone();
        let mut panels = Panels::default();
        w.pack_into(&mut panels);
        gemm_dense_acc(6, &x, &panels, &mut batched);
        for b in 0..6 {
            let mut single = reference[b * 37..(b + 1) * 37].to_vec();
            matvec_acc(&w, &x[b * 70..(b + 1) * 70], &mut single);
            assert_eq!(
                &batched[b * 37..(b + 1) * 37],
                single.as_slice(),
                "lane {b}"
            );
        }
    }

    #[test]
    fn gemm_dense_empty_batch_is_noop() {
        let w = w23();
        let mut y: Vec<f32> = vec![];
        gemm_dense_acc(0, &[], &Panels::from_row_major(2, 3, w.as_slice()), &mut y);
        assert!(y.is_empty());
    }

    #[test]
    #[should_panic(expected = "gemm_dense_acc")]
    fn gemm_dense_rejects_bad_block() {
        let w = w23();
        let mut y = vec![0.0; 3];
        gemm_dense_acc(
            2,
            &[1.0, 2.0, 3.0],
            &Panels::from_row_major(2, 3, w.as_slice()),
            &mut y,
        );
    }

    #[test]
    fn gemm_empty_batch_is_noop() {
        let w = w23();
        let mut y: Vec<f32> = vec![];
        gemm_acc(0, &[], &w, &mut y);
        assert!(y.is_empty());
    }

    #[test]
    #[should_panic(expected = "gemm_acc")]
    fn gemm_rejects_bad_block() {
        let w = w23();
        let mut y = vec![0.0; 3];
        gemm_acc(2, &[1.0, 2.0, 3.0], &w, &mut y);
    }

    #[test]
    fn zero_and_from_vec() {
        let mut t = Tensor2::from_vec(1, 2, vec![1.0, 2.0]);
        t.zero();
        assert_eq!(t.as_slice(), &[0.0, 0.0]);
        assert_eq!(t.rows(), 1);
        assert_eq!(t.cols(), 2);
        assert!(!t.is_empty());
    }
}
