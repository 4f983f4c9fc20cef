//! Panel-packed weight matrices for the dense `f32` gemm.
//!
//! The register-tiled dense kernel walks a weight matrix one column block
//! at a time, reading the block's rows with exact-width vector loads. A
//! row-major `k_dim × n` matrix puts consecutive rows of a block `n`
//! elements apart; copying each block out per call would re-stream the
//! whole matrix before any arithmetic. A [`Panels`] matrix stores the
//! blocks contiguously, packed once by the weights' owner: the kernel
//! reads it in place and packs nothing.

use crate::lanes::Element;

/// Columns per panel. One width for every backend, so a single pack serves
/// every [`crate::Selection`]: AVX-512 walks a panel as one register tile
/// of two vectors, AVX2 as two tiles, SSE2 as four, and the scalar backend
/// as one element-array tile of exactly this width.
pub(crate) const PANEL_WIDTH: usize = 32;

/// A `k_dim × n` `f32` matrix laid out as column panels for
/// [`crate::gemm_dense_acc_f32`].
///
/// Panel `p` holds columns `32p .. min(32p + 32, n)` as `k_dim` contiguous
/// rows of the panel's width; panels follow each other, so panel `p`
/// starts at element `32p·k_dim` and the last (possibly ragged) panel is
/// as narrow as its columns. The width is the same for every backend, so
/// one pack serves them all. The pack is a permutation of the source:
/// exactly `k_dim · n` elements.
///
/// A pack is derived data: whoever owns the source weights must re-pack
/// after every write to them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Panels {
    k_dim: usize,
    n: usize,
    data: Vec<f32>,
}

impl Panels {
    /// Packs a row-major `k_dim × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != k_dim * n`.
    pub fn from_row_major(k_dim: usize, n: usize, w: &[f32]) -> Self {
        let mut panels = Panels::default();
        panels.pack(k_dim, n, w);
        panels
    }

    /// Re-packs `self` from a row-major `k_dim × n` matrix, reusing its
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != k_dim * n`.
    pub fn pack(&mut self, k_dim: usize, n: usize, w: &[f32]) {
        assert_eq!(w.len(), k_dim * n, "panel pack: source block mismatch");
        self.fill(k_dim, n, |k, j| w[k * n + j]);
    }

    /// Re-packs `self` with the **transpose** of a row-major `rows × cols`
    /// matrix (a `cols × rows` pack), reusing its allocation. The backward
    /// product `dX += dY·Wᵀ` is the dense gemm over this pack.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows * cols`.
    pub fn pack_transposed(&mut self, rows: usize, cols: usize, w: &[f32]) {
        assert_eq!(w.len(), rows * cols, "panel pack: source block mismatch");
        self.fill(cols, rows, |k, j| w[j * cols + k]);
    }

    /// Rows of the packed matrix (the gemm's contraction dimension).
    pub fn k_dim(&self) -> usize {
        self.k_dim
    }

    /// Columns of the packed matrix (the gemm's output width).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed elements, panel after panel.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    fn fill(&mut self, k_dim: usize, n: usize, at: impl Fn(usize, usize) -> f32) {
        self.k_dim = k_dim;
        self.n = n;
        // Every element is overwritten below; resizing keeps the buffer.
        self.data.resize(k_dim * n, 0.0);
        let mut j0 = 0;
        while j0 < n {
            let pw = PANEL_WIDTH.min(n - j0);
            pack_block(
                &mut self.data[j0 * k_dim..(j0 + pw) * k_dim],
                k_dim,
                j0,
                pw,
                &at,
            );
            j0 += pw;
        }
    }
}

/// Writes columns `j0 .. j0 + pw` of the matrix `at(k, j)` into `dst` as
/// `k_dim` contiguous rows of width `pw` — the layout of one panel, shared
/// by [`Panels`] and the `f64` batched matvec's per-call transpose pack.
#[inline(always)]
pub(crate) fn pack_block<E: Element>(
    dst: &mut [E],
    k_dim: usize,
    j0: usize,
    pw: usize,
    at: &impl Fn(usize, usize) -> E,
) {
    debug_assert_eq!(dst.len(), k_dim * pw);
    for (k, row) in dst.chunks_exact_mut(pw).enumerate() {
        for (jj, d) in row.iter_mut().enumerate() {
            *d = at(k, j0 + jj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_hold_contiguous_column_blocks() {
        // 3 x 70: two full panels plus a 6-column tail.
        let w: Vec<f32> = (0..3 * 70).map(|i| i as f32).collect();
        let p = Panels::from_row_major(3, 70, &w);
        assert_eq!((p.k_dim(), p.n()), (3, 70));
        assert_eq!(p.data().len(), w.len());
        // Panel 1, row 2, column 40 (offset 8 inside the panel).
        assert_eq!(p.data()[32 * 3 + 2 * 32 + 8], w[2 * 70 + 40]);
        // Tail panel (width 6), row 1, column 65.
        assert_eq!(p.data()[64 * 3 + 6 + 1], w[70 + 65]);
    }

    #[test]
    fn transposed_pack_equals_pack_of_the_transpose() {
        let (rows, cols) = (37, 5);
        let w: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.5).collect();
        let mut wt = vec![0.0f32; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                wt[j * rows + i] = w[i * cols + j];
            }
        }
        let mut p = Panels::from_row_major(2, 2, &[0.0; 4]);
        p.pack_transposed(rows, cols, &w);
        assert_eq!(p, Panels::from_row_major(cols, rows, &wt));
    }
}
