//! Generic kernel bodies and the per-backend `#[target_feature]` entry
//! points.
//!
//! Every body is written once, generically over [`Lanes`], and vectorizes
//! **only along the independent output dimension** (`j`, the output column
//! — or the element index for the pointwise kernels). The contraction
//! dimension `k` is always walked sequentially in ascending order, and the
//! per-element operation sequence is fixed by the lane trait, so for a
//! given FMA policy every backend produces bitwise-identical results —
//! including the scalar fallback, which is just the `WIDTH = 1`
//! instantiation of the same code. Remainder columns (`n mod WIDTH`) run
//! the element-level ops of the *same* policy.

use crate::lanes::{Element, F32Lanes, Lanes};
use crate::math;
use crate::panels::{pack_block, PANEL_WIDTH};

/// Lanes of the batch dimension processed per register tile in the dense
/// gemm (4 output rows share each loaded weight vector).
const LANE_TILE: usize = 4;

/// Rows of the `k` dimension kept cache-resident per block of the sparse
/// gemm: a `KB × n` weight block is re-walked by every batch row before
/// the sweep moves on (the same blocking both scalar predecessors used).
const K_BLOCK: usize = 64;

/// `y[b] += x[b]ᵀ·W` for every batch row, skipping zero entries of `x`
/// (and taking an exact plain-add path for ones, which rounds identically
/// under both FMA policies). This is the one-hot / sparse kernel; with
/// `batch == 1` it is the per-record `matvec_acc`.
///
/// The `k` loop is blocked ([`K_BLOCK`]) so a block of weight rows stays
/// cache-resident across all batch rows; blocks ascend, and `k` ascends
/// within each block, so every output element still sees one ascending-`k`
/// chain — bitwise identical to the unblocked loop.
#[inline(always)]
pub(crate) fn gemm_sparse_body<L: Lanes>(
    batch: usize,
    x: &[L::Elem],
    k_dim: usize,
    w: &[L::Elem],
    n: usize,
    y: &mut [L::Elem],
) {
    debug_assert_eq!(x.len(), batch * k_dim);
    debug_assert_eq!(w.len(), k_dim * n);
    debug_assert_eq!(y.len(), batch * n);
    let mut kb = 0;
    while kb < k_dim {
        let kend = (kb + K_BLOCK).min(k_dim);
        for b in 0..batch {
            let x_row = &x[b * k_dim..(b + 1) * k_dim];
            let y_row = &mut y[b * n..(b + 1) * n];
            for (ko, &xi) in x_row[kb..kend].iter().enumerate() {
                if xi == L::Elem::ZERO {
                    continue;
                }
                let k = kb + ko;
                let w_row = &w[k * n..(k + 1) * n];
                if xi == L::Elem::ONE {
                    // 1.0 * w rounds to w exactly: the plain add equals the
                    // fmac under either policy.
                    let mut j = 0;
                    while j + L::WIDTH <= n {
                        L::load(&y_row[j..])
                            .add(L::load(&w_row[j..]))
                            .store(&mut y_row[j..]);
                        j += L::WIDTH;
                    }
                    while j < n {
                        y_row[j] = y_row[j].add(w_row[j]);
                        j += 1;
                    }
                } else {
                    let xv = L::splat(xi);
                    let mut j = 0;
                    while j + L::WIDTH <= n {
                        L::load(&y_row[j..])
                            .fmac(xv, L::load(&w_row[j..]))
                            .store(&mut y_row[j..]);
                        j += L::WIDTH;
                    }
                    while j < n {
                        y_row[j] = L::fmac_e(y_row[j], xi, w_row[j]);
                        j += 1;
                    }
                }
            }
        }
        kb = kend;
    }
}

/// Register-tiled dense gemm over panel-packed weights: `y[b] += x[b]ᵀ·W`
/// without the zero skip, each output tile held in registers across the
/// whole `k` loop. `panels` is a [`crate::Panels`] matrix's data; every
/// panel is read in place.
#[inline(always)]
pub(crate) fn gemm_panels_body<L: Lanes>(
    batch: usize,
    x: &[L::Elem],
    k_dim: usize,
    panels: &[L::Elem],
    n: usize,
    y: &mut [L::Elem],
) {
    debug_assert_eq!(x.len(), batch * k_dim);
    debug_assert_eq!(panels.len(), k_dim * n);
    debug_assert_eq!(y.len(), batch * n);
    let mut j0 = 0;
    while j0 < n {
        let pw = PANEL_WIDTH.min(n - j0);
        let block = &panels[j0 * k_dim..(j0 + pw) * k_dim];
        gemm_block::<L>(batch, x, k_dim, n, y, j0, block, pw);
        j0 += pw;
    }
}

/// `y[b][j0 + c] += Σ_k x[b][k]·block[k·pw + c]` for the `pw` columns of
/// one packed panel (`k_dim` contiguous rows of width `pw`). Vector
/// backends walk the panel in sub-tiles of two vectors; the scalar backend
/// takes a full-width panel as one element-array tile; columns left over
/// run element-level fmacs. Every path accumulates each output element in
/// one ascending-`k` chain under the same `fmac` policy, so the split
/// cannot change a bit.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_block<L: Lanes>(
    batch: usize,
    x: &[L::Elem],
    k_dim: usize,
    n: usize,
    y: &mut [L::Elem],
    j0: usize,
    block: &[L::Elem],
    pw: usize,
) {
    let mut c0 = 0;
    if L::WIDTH == 1 {
        if pw == PANEL_WIDTH {
            gemm_dense_scalar_tile::<L>(batch, x, k_dim, n, y, j0, block);
            c0 = pw;
        }
    } else {
        let st = 2 * L::WIDTH;
        while c0 + st <= pw {
            gemm_vector_tile::<L>(batch, x, k_dim, n, y, j0, block, pw, c0);
            c0 += st;
        }
    }
    if c0 == pw {
        return;
    }
    // Ragged trailing columns: element-level fmacs under the same policy,
    // `k` outermost so the columns' chains run side by side (each still
    // ascending in `k`) instead of one latency-bound chain at a time.
    for b in 0..batch {
        let x_row = &x[b * k_dim..(b + 1) * k_dim];
        let yr = &mut y[b * n + j0 + c0..b * n + j0 + pw];
        for (&xv, wr) in x_row.iter().zip(block.chunks_exact(pw)) {
            for (a, &w) in yr.iter_mut().zip(&wr[c0..]) {
                *a = L::fmac_e(*a, xv, w);
            }
        }
    }
}

/// One two-vector column sub-tile (panel columns `c0 .. c0 + 2·WIDTH`) of
/// [`gemm_block`] for the vector backends: quads of batch rows share each
/// loaded weight vector, leftover rows run one at a time.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_vector_tile<L: Lanes>(
    batch: usize,
    x: &[L::Elem],
    k_dim: usize,
    n: usize,
    y: &mut [L::Elem],
    j0: usize,
    block: &[L::Elem],
    pw: usize,
    c0: usize,
) {
    let st = 2 * L::WIDTH;
    let j = j0 + c0;
    let mut b0 = 0;
    while b0 + LANE_TILE <= batch {
        let (x01, x23) = x[b0 * k_dim..(b0 + 4) * k_dim].split_at(2 * k_dim);
        let (x0, x1) = x01.split_at(k_dim);
        let (x2, x3) = x23.split_at(k_dim);
        let mut acc = [[L::splat(L::Elem::ZERO); 2]; LANE_TILE];
        for (bi, row) in acc.iter_mut().enumerate() {
            let yr = &y[(b0 + bi) * n + j..];
            row[0] = L::load(yr);
            row[1] = L::load(&yr[L::WIDTH..]);
        }
        let lanes = x0.iter().zip(x1.iter()).zip(x2.iter()).zip(x3.iter());
        for ((((&a0, &a1), &a2), &a3), wr) in lanes.zip(block.chunks_exact(pw)) {
            let ws = &wr[c0..c0 + st];
            let w0 = L::load(ws);
            let w1 = L::load(&ws[L::WIDTH..]);
            let v0 = L::splat(a0);
            acc[0][0] = acc[0][0].fmac(v0, w0);
            acc[0][1] = acc[0][1].fmac(v0, w1);
            let v1 = L::splat(a1);
            acc[1][0] = acc[1][0].fmac(v1, w0);
            acc[1][1] = acc[1][1].fmac(v1, w1);
            let v2 = L::splat(a2);
            acc[2][0] = acc[2][0].fmac(v2, w0);
            acc[2][1] = acc[2][1].fmac(v2, w1);
            let v3 = L::splat(a3);
            acc[3][0] = acc[3][0].fmac(v3, w0);
            acc[3][1] = acc[3][1].fmac(v3, w1);
        }
        for (bi, row) in acc.iter().enumerate() {
            let yr = &mut y[(b0 + bi) * n + j..];
            row[0].store(yr);
            row[1].store(&mut yr[L::WIDTH..]);
        }
        b0 += LANE_TILE;
    }
    // Leftover batch rows, one at a time on the same column tile.
    for b in b0..batch {
        let x_row = &x[b * k_dim..(b + 1) * k_dim];
        let yr = &y[b * n + j..];
        let mut a0 = L::load(yr);
        let mut a1 = L::load(&yr[L::WIDTH..]);
        for (&xv, wr) in x_row.iter().zip(block.chunks_exact(pw)) {
            let ws = &wr[c0..c0 + st];
            let v = L::splat(xv);
            a0 = a0.fmac(v, L::load(ws));
            a1 = a1.fmac(v, L::load(&ws[L::WIDTH..]));
        }
        let yr = &mut y[b * n + j..];
        a0.store(yr);
        a1.store(&mut yr[L::WIDTH..]);
    }
}

/// A full-width panel of [`gemm_block`] for the scalar backend:
/// [`PANEL_WIDTH`]-wide element-array accumulators instead of two
/// one-element "vectors". Per output element the `k` order and `fmac`
/// policy are identical to the vector tiles, so results stay bitwise equal
/// — this path exists purely so non-SIMD targets (and the force-scalar CI
/// job) keep the register-tiled shape the pre-dispatch kernel had.
#[inline(always)]
fn gemm_dense_scalar_tile<L: Lanes>(
    batch: usize,
    x: &[L::Elem],
    k_dim: usize,
    n: usize,
    y: &mut [L::Elem],
    j0: usize,
    packed: &[L::Elem],
) {
    const LT: usize = LANE_TILE;
    const JT: usize = PANEL_WIDTH;
    let mut b0 = 0;
    while b0 + LT <= batch {
        let (x01, x23) = x[b0 * k_dim..(b0 + 4) * k_dim].split_at(2 * k_dim);
        let (x0, x1) = x01.split_at(k_dim);
        let (x2, x3) = x23.split_at(k_dim);
        let mut acc = [[L::Elem::ZERO; JT]; LT];
        for (bi, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&y[(b0 + bi) * n + j0..(b0 + bi) * n + j0 + JT]);
        }
        let lanes = x0.iter().zip(x1.iter()).zip(x2.iter()).zip(x3.iter());
        for ((((&a0, &a1), &a2), &a3), wr) in lanes.zip(packed.chunks_exact(JT)) {
            // PANIC: `chunks_exact(JT)` yields slices of exactly JT elements.
            let ws: &[L::Elem; JT] = wr.try_into().expect("packed column tile");
            for (a, &wj) in acc[0].iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, a0, wj);
            }
            for (a, &wj) in acc[1].iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, a1, wj);
            }
            for (a, &wj) in acc[2].iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, a2, wj);
            }
            for (a, &wj) in acc[3].iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, a3, wj);
            }
        }
        for (bi, row) in acc.iter().enumerate() {
            y[(b0 + bi) * n + j0..(b0 + bi) * n + j0 + JT].copy_from_slice(row);
        }
        b0 += LT;
    }
    for b in b0..batch {
        let x_row = &x[b * k_dim..(b + 1) * k_dim];
        let mut acc = [L::Elem::ZERO; JT];
        acc.copy_from_slice(&y[b * n + j0..b * n + j0 + JT]);
        for (&xv, wr) in x_row.iter().zip(packed.chunks_exact(JT)) {
            // PANIC: `chunks_exact(JT)` yields slices of exactly JT elements.
            let ws: &[L::Elem; JT] = wr.try_into().expect("packed column tile");
            for (a, &wj) in acc.iter_mut().zip(ws.iter()) {
                *a = L::fmac_e(*a, xv, wj);
            }
        }
        y[b * n + j0..b * n + j0 + JT].copy_from_slice(&acc);
    }
}

/// `dw[i][j] += Σ_b x[b][i]·dy[b][j]` — the batched outer-product gradient
/// accumulation `dW += Xᵀ·dY` (with `batch == 1` it is the rank-1
/// `outer_acc` the scalar backward used per timestep). Implemented by
/// packing the transpose of `x` and running [`gemm_sparse_body`] over it:
/// per output element the `b` contributions accumulate in ascending order,
/// zero entries of `x` are skipped and exact ones take the plain-add path,
/// so SIMD ≡ scalar stays bitwise per FMA policy under exactly the sparse
/// gemm's contract — and one-hot training inputs stay nearly free.
#[inline(always)]
pub(crate) fn outer_acc_body<L: Lanes>(
    batch: usize,
    x: &[L::Elem],
    k_dim: usize,
    dy: &[L::Elem],
    n: usize,
    dw: &mut [L::Elem],
    pack: &mut Vec<L::Elem>,
) {
    debug_assert_eq!(x.len(), batch * k_dim);
    debug_assert_eq!(dy.len(), batch * n);
    debug_assert_eq!(dw.len(), k_dim * n);
    if pack.len() < k_dim * batch {
        pack.resize(k_dim * batch, L::Elem::ZERO);
    }
    let xt = &mut pack[..k_dim * batch];
    for (b, x_row) in x.chunks_exact(k_dim).enumerate() {
        for (i, &xi) in x_row.iter().enumerate() {
            xt[i * batch + b] = xi;
        }
    }
    gemm_sparse_body::<L>(k_dim, xt, batch, dy, n, dw)
}

/// `y += a * x` under the lane type's FMA policy.
#[inline(always)]
pub(crate) fn axpy_body<L: Lanes>(a: L::Elem, x: &[L::Elem], y: &mut [L::Elem]) {
    debug_assert_eq!(x.len(), y.len());
    let av = L::splat(a);
    let n = y.len();
    let mut j = 0;
    while j + L::WIDTH <= n {
        L::load(&y[j..])
            .fmac(av, L::load(&x[j..]))
            .store(&mut y[j..]);
        j += L::WIDTH;
    }
    while j < n {
        y[j] = L::fmac_e(y[j], a, x[j]);
        j += 1;
    }
}

/// In-place lanewise sigmoid (remainder elements run the scalar
/// instantiation of the same math, which is bitwise identical).
#[inline(always)]
pub(crate) fn sigmoid_body<L: F32Lanes>(xs: &mut [f32]) {
    let n = xs.len();
    let mut j = 0;
    while j + L::WIDTH <= n {
        math::sigmoid_lanes::<L>(L::load(&xs[j..])).store(&mut xs[j..]);
        j += L::WIDTH;
    }
    for v in &mut xs[j..] {
        *v = math::sigmoid(*v);
    }
}

/// In-place lanewise tanh.
#[inline(always)]
pub(crate) fn tanh_body<L: F32Lanes>(xs: &mut [f32]) {
    let n = xs.len();
    let mut j = 0;
    while j + L::WIDTH <= n {
        math::tanh_lanes::<L>(L::load(&xs[j..])).store(&mut xs[j..]);
        j += L::WIDTH;
    }
    for v in &mut xs[j..] {
        *v = math::tanh(*v);
    }
}

/// The LSTM memory-cell update `c = f⊙c + i⊙g; h = o⊙tanh(c)`, with the
/// cell products kept as plain mul/add (never contracted — matching the
/// historical scalar cell loop). Optionally writes `tanh(c)` to `tc` (the
/// training path caches it for backprop).
#[inline(always)]
pub(crate) fn lstm_cell_body<L: F32Lanes>(
    i_g: &[f32],
    f_g: &[f32],
    o_g: &[f32],
    g_g: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    mut tc: Option<&mut [f32]>,
) {
    let hd = c.len();
    debug_assert!(
        i_g.len() == hd && f_g.len() == hd && o_g.len() == hd && g_g.len() == hd && h.len() == hd
    );
    if let Some(tc) = tc.as_deref() {
        debug_assert_eq!(tc.len(), hd);
    }
    let mut j = 0;
    while j + L::WIDTH <= hd {
        let cv = L::load(&f_g[j..])
            .mul(L::load(&c[j..]))
            .add(L::load(&i_g[j..]).mul(L::load(&g_g[j..])));
        cv.store(&mut c[j..]);
        let t = math::tanh_lanes::<L>(cv);
        if let Some(tc) = tc.as_deref_mut() {
            t.store(&mut tc[j..]);
        }
        L::load(&o_g[j..]).mul(t).store(&mut h[j..]);
        j += L::WIDTH;
    }
    while j < hd {
        let cv = f_g[j] * c[j] + i_g[j] * g_g[j];
        c[j] = cv;
        let t = math::tanh(cv);
        if let Some(tc) = tc.as_deref_mut() {
            tc[j] = t;
        }
        h[j] = o_g[j] * t;
        j += 1;
    }
}

// Named generic wrappers with the uniform signatures the dispatcher and
// the `#[target_feature]` entry points share.

#[inline(always)]
pub(crate) fn gemm_sparse_f32<L: Lanes<Elem = f32>>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    w: &[f32],
    n: usize,
    y: &mut [f32],
) {
    gemm_sparse_body::<L>(batch, x, k_dim, w, n, y)
}

#[inline(always)]
pub(crate) fn gemm_panels_f32<L: Lanes<Elem = f32>>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    panels: &[f32],
    n: usize,
    y: &mut [f32],
) {
    gemm_panels_body::<L>(batch, x, k_dim, panels, n, y)
}

#[inline(always)]
pub(crate) fn outer_acc_f32<L: Lanes<Elem = f32>>(
    batch: usize,
    x: &[f32],
    k_dim: usize,
    dy: &[f32],
    n: usize,
    dw: &mut [f32],
    pack: &mut Vec<f32>,
) {
    outer_acc_body::<L>(batch, x, k_dim, dy, n, dw, pack)
}

#[inline(always)]
pub(crate) fn axpy_f32<L: Lanes<Elem = f32>>(a: f32, x: &[f32], y: &mut [f32]) {
    axpy_body::<L>(a, x, y)
}

#[inline(always)]
pub(crate) fn sigmoid_f32<L: F32Lanes>(xs: &mut [f32]) {
    sigmoid_body::<L>(xs)
}

#[inline(always)]
pub(crate) fn tanh_f32<L: F32Lanes>(xs: &mut [f32]) {
    tanh_body::<L>(xs)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn lstm_cell_f32<L: F32Lanes>(
    i_g: &[f32],
    f_g: &[f32],
    o_g: &[f32],
    g_g: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    tc: Option<&mut [f32]>,
) {
    lstm_cell_body::<L>(i_g, f_g, o_g, g_g, c, h, tc)
}

#[inline(always)]
pub(crate) fn gemm_sparse_f64<L: Lanes<Elem = f64>>(
    batch: usize,
    x: &[f64],
    k_dim: usize,
    w: &[f64],
    n: usize,
    y: &mut [f64],
) {
    gemm_sparse_body::<L>(batch, x, k_dim, w, n, y)
}

#[inline(always)]
pub(crate) fn batch_matvec_f64<L: Lanes<Elem = f64>>(
    batch: usize,
    xs: &[f64],
    k_dim: usize,
    a: &[f64],
    rows: usize,
    y: &mut [f64],
    pack: &mut Vec<f64>,
) {
    // The "weights" are the matrix rows: each panel-wide block of rows is
    // transposed into the pack per call (strided reads), then run through
    // the same panel kernel as the f32 gemm.
    if pack.len() < k_dim * PANEL_WIDTH {
        pack.resize(k_dim * PANEL_WIDTH, 0.0);
    }
    let mut j0 = 0;
    while j0 < rows {
        let pw = PANEL_WIDTH.min(rows - j0);
        let block = &mut pack[..k_dim * pw];
        pack_block(block, k_dim, j0, pw, &|k, j| a[j * k_dim + k]);
        gemm_block::<L>(batch, xs, k_dim, rows, y, j0, block, pw);
        j0 += pw;
    }
}

/// The x86 entry points: one module per backend, each compiled with that
/// backend's target features so the intrinsics (and the generic bodies,
/// which are `#[inline(always)]`) codegen with the right instruction set
/// even in portable builds.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub(crate) mod x86_entries {
    #![allow(unsafe_code)]
    // SAFETY throughout this module: every `pub(crate) unsafe fn` below has
    // the single safety requirement that the CPU supports the module's
    // target features; the dispatcher in `lib.rs` only routes here after
    // `is_x86_feature_detected!` confirmed them.

    use crate::x86::*;

    macro_rules! backend_entries {
        ($mod_name:ident, $feat:literal, $f32ty:ty, $f64ty:ty) => {
            pub(crate) mod $mod_name {
                use super::*;

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn gemm_sparse_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    w: &[f32],
                    n: usize,
                    y: &mut [f32],
                ) {
                    super::super::gemm_sparse_f32::<$f32ty>(batch, x, k_dim, w, n, y)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn gemm_panels_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    panels: &[f32],
                    n: usize,
                    y: &mut [f32],
                ) {
                    super::super::gemm_panels_f32::<$f32ty>(batch, x, k_dim, panels, n, y)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn outer_acc_f32(
                    batch: usize,
                    x: &[f32],
                    k_dim: usize,
                    dy: &[f32],
                    n: usize,
                    dw: &mut [f32],
                    pack: &mut Vec<f32>,
                ) {
                    super::super::outer_acc_f32::<$f32ty>(batch, x, k_dim, dy, n, dw, pack)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn axpy_f32(a: f32, x: &[f32], y: &mut [f32]) {
                    super::super::axpy_f32::<$f32ty>(a, x, y)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn sigmoid_f32(xs: &mut [f32]) {
                    super::super::sigmoid_f32::<$f32ty>(xs)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn tanh_f32(xs: &mut [f32]) {
                    super::super::tanh_f32::<$f32ty>(xs)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub(crate) unsafe fn lstm_cell_f32(
                    i_g: &[f32],
                    f_g: &[f32],
                    o_g: &[f32],
                    g_g: &[f32],
                    c: &mut [f32],
                    h: &mut [f32],
                    tc: Option<&mut [f32]>,
                ) {
                    super::super::lstm_cell_f32::<$f32ty>(i_g, f_g, o_g, g_g, c, h, tc)
                }

                // The f64 kernels carry no FMA policy, so the dispatcher
                // routes them through one module per lane width; the
                // duplicate `sse2_fma` instantiations go unused.
                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[allow(dead_code)]
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn gemm_sparse_f64(
                    batch: usize,
                    x: &[f64],
                    k_dim: usize,
                    w: &[f64],
                    n: usize,
                    y: &mut [f64],
                ) {
                    super::super::gemm_sparse_f64::<$f64ty>(batch, x, k_dim, w, n, y)
                }

                // SAFETY: module contract — `$feat` confirmed before dispatch.
                #[allow(dead_code)]
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn batch_matvec_f64(
                    batch: usize,
                    xs: &[f64],
                    k_dim: usize,
                    a: &[f64],
                    rows: usize,
                    y: &mut [f64],
                    pack: &mut Vec<f64>,
                ) {
                    super::super::batch_matvec_f64::<$f64ty>(batch, xs, k_dim, a, rows, y, pack)
                }
            }
        };
    }

    backend_entries!(sse2_plain, "sse2", Sse2F32<false>, Sse2F64);
    backend_entries!(sse2_fma, "sse2,fma", Sse2F32<true>, Sse2F64);
    backend_entries!(avx2, "avx2,fma", Avx2F32, Avx2F64);
    backend_entries!(avx512, "avx512f,fma", Avx512F32, Avx512F64);
}
