//! Strided row-major block vectors for the batched multi-RHS solve path.
//!
//! A [`MultiVec`] holds `k` right-hand-side columns interleaved row-major:
//! row `i` occupies `data[i*k .. (i+1)*k]`, so one matrix-row traversal can
//! advance all `k` columns with unit-stride lane access. Column `j` of every
//! batched kernel performs *exactly* the per-row arithmetic (same order,
//! same chunking) as the corresponding single-vector kernel on the extracted
//! column — that is the determinism contract the batched solve path is built
//! on: batch column `j` is bitwise identical to a solo solve of that RHS.
//!
//! The batched level-1 kernels here mirror [`crate::vecops`]: the same
//! fixed 4096-row chunking, the same sequential-below-threshold cutover,
//! and the same linear chunk-order fold, applied lane-wise. Inner loops are
//! monomorphized over k ∈ {1, 2, 4, 8} (fixed-width lane arrays the
//! compiler can keep in registers and vectorize); other widths fall back to
//! a dynamic-lane loop with identical per-lane arithmetic order.

use rayon::prelude::*;

/// Row-chunk length shared with `vecops`; fixed so reductions are
/// reproducible across pool sizes.
const CHUNK: usize = 4096;

/// `k` right-hand-side columns stored interleaved row-major.
///
/// `Default` is the empty `0 × 0` block, so workspace fields can be
/// `std::mem::take`n while their owner stays borrowable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiVec {
    data: Vec<f64>,
    n: usize,
    k: usize,
}

impl MultiVec {
    /// A zero-filled `n × k` block vector.
    // ALLOC: constructor — allocation is the point; each solve-path
    // call site carries its own justification.
    pub fn new(n: usize, k: usize) -> Self {
        MultiVec {
            data: vec![0.0; n * k],
            n,
            k,
        }
    }

    /// Builds a block vector from `k` equal-length columns.
    ///
    /// # Panics
    /// If the columns differ in length.
    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        let k = cols.len();
        let n = cols.first().map_or(0, Vec::len);
        let mut mv = MultiVec::new(n, k);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), n, "column {j} length mismatch");
            mv.set_col(j, col);
        }
        mv
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns (batch width).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The interleaved backing storage (`n * k` values, row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable interleaved backing storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The `k` lanes of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// Mutable lanes of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.k..(i + 1) * self.k]
    }

    /// Extracts column `j` into a fresh vector.
    // ALLOC: returns an owned column; the solve-path use is the
    // convergence-freeze snapshot, justified at its call site.
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.copy_col_into(j, &mut out);
        out
    }

    /// Extracts column `j` into `out` (length `n`).
    pub fn copy_col_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
        assert_eq!(out.len(), self.n); // PANIC-FREE: see above.
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.data[i * self.k + j];
        }
    }

    /// Overwrites column `j` from `src` (length `n`).
    pub fn set_col(&mut self, j: usize, src: &[f64]) {
        assert!(j < self.k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
        assert_eq!(src.len(), self.n); // PANIC-FREE: see above.
        for (i, s) in src.iter().enumerate() {
            self.data[i * self.k + j] = *s;
        }
    }

    /// All columns, extracted.
    pub fn columns(&self) -> Vec<Vec<f64>> {
        (0..self.k).map(|j| self.col(j)).collect()
    }

    /// Sets every entry of every column to `v`.
    pub fn fill(&mut self, v: f64) {
        crate::vecops::fill(&mut self.data, v);
    }

    /// Copies `src` into `self` (shapes must match).
    pub fn copy_from(&mut self, src: &MultiVec) {
        assert_eq!(self.n, src.n); // PANIC-FREE: shape guard; solve buffers are sized at setup.
        assert_eq!(self.k, src.k); // PANIC-FREE: see above.
        crate::vecops::copy(&src.data, &mut self.data);
    }
}

/// Dispatches a k-lane kernel `func::<K>(args)` with a monomorphized lane
/// width for k ∈ {1, 2, 4, 8} and the dynamic instance `K == 0` for any
/// other width. The per-lane arithmetic order is identical in every arm;
/// only code generation differs. Exported for the other kernel crates, so
/// the whole workspace shares one set of monomorphized widths.
#[macro_export]
macro_rules! lanes {
    ($k:expr, $func:ident ( $($arg:expr),* $(,)? )) => {
        match $k {
            1 => $func::<1>($($arg),*),
            2 => $func::<2>($($arg),*),
            4 => $func::<4>($($arg),*),
            8 => $func::<8>($($arg),*),
            _ => $func::<0>($($arg),*),
        }
    };
}

/// Accumulates `acc[j] += x[i,j] * y[i,j]` over `rows`, per-column in
/// ascending row order (the same add sequence `vecops::dot_seq` performs
/// on the extracted column). `K == 0` means "use the dynamic width `k`".
fn dot_rows<const K: usize>(
    xd: &[f64],
    yd: &[f64],
    k: usize,
    rows: std::ops::Range<usize>,
    acc: &mut [f64],
) {
    if K != 0 {
        debug_assert_eq!(K, k);
        let mut a = [0.0f64; 8];
        for i in rows {
            let b = i * K;
            for j in 0..K {
                a[j] += xd[b + j] * yd[b + j];
            }
        }
        // Callers pass zeroed accumulators; plain assignment keeps the
        // column's fold exactly `0.0 + x0*y0 + x1*y1 + …` — the same add
        // sequence as `dot_seq`, with no extra `0.0 +` step.
        acc[..K].copy_from_slice(&a[..K]);
    } else {
        for i in rows {
            let b = i * k;
            for (j, aj) in acc.iter_mut().enumerate() {
                *aj += xd[b + j] * yd[b + j];
            }
        }
    }
}

/// Per-column dot products: `out[j] = x[:,j] · y[:,j]`.
///
/// Bitwise identical, per column, to [`crate::vecops::dot`] on the
/// extracted columns: the same sequential cutover, the same 4096-row
/// chunk partials, and the same linear chunk-order fold.
pub fn dot_batch(x: &MultiVec, y: &MultiVec, out: &mut [f64]) {
    assert_eq!(x.n, y.n); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(x.k, y.k); // PANIC-FREE: see above.
    assert_eq!(out.len(), x.k); // PANIC-FREE: see above.
    let (n, k) = (x.n, x.k);
    out.fill(0.0);
    if k == 0 {
        return;
    }
    if n < 2 * CHUNK {
        lanes!(k, dot_rows(&x.data, &y.data, k, 0..n, out));
        return;
    }
    let nchunks = n.div_ceil(CHUNK);
    let mut partials = vec![0.0f64; nchunks * k]; // ALLOC: per-chunk partials for the ordered combine, O(k·n/CHUNK)
    partials.par_chunks_mut(k).enumerate().for_each(|(ci, p)| {
        let s = ci * CHUNK;
        let e = (s + CHUNK).min(n);
        lanes!(k, dot_rows(&x.data, &y.data, k, s..e, p));
    });
    for chunk in partials.chunks_exact(k) {
        for (o, p) in out.iter_mut().zip(chunk) {
            *o += p;
        }
    }
}

/// Per-column Euclidean norms: `out[j] = ||x[:,j]||`.
pub fn norm2_batch(x: &MultiVec, out: &mut [f64]) {
    let mut sq = vec![0.0; x.k]; // ALLOC: k-sized scratch, not O(n)
    dot_batch(x, x, &mut sq);
    for (o, s) in out.iter_mut().zip(&sq) {
        *o = s.sqrt();
    }
}

fn axpy_rows<const K: usize>(alpha: &[f64], xd: &[f64], yd: &mut [f64], k: usize) {
    if K != 0 {
        debug_assert_eq!(K, k);
        let mut al = [0.0f64; 8];
        al[..K].copy_from_slice(&alpha[..K]);
        for (yr, xr) in yd.chunks_exact_mut(K).zip(xd.chunks_exact(K)) {
            for j in 0..K {
                yr[j] += al[j] * xr[j];
            }
        }
    } else {
        for (yr, xr) in yd.chunks_exact_mut(k).zip(xd.chunks_exact(k)) {
            for j in 0..k {
                yr[j] += alpha[j] * xr[j];
            }
        }
    }
}

/// Per-column `y[:,j] += alpha[j] * x[:,j]`.
///
/// Elementwise (no reduction), so column `j` is bitwise identical to
/// [`crate::vecops::axpy`] on the extracted column.
pub fn axpy_batch(alpha: &[f64], x: &MultiVec, y: &mut MultiVec) {
    assert_eq!(x.n, y.n);
    assert_eq!(x.k, y.k);
    assert_eq!(alpha.len(), x.k);
    let (n, k) = (x.n, x.k);
    if k == 0 {
        return;
    }
    if n < 2 * CHUNK {
        lanes!(k, axpy_rows(alpha, &x.data, &mut y.data, k));
    } else {
        y.data
            .par_chunks_mut(CHUNK * k)
            .zip(x.data.par_chunks(CHUNK * k))
            .for_each(|(cy, cx)| lanes!(k, axpy_rows(alpha, cx, cy, k)));
    }
}

fn xpby_rows<const K: usize>(xd: &[f64], beta: &[f64], yd: &mut [f64], k: usize) {
    if K != 0 {
        debug_assert_eq!(K, k);
        let mut be = [0.0f64; 8];
        be[..K].copy_from_slice(&beta[..K]);
        for (yr, xr) in yd.chunks_exact_mut(K).zip(xd.chunks_exact(K)) {
            for j in 0..K {
                yr[j] = xr[j] + be[j] * yr[j];
            }
        }
    } else {
        for (yr, xr) in yd.chunks_exact_mut(k).zip(xd.chunks_exact(k)) {
            for j in 0..k {
                yr[j] = xr[j] + beta[j] * yr[j];
            }
        }
    }
}

/// Per-column `y[:,j] = x[:,j] + beta[j] * y[:,j]`.
pub fn xpby_batch(x: &MultiVec, beta: &[f64], y: &mut MultiVec) {
    assert_eq!(x.n, y.n);
    assert_eq!(x.k, y.k);
    assert_eq!(beta.len(), x.k);
    let (n, k) = (x.n, x.k);
    if k == 0 {
        return;
    }
    if n < 2 * CHUNK {
        lanes!(k, xpby_rows(&x.data, beta, &mut y.data, k));
    } else {
        y.data
            .par_chunks_mut(CHUNK * k)
            .zip(x.data.par_chunks(CHUNK * k))
            .for_each(|(cy, cx)| lanes!(k, xpby_rows(cx, beta, cy, k)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecops;

    fn wave(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 + seed * 7) % 23) as f64 * 0.125 - 1.0)
            .collect()
    }

    #[test]
    fn layout_round_trips_columns() {
        let cols: Vec<Vec<f64>> = (0..3).map(|j| wave(17, j)).collect();
        let mv = MultiVec::from_columns(&cols);
        assert_eq!(mv.n(), 17);
        assert_eq!(mv.k(), 3);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(&mv.col(j), col);
        }
        assert_eq!(mv.row(5), &[cols[0][5], cols[1][5], cols[2][5]]);
    }

    #[test]
    fn dot_batch_bitwise_matches_solo_dot() {
        // Cross the parallel threshold so the chunked fold is exercised,
        // and cover a monomorphized width (4) and the dynamic fallback (3).
        for (n, k) in [(100, 4), (3 * CHUNK + 17, 4), (2 * CHUNK + 5, 3), (64, 8)] {
            let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
            let yc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j + 10)).collect();
            let x = MultiVec::from_columns(&xc);
            let y = MultiVec::from_columns(&yc);
            let mut out = vec![0.0; k];
            dot_batch(&x, &y, &mut out);
            for j in 0..k {
                let solo = vecops::dot(&xc[j], &yc[j]);
                assert_eq!(out[j].to_bits(), solo.to_bits(), "n={n} k={k} col {j}");
            }
        }
    }

    #[test]
    fn norm2_batch_bitwise_matches_solo() {
        let n = 2 * CHUNK + 100;
        let cols: Vec<Vec<f64>> = (0..2).map(|j| wave(n, j)).collect();
        let x = MultiVec::from_columns(&cols);
        let mut out = vec![0.0; 2];
        norm2_batch(&x, &mut out);
        for j in 0..2 {
            assert_eq!(out[j].to_bits(), vecops::norm2(&cols[j]).to_bits());
        }
    }

    #[test]
    fn axpy_xpby_batch_bitwise_match_solo() {
        for n in [33usize, 2 * CHUNK + 9] {
            let k = 4;
            let alpha: Vec<f64> = (0..k).map(|j| 0.5 + j as f64).collect();
            let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
            let yc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j + 4)).collect();
            let x = MultiVec::from_columns(&xc);
            let mut y = MultiVec::from_columns(&yc);
            axpy_batch(&alpha, &x, &mut y);
            for j in 0..k {
                let mut solo = yc[j].clone();
                vecops::axpy(alpha[j], &xc[j], &mut solo);
                assert_eq!(y.col(j), solo, "axpy col {j}");
            }
            let mut y2 = MultiVec::from_columns(&yc);
            xpby_batch(&x, &alpha, &mut y2);
            for j in 0..k {
                let mut solo = yc[j].clone();
                vecops::xpby(&xc[j], alpha[j], &mut solo);
                assert_eq!(y2.col(j), solo, "xpby col {j}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let x = MultiVec::new(10, 0);
        let y = MultiVec::new(10, 0);
        let mut out = vec![];
        dot_batch(&x, &y, &mut out);
        assert!(out.is_empty());
        assert!(x.columns().is_empty());
    }
}
