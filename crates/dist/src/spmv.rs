//! Distributed SpMV, residuals, norms and dot products (Fig. 3b).
//!
//! `y = A x` splits into the local product with the block-diagonal part
//! and the product of the off-diagonal part with the gathered external
//! vector. The fused residual + norm kernel mirrors the single-node §3.3
//! optimization, with the norm finished by one all-reduce.
//!
//! Each kernel is written once, over `k` row-major interleaved lanes
//! (`data[i * k + j]`, the [`famg_sparse::MultiVec`] layout), and
//! monomorphized on the lane count by [`famg_sparse::lanes!`]. A plain
//! `&[f64]` vector is the `k = 1` instance: the scalar entry points below
//! are one-line calls of it, and at `K = 1` every lane access compiles to
//! a plain scalar index. Every width performs the same operations per
//! lane (ascending stored entries from the same initial accumulator), so
//! lane `j` of a `k`-wide call is bitwise equal to a `k = 1` call on
//! column `j`, while one halo exchange and one all-reduce serve all `k`
//! lanes.
//!
//! Every kernel runs in one of two halo modes selected by its `overlap`
//! flag: *synchronous* (halo exchanged up front) or *overlapped* (halo
//! posted, the block-diagonal part of every row computed while it is in
//! flight, the off-diagonal part of the boundary rows after `finish`).
//! Both modes run the same two passes with identical per-row arithmetic
//! (a row's partial result is stored between them exactly), so their
//! results are bitwise equal; overlap only changes *when* the wait
//! happens.

use crate::comm::Comm;
use crate::halo::VectorExchange;
use crate::parcsr::ParCsr;
use famg_core::solver::SolveError;
use famg_sparse::{lanes, Csr};

/// Most lanes one kernel pass holds in stack accumulators. The dynamic
/// instance (`K == 0`) covers a wider block in several passes of at most
/// this many lanes; lanes never interact, so the split cannot change any
/// lane's arithmetic.
pub(crate) const MAX_LANES: usize = 8;

/// The lanes `j0..j0 + w` of a row-major block of width `k` that one
/// kernel pass works on. A const `K != 0` fixes `k = w = K` and `j0 = 0`
/// at compile time.
#[derive(Clone, Copy)]
pub(crate) struct Lanes<const K: usize> {
    k: usize,
    j0: usize,
    w: usize,
}

impl<const K: usize> Lanes<K> {
    /// The passes covering all `k` lanes: one at a const width, one per
    /// [`MAX_LANES`] lanes for the dynamic instance.
    pub(crate) fn cover(k: usize) -> impl Iterator<Item = Self> {
        debug_assert!(K == 0 || K == k);
        (0..k).step_by(MAX_LANES).map(move |j0| Lanes {
            k,
            j0,
            w: (k - j0).min(MAX_LANES),
        })
    }

    /// Lanes in this pass.
    #[inline(always)]
    pub(crate) fn w(self) -> usize {
        if K == 0 {
            self.w
        } else {
            K
        }
    }

    /// Row stride of the block.
    #[inline(always)]
    fn stride(self) -> usize {
        if K == 0 {
            self.k
        } else {
            K
        }
    }

    /// This pass's lanes as block columns.
    fn cols(self) -> std::ops::Range<usize> {
        let j0 = if K == 0 { self.j0 } else { 0 };
        j0..j0 + self.w()
    }

    /// This pass's lanes of row `i` of `d`.
    #[inline(always)]
    pub(crate) fn row(self, d: &[f64], i: usize) -> &[f64] {
        let o = i * self.stride() + self.cols().start;
        &d[o..o + self.w()]
    }

    /// This pass's lanes of row `i` of `d`, mutably.
    #[inline(always)]
    pub(crate) fn row_mut(self, d: &mut [f64], i: usize) -> &mut [f64] {
        let o = i * self.stride() + self.cols().start;
        &mut d[o..o + self.w()]
    }
}

/// Returns a typed dimension-mismatch error unless `expected == got`.
pub(crate) fn dim(expected: usize, got: usize, what: &'static str) -> Result<(), SolveError> {
    if expected == got {
        Ok(())
    } else {
        Err(SolveError::DimensionMismatch {
            expected,
            got,
            what,
        })
    }
}

/// Validates the operator/plan/vector shapes shared by the kernels.
fn check_kernel_dims(
    a: &ParCsr,
    plan: &VectorExchange,
    x_len: usize,
    k: usize,
) -> Result<(), SolveError> {
    dim(a.diag.ncols() * k, x_len, "local x (owned columns)")?;
    dim(a.offd.ncols(), plan.ext_len(), "halo plan external length")
}

/// `y = A_diag x` on every owned row, each lane from a zero accumulator.
fn diag_rows<const K: usize>(diag: &Csr, x: &[f64], k: usize, y: &mut [f64]) {
    for ln in Lanes::<K>::cover(k) {
        let w = ln.w();
        for i in 0..diag.nrows() {
            let mut acc = [0.0f64; MAX_LANES];
            for (c, v) in diag.row_iter(i) {
                let xr = ln.row(x, c);
                for j in 0..w {
                    acc[j] += v * xr[j];
                }
            }
            ln.row_mut(y, i).copy_from_slice(&acc[..w]);
        }
    }
}

/// `y += A_offd ext` on `rows`: each row's off-diagonal sum accumulates
/// on its own and is then added to the diag product, the block order of
/// `famg_sparse::spmv::spmv_seq`.
fn offd_add_rows<const K: usize>(offd: &Csr, rows: &[usize], ext: &[f64], k: usize, y: &mut [f64]) {
    for ln in Lanes::<K>::cover(k) {
        let w = ln.w();
        for &i in rows {
            let mut acc = [0.0f64; MAX_LANES];
            for (e, v) in offd.row_iter(i) {
                let er = ln.row(ext, e);
                for j in 0..w {
                    acc[j] += v * er[j];
                }
            }
            for (yj, aj) in ln.row_mut(y, i).iter_mut().zip(&acc) {
                *yj += aj;
            }
        }
    }
}

/// `r = b - A_diag x` on every owned row.
fn diag_residual_rows<const K: usize>(diag: &Csr, x: &[f64], b: &[f64], k: usize, r: &mut [f64]) {
    for ln in Lanes::<K>::cover(k) {
        let w = ln.w();
        for i in 0..diag.nrows() {
            let mut acc = [0.0f64; MAX_LANES];
            acc[..w].copy_from_slice(ln.row(b, i));
            for (c, v) in diag.row_iter(i) {
                let xr = ln.row(x, c);
                for j in 0..w {
                    acc[j] -= v * xr[j];
                }
            }
            ln.row_mut(r, i).copy_from_slice(&acc[..w]);
        }
    }
}

/// `r -= A_offd ext` on `rows`, entry by entry: continues each row's
/// residual accumulation where [`diag_residual_rows`] stored it.
fn offd_sub_rows<const K: usize>(offd: &Csr, rows: &[usize], ext: &[f64], k: usize, r: &mut [f64]) {
    for ln in Lanes::<K>::cover(k) {
        let w = ln.w();
        for &i in rows {
            let mut acc = [0.0f64; MAX_LANES];
            acc[..w].copy_from_slice(ln.row(r, i));
            for (e, v) in offd.row_iter(i) {
                let er = ln.row(ext, e);
                for j in 0..w {
                    acc[j] -= v * er[j];
                }
            }
            ln.row_mut(r, i).copy_from_slice(&acc[..w]);
        }
    }
}

/// Per-lane `out[j] = Σᵢ x[i,j]·y[i,j]` in ascending row order, folded
/// from `-0.0` like `Iterator::sum` (and so `vecops::dot_seq`).
fn lane_dots<const K: usize>(x: &[f64], y: &[f64], k: usize, out: &mut [f64]) {
    for ln in Lanes::<K>::cover(k) {
        let (w, j0) = (ln.w(), ln.cols().start);
        let mut acc = [-0.0f64; MAX_LANES];
        for (xr, yr) in x.chunks_exact(ln.stride()).zip(y.chunks_exact(ln.stride())) {
            for j in 0..w {
                acc[j] += xr[j0 + j] * yr[j0 + j];
            }
        }
        out[ln.cols()].copy_from_slice(&acc[..w]);
    }
}

/// Rank-local per-lane dot products of two `k`-lane blocks.
fn local_dots(x: &[f64], y: &[f64], k: usize, out: &mut [f64]) {
    // PANIC-FREE: shape asserts guard the caller contract at the kernel
    // boundary; the try_* drivers validate block shapes before calling.
    assert_eq!(x.len(), y.len());
    assert_eq!(out.len(), k); // PANIC-FREE: same caller contract
    lanes!(k, lane_dots(x, y, k, out));
}

/// Finishes per-lane rank-local sums with one vector all-reduce, so the
/// collective count is independent of the width.
fn allreduce_lanes(comm: &Comm, sums: &mut [f64], tag: u64) {
    // ALLOC: k-sized partial sums — the all-reduce owns them as the
    // message payload.
    let global = comm.allreduce_sum_vec(sums.to_vec(), tag);
    sums.copy_from_slice(&global);
}

/// `Y = A X` over `k` lanes using a pre-planned halo exchange: one
/// envelope per neighbor at any width, one matrix traversal per row.
pub(crate) fn spmv_lanes(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x: &[f64],
    k: usize,
    y: &mut [f64],
    overlap: bool,
) -> Result<(), SolveError> {
    check_kernel_dims(a, plan, x.len(), k)?;
    dim(a.local_rows() * k, y.len(), "local y (owned rows)")?;
    let halo = plan.start(comm, x, k, overlap);
    lanes!(k, diag_rows(&a.diag, x, k, y));
    let ext = halo.finish(comm);
    lanes!(k, offd_add_rows(&a.offd, &a.boundary_rows, &ext, k, y));
    Ok(())
}

/// `R = B - A X` over `k` lanes with one halo exchange and no norm, so no
/// global reduction: on V-cycle levels the halo is the entire
/// communication.
pub(crate) fn residual_lanes(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x: &[f64],
    b: &[f64],
    k: usize,
    r: &mut [f64],
    overlap: bool,
) -> Result<(), SolveError> {
    check_kernel_dims(a, plan, x.len(), k)?;
    dim(a.local_rows() * k, b.len(), "local right-hand side")?;
    dim(a.local_rows() * k, r.len(), "local residual")?;
    let halo = plan.start(comm, x, k, overlap);
    lanes!(k, diag_residual_rows(&a.diag, x, b, k, r));
    let ext = halo.finish(comm);
    lanes!(k, offd_sub_rows(&a.offd, &a.boundary_rows, &ext, k, r));
    Ok(())
}

/// Fused residual + norm over `k` lanes: writes the *global* squared
/// residual norm of each lane to `norm_sq`, finished by one all-reduce
/// at any width.
pub(crate) fn residual_norm_sq_lanes(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x: &[f64],
    b: &[f64],
    k: usize,
    r: &mut [f64],
    overlap: bool,
    norm_sq: &mut [f64],
) -> Result<(), SolveError> {
    residual_lanes(comm, a, plan, x, b, k, r, overlap)?;
    local_dots(r, r, k, norm_sq);
    allreduce_lanes(comm, norm_sq, 0x40);
    Ok(())
}

/// Global per-lane dot products of two `k`-lane blocks (one all-reduce).
pub(crate) fn dist_dot_lanes(comm: &Comm, x: &[f64], y: &[f64], k: usize, out: &mut [f64]) {
    local_dots(x, y, k, out);
    allreduce_lanes(comm, out, 0x41);
}

/// Global per-lane 2-norms of a `k`-lane block (one all-reduce).
pub(crate) fn dist_norm2_lanes(comm: &Comm, x: &[f64], k: usize, out: &mut [f64]) {
    dist_dot_lanes(comm, x, x, k, out);
    for o in out {
        *o = o.sqrt();
    }
}

/// `y = A x` using a pre-planned halo exchange (synchronous halo).
///
/// # Panics
/// Panics on mis-sized vectors or a plan that does not match `a`'s
/// off-diagonal block; use [`try_dist_spmv`] for a typed error.
pub fn dist_spmv(comm: &Comm, a: &ParCsr, plan: &VectorExchange, x_local: &[f64], y: &mut [f64]) {
    try_dist_spmv(comm, a, plan, x_local, y, false)
        .unwrap_or_else(|e| panic!("famg dist_spmv: {e}"));
}

/// [`dist_spmv`] with typed shape errors and a selectable halo mode:
/// with `overlap` the block-diagonal product is computed while the halo
/// is in flight (bitwise-identical result, see module docs).
pub fn try_dist_spmv(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x_local: &[f64],
    y: &mut [f64],
    overlap: bool,
) -> Result<(), SolveError> {
    spmv_lanes(comm, a, plan, x_local, 1, y, overlap)
}

/// Distributed residual only: `r = b - A x` with no global reduction —
/// one halo exchange is the entire communication. Returns the *local*
/// squared norm so callers that do want the global value can finish it
/// with one all-reduce (see [`dist_residual_norm_sq`]).
///
/// # Panics
/// Panics on mis-sized vectors or a mismatched plan; use
/// [`try_dist_residual`] for a typed error.
pub fn dist_residual(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x_local: &[f64],
    b_local: &[f64],
    r: &mut [f64],
) -> f64 {
    try_dist_residual(comm, a, plan, x_local, b_local, r, false)
        .unwrap_or_else(|e| panic!("famg dist_residual: {e}"))
}

/// [`dist_residual`] with typed shape errors and a selectable halo mode.
/// The local squared norm is accumulated over `r` in ascending row order,
/// so synchronous and overlapped runs return bitwise-equal values.
pub fn try_dist_residual(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x_local: &[f64],
    b_local: &[f64],
    r: &mut [f64],
    overlap: bool,
) -> Result<f64, SolveError> {
    residual_lanes(comm, a, plan, x_local, b_local, 1, r, overlap)?;
    let mut norm_sq = [0.0];
    local_dots(r, r, 1, &mut norm_sq);
    Ok(norm_sq[0])
}

/// Fused distributed residual: `r = b - A x` with `‖r‖²` reduced across
/// ranks in a single collective. Returns the *global* squared norm.
///
/// # Panics
/// Panics on mis-sized vectors or a mismatched plan; use
/// [`try_dist_residual_norm_sq`] for a typed error.
pub fn dist_residual_norm_sq(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x_local: &[f64],
    b_local: &[f64],
    r: &mut [f64],
) -> f64 {
    try_dist_residual_norm_sq(comm, a, plan, x_local, b_local, r, false)
        .unwrap_or_else(|e| panic!("famg dist_residual_norm_sq: {e}"))
}

/// [`dist_residual_norm_sq`] with typed shape errors and a selectable
/// halo mode.
pub fn try_dist_residual_norm_sq(
    comm: &Comm,
    a: &ParCsr,
    plan: &VectorExchange,
    x_local: &[f64],
    b_local: &[f64],
    r: &mut [f64],
    overlap: bool,
) -> Result<f64, SolveError> {
    let mut norm_sq = [0.0];
    residual_norm_sq_lanes(comm, a, plan, x_local, b_local, 1, r, overlap, &mut norm_sq)?;
    Ok(norm_sq[0])
}

/// Distributed dot product (one all-reduce).
pub fn dist_dot(comm: &Comm, x: &[f64], y: &[f64]) -> f64 {
    let mut d = [0.0];
    dist_dot_lanes(comm, x, y, 1, &mut d);
    d[0]
}

/// Distributed 2-norm.
pub fn dist_norm2(comm: &Comm, x: &[f64]) -> f64 {
    let mut n = [0.0];
    dist_norm2_lanes(comm, x, 1, &mut n);
    n[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::parcsr::default_partition;
    use famg_matgen::{laplace2d, rhs};
    use famg_sparse::MultiVec;

    #[test]
    fn dist_spmv_matches_serial() {
        let a = laplace2d(10, 10);
        let n = a.nrows();
        let x = rhs::random(n, 3);
        let mut y_ref = vec![0.0; n];
        famg_sparse::spmv::spmv_seq(&a, &x, &mut y_ref);
        for nranks in [1usize, 2, 3, 5] {
            let starts = default_partition(n, nranks);
            let (results, _) = run_ranks(nranks, |c| {
                let r = c.rank();
                let p = ParCsr::from_global_rows(&a, starts[r], starts[r + 1], starts.clone(), r);
                let xl = x[starts[r]..starts[r + 1]].to_vec();
                let plan = VectorExchange::plan(c, &p.colmap, &starts);
                let mut y = vec![0.0; p.local_rows()];
                dist_spmv(c, &p, &plan, &xl, &mut y);
                y
            });
            let y: Vec<f64> = results.concat();
            for (u, v) in y.iter().zip(&y_ref) {
                assert!((u - v).abs() < 1e-12, "nranks {nranks}");
            }
        }
    }

    #[test]
    fn dist_residual_matches_serial() {
        let a = laplace2d(9, 7);
        let n = a.nrows();
        let x = rhs::random(n, 5);
        let b = rhs::random(n, 6);
        let mut r_ref = vec![0.0; n];
        let norm_ref = famg_sparse::spmv::residual_norm_sq(&a, &x, &b, &mut r_ref);
        let starts = default_partition(n, 3);
        let (results, _) = run_ranks(3, |c| {
            let rk = c.rank();
            let p = ParCsr::from_global_rows(&a, starts[rk], starts[rk + 1], starts.clone(), rk);
            let xl = x[starts[rk]..starts[rk + 1]].to_vec();
            let bl = b[starts[rk]..starts[rk + 1]].to_vec();
            let plan = VectorExchange::plan(c, &p.colmap, &starts);
            let mut r = vec![0.0; p.local_rows()];
            let nsq = dist_residual_norm_sq(c, &p, &plan, &xl, &bl, &mut r);
            (nsq, r)
        });
        for (nsq, _) in &results {
            assert!((nsq - norm_ref).abs() < 1e-9 * norm_ref.max(1.0));
        }
        let r: Vec<f64> = results.into_iter().flat_map(|(_, r)| r).collect();
        for (u, v) in r.iter().zip(&r_ref) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    /// The k-lane SpMV, residual norm and dot at widths covering every
    /// const arm and the dynamic fallback (k = 3, 9): each lane bitwise
    /// identical to the `k = 1` instance on that column, in both halo
    /// modes, with the message count of a single `k = 1` exchange.
    #[test]
    fn dist_multi_kernels_bitwise_match_scalar_columns() {
        let a = laplace2d(10, 8);
        let n = a.nrows();
        let cols_x: Vec<Vec<f64>> = (0..9).map(|j| rhs::random(n, 20 + j as u64)).collect();
        let cols_b: Vec<Vec<f64>> = (0..9).map(|j| rhs::random(n, 30 + j as u64)).collect();
        for nranks in [1usize, 2, 4] {
            let starts = default_partition(n, nranks);
            for overlap in [false, true] {
                run_ranks(nranks, |c| {
                    let rk = c.rank();
                    let (s, e) = (starts[rk], starts[rk + 1]);
                    let p = ParCsr::from_global_rows(&a, s, e, starts.clone(), rk);
                    let plan = VectorExchange::plan(c, &p.colmap, &starts);
                    let nl = p.local_rows();
                    let xl: Vec<Vec<f64>> = cols_x.iter().map(|cx| cx[s..e].to_vec()).collect();
                    let bl: Vec<Vec<f64>> = cols_b.iter().map(|cb| cb[s..e].to_vec()).collect();
                    // The k = 1 instance, column by column.
                    let mut ys = Vec::new();
                    let mut rs = Vec::new();
                    let mut norms_s = Vec::new();
                    let mut dots_s = Vec::new();
                    let mut scalar_msgs = 0u64;
                    for j in 0..9 {
                        let before = c.messages_sent();
                        let mut y = vec![0.0; nl];
                        try_dist_spmv(c, &p, &plan, &xl[j], &mut y, overlap).unwrap();
                        scalar_msgs = c.messages_sent() - before;
                        let mut r = vec![0.0; nl];
                        norms_s.push(
                            try_dist_residual_norm_sq(
                                c, &p, &plan, &xl[j], &bl[j], &mut r, overlap,
                            )
                            .unwrap(),
                        );
                        dots_s.push(dist_dot(c, &xl[j], &bl[j]));
                        ys.push(y);
                        rs.push(r);
                    }
                    for k in [1usize, 3, 4, 8, 9] {
                        let xm = MultiVec::from_columns(&xl[..k]);
                        let bm = MultiVec::from_columns(&bl[..k]);
                        let before = c.messages_sent();
                        let mut ym = MultiVec::new(nl, k);
                        spmv_lanes(c, &p, &plan, xm.data(), k, ym.data_mut(), overlap).unwrap();
                        let msgs = c.messages_sent() - before;
                        assert_eq!(
                            msgs, scalar_msgs,
                            "k {k} nranks {nranks} rank {rk} messages"
                        );
                        let mut rm = MultiVec::new(nl, k);
                        let mut norms = vec![0.0; k];
                        residual_norm_sq_lanes(
                            c,
                            &p,
                            &plan,
                            xm.data(),
                            bm.data(),
                            k,
                            rm.data_mut(),
                            overlap,
                            &mut norms,
                        )
                        .unwrap();
                        let mut dots = vec![0.0; k];
                        dist_dot_lanes(c, xm.data(), bm.data(), k, &mut dots);
                        for j in 0..k {
                            let at = format!(
                                "k {k} nranks {nranks} rank {rk} col {j} overlap {overlap}"
                            );
                            assert_eq!(ym.col(j), ys[j], "spmv {at}");
                            assert_eq!(rm.col(j), rs[j], "resid {at}");
                            assert_eq!(norms[j].to_bits(), norms_s[j].to_bits(), "norm {at}");
                            assert_eq!(dots[j].to_bits(), dots_s[j].to_bits(), "dot {at}");
                        }
                    }
                });
            }
        }
    }

    #[test]
    fn dist_dot_and_norm() {
        let x = rhs::random(30, 1);
        let y = rhs::random(30, 2);
        let d_ref = famg_sparse::vecops::dot_seq(&x, &y);
        let starts = default_partition(30, 4);
        let (results, _) = run_ranks(4, |c| {
            let r = c.rank();
            let xl = &x[starts[r]..starts[r + 1]];
            let yl = &y[starts[r]..starts[r + 1]];
            (dist_dot(c, xl, yl), dist_norm2(c, xl))
        });
        let n_ref = famg_sparse::vecops::norm2(&x);
        for (d, n) in results {
            assert!((d - d_ref).abs() < 1e-12 * d_ref.abs().max(1.0));
            assert!((n - n_ref).abs() < 1e-12 * n_ref.max(1.0));
        }
    }
}
