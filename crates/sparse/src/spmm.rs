//! Sparse matrix × block-vector products (SpMM) for the batched solve path.
//!
//! Each kernel here is the k-wide twin of a kernel in [`crate::spmv`]: one
//! traversal of the matrix row advances all `k` columns of a [`MultiVec`],
//! so the CSR index/value streams — the bandwidth cost of an SpMV — are
//! read once instead of `k` times. The inner lane loops are monomorphized
//! over k ∈ {1, 2, 4, 8} (fixed-width accumulator arrays the compiler
//! keeps in registers), realizing the paper's 8×-unroll idea (§3.1.1) with
//! genuine data-parallel work per stored entry rather than speculative
//! partial sums.
//!
//! Determinism contract: for every kernel, column `j` of the result is
//! bitwise identical to the corresponding single-vector kernel applied to
//! the extracted column — per-row accumulation walks stored entries in the
//! same ascending order, the fused norms use the same 4096-row chunking
//! and the same linear chunk-order fold.

use crate::csr::Csr;
use crate::lanes;
use crate::multivec::MultiVec;
use rayon::prelude::*;

/// Minimum rows before a kernel goes parallel (same as `spmv`).
const PAR_THRESHOLD: usize = 512;

/// Row-chunk length for the fused deterministic reductions (same as
/// `spmv_dot` / `residual_norm_sq`).
const CHUNK: usize = 4096;

/// `out[j] = Σ_c a[i,c] * x[c,j]`, walking row `i`'s stored entries in
/// ascending order — per column, the identical add sequence to
/// `spmv::row_dot` on the extracted column. `K == 0` selects the
/// dynamic-width fallback.
#[inline]
fn row_dots<const K: usize>(a: &Csr, i: usize, xd: &[f64], k: usize, out: &mut [f64]) {
    if K != 0 {
        debug_assert_eq!(K, k);
        let mut acc = [0.0f64; 8];
        for (c, v) in a.row_iter(i) {
            let b = c * K;
            for j in 0..K {
                acc[j] += v * xd[b + j];
            }
        }
        out[..K].copy_from_slice(&acc[..K]);
    } else {
        out.fill(0.0);
        for (c, v) in a.row_iter(i) {
            let b = c * k;
            for (j, oj) in out.iter_mut().enumerate() {
                *oj += v * xd[b + j];
            }
        }
    }
}

fn check_dims(a: &Csr, x: &MultiVec, y: &MultiVec) {
    assert_eq!(x.n(), a.ncols()); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(y.n(), a.nrows()); // PANIC-FREE: see above.
    assert_eq!(x.k(), y.k()); // PANIC-FREE: see above.
}

/// `Y = A * X` over interleaved block vectors.
pub fn spmm(a: &Csr, x: &MultiVec, y: &mut MultiVec) {
    check_dims(a, x, y);
    let k = x.k();
    spmm_rows(a, x.data(), k, y.data_mut());
}

/// `Y = A * X` on raw interleaved slices (`k` lanes per row); used by the
/// identity-block variants to address sub-blocks of a fine-level vector.
pub fn spmm_rows(a: &Csr, xd: &[f64], k: usize, yd: &mut [f64]) {
    assert_eq!(xd.len(), a.ncols() * k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(yd.len(), a.nrows() * k); // PANIC-FREE: see above.
    if k == 0 {
        return;
    }
    if a.nrows() < PAR_THRESHOLD {
        for (i, yr) in yd.chunks_exact_mut(k).enumerate() {
            lanes!(k, row_dots(a, i, xd, k, yr));
        }
    } else {
        yd.par_chunks_mut(k)
            .enumerate()
            .with_min_len(512)
            .for_each(|(i, yr)| lanes!(k, row_dots(a, i, xd, k, yr)));
    }
}

/// `Y = alpha * A * X + beta * Y` over interleaved block vectors.
pub fn spmm_axpby(a: &Csr, alpha: f64, x: &MultiVec, beta: f64, y: &mut MultiVec) {
    check_dims(a, x, y);
    let k = x.k();
    spmm_axpby_rows(a, alpha, x.data(), beta, k, y.data_mut());
}

/// `spmm_axpby` on raw interleaved slices.
pub fn spmm_axpby_rows(a: &Csr, alpha: f64, xd: &[f64], beta: f64, k: usize, yd: &mut [f64]) {
    assert_eq!(xd.len(), a.ncols() * k); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(yd.len(), a.nrows() * k); // PANIC-FREE: see above.
    if k == 0 {
        return;
    }
    let body = |i: usize, yr: &mut [f64]| {
        if k <= 8 {
            // Row dots land in a fixed stack array, then combine with the
            // prior y values lane-wise.
            let mut v = [0.0f64; 8];
            lanes!(k, row_dots(a, i, xd, k, &mut v[..k]));
            for (j, yj) in yr.iter_mut().enumerate() {
                *yj = alpha * v[j] + beta * *yj;
            }
        } else {
            // Wide fallback: per-column traversal keeps the same ascending
            // per-entry order without heap scratch (k > 8 is outside the
            // monomorphized set and off the hot path).
            for (j, yj) in yr.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (c, w) in a.row_iter(i) {
                    acc += w * xd[c * k + j];
                }
                *yj = alpha * acc + beta * *yj;
            }
        }
    };
    if a.nrows() < PAR_THRESHOLD {
        for (i, yr) in yd.chunks_exact_mut(k).enumerate() {
            body(i, yr);
        }
    } else {
        yd.par_chunks_mut(k)
            .enumerate()
            .with_min_len(512)
            .for_each(|(i, yr)| body(i, yr));
    }
}

/// Fused residual `R = B - A*X` with per-column `||r_j||²` returned in one
/// sweep — the k-wide twin of `spmv::residual_norm_sq`. `norms_sq` must
/// have length `k`; column `j` of both the residual and the norm is
/// bitwise identical to the single-vector kernel on the extracted column
/// (same row chunking, same chunk-order fold).
pub fn spmm_dots(a: &Csr, x: &MultiVec, b: &MultiVec, r: &mut MultiVec, norms_sq: &mut [f64]) {
    check_dims(a, x, r);
    assert_eq!(b.n(), a.nrows()); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(b.k(), x.k()); // PANIC-FREE: see above.
    assert_eq!(norms_sq.len(), x.k()); // PANIC-FREE: see above.
    let k = x.k();
    norms_sq.fill(0.0);
    if k == 0 {
        return;
    }
    let n = a.nrows();
    let (xd, bd) = (x.data(), b.data());
    let rd = r.data_mut();
    // The residual row doubles as the row-dot scratch, so any width works
    // without per-row heap allocation.
    let row_body = |i: usize, rr: &mut [f64], acc: &mut [f64]| {
        lanes!(k, row_dots(a, i, xd, k, rr));
        for (j, rj) in rr.iter_mut().enumerate() {
            let rv = bd[i * k + j] - *rj;
            *rj = rv;
            acc[j] += rv * rv;
        }
    };
    if n < PAR_THRESHOLD {
        for (i, rr) in rd.chunks_exact_mut(k).enumerate() {
            row_body(i, rr, norms_sq);
        }
        return;
    }
    let partials: Vec<Vec<f64>> = rd
        .par_chunks_mut(CHUNK * k)
        .enumerate()
        .map(|(ci, rc)| {
            let base = ci * CHUNK;
            let mut acc = vec![0.0f64; k]; // ALLOC: k-sized lane accumulator per chunk, not O(n)
            for (o, rr) in rc.chunks_exact_mut(k).enumerate() {
                row_body(base + o, rr, &mut acc);
            }
            acc
        })
        .collect(); // ALLOC: per-chunk partials for the ordered combine
    for p in partials {
        for (o, pj) in norms_sq.iter_mut().zip(&p) {
            *o += pj;
        }
    }
}

/// Prolongation with a CF-permuted `P = [I; P_F]`, k-wide:
/// `XF[0..nc] = XC` (identity block) and `XF[nc..] = P_F * XC`.
pub fn interp_apply_multi(pf: &Csr, nc: usize, xc: &MultiVec, xf: &mut MultiVec) {
    let k = xc.k();
    assert_eq!(xc.n(), nc);
    assert_eq!(pf.ncols(), nc);
    assert_eq!(xf.n(), nc + pf.nrows());
    assert_eq!(xf.k(), k);
    let xfd = xf.data_mut();
    xfd[..nc * k].copy_from_slice(xc.data());
    let (_, fine) = xfd.split_at_mut(nc * k);
    spmm_rows(pf, xc.data(), k, fine);
}

/// Prolongation-and-correct, k-wide: `XF += [I; P_F] * XC`.
pub fn interp_apply_add_multi(pf: &Csr, nc: usize, xc: &MultiVec, xf: &mut MultiVec) {
    let k = xc.k();
    assert_eq!(xc.n(), nc); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(pf.ncols(), nc); // PANIC-FREE: see above.
    assert_eq!(xf.n(), nc + pf.nrows()); // PANIC-FREE: see above.
    assert_eq!(xf.k(), k); // PANIC-FREE: see above.
    let xfd = xf.data_mut();
    for (o, c) in xfd[..nc * k].iter_mut().zip(xc.data()) {
        *o += c;
    }
    let (_, fine) = xfd.split_at_mut(nc * k);
    spmm_axpby_rows(pf, 1.0, xc.data(), 1.0, k, fine);
}

/// Restriction with a CF-permuted `R = [I  P_Fᵀ]`, k-wide:
/// `XC = XF[0..nc] + P_Fᵀ * XF[nc..]`.
pub fn restrict_apply_multi(rf: &Csr, nc: usize, xf: &MultiVec, xc: &mut MultiVec) {
    let k = xf.k();
    assert_eq!(rf.nrows(), nc); // PANIC-FREE: shape guard; solve buffers are sized at setup.
    assert_eq!(xf.n(), nc + rf.ncols()); // PANIC-FREE: see above.
    assert_eq!(xc.n(), nc); // PANIC-FREE: see above.
    assert_eq!(xc.k(), k); // PANIC-FREE: see above.
    xc.data_mut().copy_from_slice(&xf.data()[..nc * k]);
    let fine = &xf.data()[nc * k..];
    spmm_axpby_rows(rf, 1.0, fine, 1.0, k, xc.data_mut());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv;

    fn random_csr(nrows: usize, ncols: usize, seed: u64) -> Csr {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut trips = Vec::new();
        for i in 0..nrows {
            for _ in 0..4 {
                let j = (next() as usize) % ncols;
                let v = ((next() % 100) as f64 - 50.0) / 10.0;
                trips.push((i, j, v));
            }
        }
        Csr::from_triplets(nrows, ncols, trips)
    }

    fn wave(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 31 + seed * 7) % 23) as f64 * 0.125 - 1.0)
            .collect()
    }

    #[test]
    fn spmm_bitwise_matches_solo_spmv_per_column() {
        // Below and above PAR_THRESHOLD; monomorphized and dynamic widths.
        for (n, k) in [(60, 4), (2000, 8), (2000, 3), (700, 1)] {
            let a = random_csr(n, n, 11);
            let cols: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
            let x = MultiVec::from_columns(&cols);
            let mut y = MultiVec::new(n, k);
            spmm(&a, &x, &mut y);
            for (j, col) in cols.iter().enumerate() {
                let mut solo = vec![0.0; n];
                spmv::spmv(&a, col, &mut solo);
                assert_eq!(y.col(j), solo, "n={n} k={k} col {j}");
            }
        }
    }

    #[test]
    fn spmm_axpby_bitwise_matches_solo() {
        for (n, k) in [(50, 2), (1800, 4), (900, 5)] {
            let a = random_csr(n, n, 5);
            let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
            let yc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j + k)).collect();
            let x = MultiVec::from_columns(&xc);
            let mut y = MultiVec::from_columns(&yc);
            spmm_axpby(&a, 1.5, &x, -0.5, &mut y);
            for j in 0..k {
                let mut solo = yc[j].clone();
                spmv::spmv_axpby(&a, 1.5, &xc[j], -0.5, &mut solo);
                assert_eq!(y.col(j), solo, "n={n} k={k} col {j}");
            }
        }
    }

    #[test]
    fn spmm_dots_bitwise_matches_residual_norm_sq() {
        for (n, k) in [(100, 4), (5000, 8), (5000, 3)] {
            let a = random_csr(n, n, 23);
            let xc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j)).collect();
            let bc: Vec<Vec<f64>> = (0..k).map(|j| wave(n, j + 17)).collect();
            let x = MultiVec::from_columns(&xc);
            let b = MultiVec::from_columns(&bc);
            let mut r = MultiVec::new(n, k);
            let mut norms = vec![0.0; k];
            spmm_dots(&a, &x, &b, &mut r, &mut norms);
            for j in 0..k {
                let mut rs = vec![0.0; n];
                let solo = spmv::residual_norm_sq(&a, &xc[j], &bc[j], &mut rs);
                assert_eq!(r.col(j), rs, "residual n={n} k={k} col {j}");
                assert_eq!(
                    norms[j].to_bits(),
                    solo.to_bits(),
                    "norm n={n} k={k} col {j}"
                );
            }
        }
    }

    #[test]
    fn identity_block_variants_bitwise_match_solo() {
        let nc = 400;
        let nf = 700;
        let k = 4;
        let pf = random_csr(nf, nc, 3);
        let rf = crate::transpose::transpose(&pf);
        let xcc: Vec<Vec<f64>> = (0..k).map(|j| wave(nc, j)).collect();
        let xfc: Vec<Vec<f64>> = (0..k).map(|j| wave(nc + nf, j + 9)).collect();
        let xc = MultiVec::from_columns(&xcc);

        let mut xf = MultiVec::new(nc + nf, k);
        interp_apply_multi(&pf, nc, &xc, &mut xf);
        for j in 0..k {
            let mut solo = vec![0.0; nc + nf];
            spmv::interp_apply(&pf, nc, &xcc[j], &mut solo);
            assert_eq!(xf.col(j), solo, "interp col {j}");
        }

        let mut xf2 = MultiVec::from_columns(&xfc);
        interp_apply_add_multi(&pf, nc, &xc, &mut xf2);
        for j in 0..k {
            let mut solo = xfc[j].clone();
            spmv::interp_apply_add(&pf, nc, &xcc[j], &mut solo);
            assert_eq!(xf2.col(j), solo, "interp_add col {j}");
        }

        let xfv = MultiVec::from_columns(&xfc);
        let mut out = MultiVec::new(nc, k);
        restrict_apply_multi(&rf, nc, &xfv, &mut out);
        for j in 0..k {
            let mut solo = vec![0.0; nc];
            spmv::restrict_apply(&rf, nc, &xfc[j], &mut solo);
            assert_eq!(out.col(j), solo, "restrict col {j}");
        }
    }
}
