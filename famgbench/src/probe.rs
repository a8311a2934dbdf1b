//! Per-layer probes for the traced run.
//!
//! Every probe times calls into a layer's public functions from outside:
//! a replay of the setup pipeline (strength → PMIS → CF reorder →
//! interpolation → transpose → RAP → smoother setup) on the workload's
//! operator, and the solve-phase kernels on each level of the hierarchy
//! the workload just built. Each cell becomes one ledger row (phase,
//! level, kernel) with per-call time, flops and *computed* bytes — the
//! compulsory traffic from `famg_sparse::traffic`, which ignores cache
//! misses.

use crate::check::guarded;
use crate::check::TOL;
use crate::median;
use crate::workload::{MAX_KRYLOV, RESTART};
use famg_core::coarsen::pmis;
use famg_core::cycle::{vcycle, vcycle_batch, BatchCycleWorkspace, CycleWorkspace};
use famg_core::hierarchy::TransferOps;
use famg_core::interp::{extended_i, truncate_matrix, CfMap, TruncParams};
use famg_core::reorder::cf_reorder;
use famg_core::smoother::{Smoother, Workspace};
use famg_core::strength::strength;
use famg_core::{AmgConfig, AmgSolver, Hierarchy};
use famg_krylov::{FgmresOptions, Preconditioner};
use famg_sparse::counters::flops;
use famg_sparse::permute::permute_symmetric;
use famg_sparse::spmm::spmm;
use famg_sparse::spmv::{interp_apply_add, residual_norm_sq, restrict_apply, spmv};
use famg_sparse::traffic::{
    effective_bandwidth_gbs, gs_sweep_bytes, matrix_bytes, spmv_bytes, VAL_BYTES,
};
use famg_sparse::transpose::transpose_par;
use famg_sparse::triple::{rap_cf_from_parts, rap_cf_numeric_from_parts};
use famg_sparse::{vecops, Csr, MultiVec};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Batch width of the k-lane probes.
pub const K: usize = 8;

/// One ledger row: a (phase, level, kernel) cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// `setup` or `solve`.
    pub phase: &'static str,
    /// Hierarchy level (0 = finest).
    pub level: usize,
    /// Layer-qualified kernel name, e.g. `sparse.spmv`.
    pub kernel: &'static str,
    /// Calls timed.
    pub calls: usize,
    /// Median seconds per call.
    pub seconds: f64,
    /// Flops per call (0 where no count exists).
    pub flops: u64,
    /// Computed bytes per call (0 where no traffic model exists).
    pub bytes: usize,
}

/// Times calls of `f` until `budget` seconds or `max_calls` calls have
/// passed (at least `min_calls`); returns (calls, median seconds/call).
pub fn time_calls(
    min_calls: usize,
    max_calls: usize,
    budget: f64,
    mut f: impl FnMut(),
) -> (usize, f64) {
    let start = Instant::now();
    let mut t = Vec::new();
    while t.len() < min_calls || (t.len() < max_calls && start.elapsed().as_secs_f64() < budget) {
        let c = Instant::now();
        f();
        t.push(c.elapsed().as_secs_f64());
    }
    (t.len(), median(&t))
}

/// Times one call of `f`, returning its result and the seconds it took.
fn once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// The ledger: all cells of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Rows in measurement order.
    pub rows: Vec<Row>,
}

impl Ledger {
    /// Records a setup cell, timed once.
    fn setup(
        &mut self,
        level: usize,
        kernel: &'static str,
        seconds: f64,
        flops: u64,
        bytes: usize,
    ) {
        self.rows.push(Row {
            phase: "setup",
            level,
            kernel,
            calls: 1,
            seconds,
            flops,
            bytes,
        });
    }

    /// Records a solve-phase cell from `time_calls`' (calls, seconds).
    pub fn solve(
        &mut self,
        level: usize,
        kernel: &'static str,
        timed: (usize, f64),
        flops: u64,
        bytes: usize,
    ) {
        self.rows.push(Row {
            phase: "solve",
            level,
            kernel,
            calls: timed.0,
            seconds: timed.1,
            flops,
            bytes,
        });
    }

    /// The cell for `kernel` at `level`.
    pub fn get(&self, kernel: &str, level: usize) -> Option<&Row> {
        self.rows
            .iter()
            .find(|c| c.kernel == kernel && c.level == level)
    }

    /// Tab-separated ledger with GB/s and the fraction of `stream_gbs`.
    pub fn to_tsv(&self, stream_gbs: f64) -> String {
        let mut s = String::from(
            "phase\tlevel\tkernel\tcalls\tseconds_per_call\tflops_per_call\tcomputed_bytes_per_call\tcomputed_gbs\tstream_frac\n",
        );
        for c in &self.rows {
            let gbs = effective_bandwidth_gbs(c.bytes, c.seconds);
            s.push_str(&format!(
                "{}\t{}\t{}\t{}\t{:.6e}\t{}\t{}\t{:.4}\t{:.4}\n",
                c.phase,
                c.level,
                c.kernel,
                c.calls,
                c.seconds,
                c.flops,
                c.bytes,
                gbs,
                gbs / stream_gbs
            ));
        }
        s
    }
}

/// Rows `nc..n` of a CF-ordered interpolation operator (the `P_F` block).
fn fine_block(p: &Csr, nc: usize) -> Csr {
    let lo = p.rowptr()[nc];
    let rowptr = p.rowptr()[nc..].iter().map(|&x| x - lo).collect();
    Csr::from_parts(
        p.nrows() - nc,
        p.ncols(),
        rowptr,
        p.colidx()[lo..].to_vec(),
        p.values()[lo..].to_vec(),
    )
}

/// Flops of `rap_cf_from_parts(a_perm, nc, pf)`, counted over the loop
/// structure of its CF-block kernel (`famg_sparse::triple::rap_cf`). Per
/// coarse row `i`, with `A_perm = [A_CC A_CF; A_FC A_FF]`:
///
/// - `A_CC` and `A_CF` row `i` enter the accumulators: one add each;
/// - each `(P_Fᵀ)_ik` scales fine row `k` of `[A_FC A_FF]`: a mul and an
///   add per entry;
/// - each distinct column `j` of `B_i = A_CF_i + Σ_k (P_Fᵀ)_ik A_FF_k`
///   scales row `j` of `P_F`: a mul and an add per entry.
///
/// `pft` is `P_Fᵀ`.
pub fn rap_cf_flops(a_perm: &Csr, nc: usize, pf: &Csr, pft: &Csr) -> u64 {
    let nf = pf.nrows();
    assert_eq!(
        a_perm.nrows(),
        nc + nf,
        "A is coarse-first with nc + nf rows"
    );
    assert_eq!(
        pft.nrows(),
        nc,
        "P_F transposed has one row per coarse point"
    );
    let (mut muls, mut adds) = (0u64, 0u64);
    // `seen[j] == i + 1` once column j of B_i has been counted.
    let mut seen = vec![0usize; nf];
    for i in 0..nc {
        let mut count_b = |j: usize| {
            if seen[j] != i + 1 {
                seen[j] = i + 1;
                let n = pf.row_nnz(j) as u64;
                muls += n;
                adds += n;
            }
        };
        for &c in a_perm.row_cols(i) {
            if c >= nc {
                count_b(c - nc);
            }
        }
        for &k in pft.row_cols(i) {
            for &c in a_perm.row_cols(nc + k) {
                if c >= nc {
                    count_b(c - nc);
                }
            }
        }
        let fine_rows: u64 = pft
            .row_cols(i)
            .iter()
            .map(|&k| a_perm.row_nnz(nc + k) as u64)
            .sum();
        muls += fine_rows;
        adds += fine_rows + a_perm.row_nnz(i) as u64;
    }
    muls + adds
}

/// What the setup replay produced, per level, for cross-checking against
/// the hierarchy's own `SetupStats`.
#[derive(Debug, Default)]
pub struct Replay {
    /// Rows per level (including the coarsest).
    pub level_rows: Vec<usize>,
    /// Interpolation nnz per level.
    pub interp_nnz: Vec<usize>,
    /// Level 0's CF-ordered operator and its smoother.
    pub l0: Option<(Csr, Smoother)>,
}

/// Replays the CF-reordered setup pipeline on `a`, timing each public
/// call once per level. Follows `Hierarchy::build` for configurations
/// with `cf_reorder` and extended+i interpolation on every level.
pub fn replay_setup(a: &Csr, cfg: &AmgConfig, ledger: &mut Ledger, with_flops: bool) -> Replay {
    assert!(
        cfg.opt.cf_reorder,
        "the replay follows the CF-reordered setup path"
    );
    let trunc = TruncParams {
        factor: cfg.trunc_factor,
        max_elements: cfg.max_elements,
    };
    let nthreads = cfg
        .smoother_tasks
        .unwrap_or_else(famg_sparse::partition::num_threads);
    let mut out = Replay::default();
    let mut current = a.clone();
    let mut lvl = 0usize;
    loop {
        let n = current.nrows();
        out.level_rows.push(n);
        if n <= cfg.coarse_solve_size || lvl + 1 >= cfg.max_levels {
            break;
        }
        let (s, t) = once(|| strength(&current, cfg.strength_threshold, cfg.max_row_sum));
        ledger.setup(lvl, "core.strength", t, 0, 0);
        let (c, t) = once(|| pmis(&s, cfg.seed.wrapping_add(lvl as u64)));
        ledger.setup(lvl, "core.coarsen", t, 0, 0);
        if c.ncoarse == 0 || c.ncoarse == n {
            break;
        }
        let ((ap, ord, sp), t) = once(|| {
            let (ap, ord) = cf_reorder(&current, &c.is_coarse);
            let sp = permute_symmetric(&s, &ord.perm);
            (ap, ord, sp)
        });
        ledger.setup(lvl, "core.reorder", t, 0, 0);
        let nc = ord.nc;
        let cf = CfMap::new((0..n).map(|i| i < nc).collect());
        let (p, t) = once(|| {
            if cfg.opt.fused_truncation {
                extended_i(&ap, &sp, &cf, Some(&trunc))
            } else {
                truncate_matrix(&extended_i(&ap, &sp, &cf, None), &trunc)
            }
        });
        ledger.setup(lvl, "core.interp", t, 0, 0);
        out.interp_nnz.push(p.nnz());
        let pf = fine_block(&p, nc);
        let (pft, t) = once(|| transpose_par(&pf));
        ledger.setup(lvl, "sparse.transpose", t, 0, 2 * matrix_bytes(&pf));
        let (next, t) = once(|| rap_cf_from_parts(&ap, nc, &pf));
        let rap_flops = if with_flops {
            rap_cf_flops(&ap, nc, &pf, &pft)
        } else {
            0
        };
        ledger.setup(lvl, "sparse.rap", t, rap_flops, 0);
        let mut again = next.clone();
        let ((), t) = once(|| rap_cf_numeric_from_parts(&ap, nc, &pf, &mut again));
        ledger.setup(lvl, "sparse.rap_numeric", t, 0, 0);
        let mut apm = ap;
        let (sm, t) = once(|| Smoother::hybrid_opt(&mut apm, nc, nthreads));
        ledger.setup(lvl, "core.smoother_setup", t, 0, 0);
        if lvl == 0 {
            out.l0 = Some((apm, sm));
        }
        current = next;
        lvl += 1;
    }
    out
}

/// Computed bytes of one k-wide pass over `a` (matrix once, `k`-wide
/// input and output vectors once).
fn spmm_bytes(a: &Csr, k: usize) -> usize {
    matrix_bytes(a) + (a.ncols() + a.nrows()) * VAL_BYTES * k
}

/// Times the solve-phase kernels on every level of `h`.
pub fn solve_cells(h: &Hierarchy, seed_vec: &[f64], ledger: &mut Ledger) {
    let mut ws = Workspace::new();
    for (l, lvl) in h.levels.iter().enumerate() {
        let a = &lvl.a;
        let n = a.nrows();
        // Deterministic, level-sized inputs derived from the workload's RHS.
        let x: Vec<f64> = (0..n).map(|i| seed_vec[i % seed_vec.len()]).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| seed_vec[(i * 7 + 3) % seed_vec.len()])
            .collect();
        let mut y = vec![0.0; n];
        let (budget, max) = (0.25, 60);
        let nnz = a.nnz();

        let timed = time_calls(3, max, budget, || spmv(a, &x, &mut y));
        ledger.solve(l, "sparse.spmv", timed, flops::spmv(nnz), spmv_bytes(a));

        let timed = time_calls(3, max, budget, || {
            std::hint::black_box(residual_norm_sq(a, &x, &b, &mut y));
        });
        let res_bytes = spmv_bytes(a) + 2 * n * VAL_BYTES;
        ledger.solve(
            l,
            "sparse.residual",
            timed,
            flops::spmv(nnz) + 3 * n as u64,
            res_bytes,
        );

        let mut xs = x.clone();
        let timed = time_calls(3, max, budget, || {
            lvl.smoother.pre_smooth(a, &b, &mut xs, &mut ws, false);
            lvl.smoother.post_smooth(a, &b, &mut xs, &mut ws);
        });
        ledger.solve(
            l,
            "core.smoother",
            timed,
            2 * flops::gs_sweep(nnz),
            2 * gs_sweep_bytes(a),
        );

        let mut w = y.clone();
        let timed = time_calls(3, max, budget, || {
            std::hint::black_box(vecops::dot(&x, &w));
            vecops::axpy(1e-3, &x, &mut w);
        });
        ledger.solve(
            l,
            "sparse.vecops",
            timed,
            flops::dot(n) + flops::axpy(n),
            5 * n * VAL_BYTES,
        );

        if let Some(TransferOps::CfBlock { pf, pft }) = &lvl.ops {
            let nc = lvl.nc;
            let mut xc = vec![0.0; nc];
            let mut xf = x.clone();
            let timed = time_calls(3, max, budget, || {
                restrict_apply(pft, nc, &xf, &mut xc);
                interp_apply_add(pf, nc, &xc, &mut xf);
            });
            let fl = flops::spmv(pf.nnz()) + flops::spmv(pft.nnz());
            let by = spmv_bytes(pf) + spmv_bytes(pft) + nc * VAL_BYTES;
            ledger.solve(l, "sparse.transfer", timed, fl, by);
        }

        let xm = MultiVec::from_columns(&vec![x.clone(); K]);
        let bm = MultiVec::from_columns(&vec![b.clone(); K]);
        let mut ym = MultiVec::new(n, K);
        let timed = time_calls(3, max, budget, || spmm(a, &xm, &mut ym));
        ledger.solve(
            l,
            "sparse.spmm",
            timed,
            flops::spmm(nnz, K),
            spmm_bytes(a, K),
        );

        let mut xsm = xm.clone();
        let timed = time_calls(3, max, budget, || {
            lvl.smoother
                .pre_smooth_batch(a, &bm, &mut xsm, &mut ws, false);
            lvl.smoother.post_smooth_batch(a, &bm, &mut xsm, &mut ws);
        });
        let sweep_k = spmm_bytes(a, K) + 2 * n * VAL_BYTES * K;
        ledger.solve(
            l,
            "core.smoother_batch",
            timed,
            2 * flops::gs_sweep_batch(nnz, K),
            2 * sweep_k,
        );
    }
}

/// Median seconds of one V-cycle and one k-wide V-cycle from level 0,
/// also recorded as ledger cells.
pub fn vcycle_cells(h: &Hierarchy, b: &[f64], ledger: &mut Ledger) -> (f64, f64) {
    let n = h.n();
    let mut ws = CycleWorkspace::for_hierarchy(h);
    let mut x = vec![0.0; n];
    let v = time_calls(3, 10, 1.0, || {
        x.fill(0.0);
        vcycle(h, b, &mut x, &mut ws);
    });
    ledger.solve(0, "core.vcycle", v, 0, 0);
    let bm = MultiVec::from_columns(&vec![b.to_vec(); K]);
    let mut xm = MultiVec::new(n, K);
    let mut wsb = BatchCycleWorkspace::for_hierarchy(h, K);
    let vb = time_calls(2, 5, 1.0, || {
        xm.fill(0.0);
        vcycle_batch(h, &bm, &mut xm, &mut wsb);
    });
    ledger.solve(0, "core.vcycle_batch", vb, 0, 0);
    (v.1, vb.1)
}

/// `Preconditioner` wrapper that counts and times the calls it forwards.
pub struct TimedPrecond<'a> {
    inner: &'a AmgSolver,
    /// Calls forwarded.
    pub calls: Cell<u64>,
    /// Seconds spent inside the wrapped `apply`.
    pub seconds: Cell<f64>,
}

impl<'a> TimedPrecond<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a AmgSolver) -> Self {
        TimedPrecond {
            inner,
            calls: Cell::new(0),
            seconds: Cell::new(0.0),
        }
    }
}

impl Preconditioner for TimedPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(r, z);
        self.seconds
            .set(self.seconds.get() + t.elapsed().as_secs_f64());
        self.calls.set(self.calls.get() + 1);
    }
}

/// FGMRES options every Krylov solve uses.
pub fn fgmres_opts() -> FgmresOptions {
    FgmresOptions {
        tolerance: TOL,
        max_iterations: MAX_KRYLOV,
        restart: RESTART,
    }
}

/// FGMRES on `a x = b` through the timing wrapper: (wall seconds,
/// iterations, preconditioner calls, preconditioner seconds).
pub fn fgmres_cell(
    a: &Csr,
    b: &[f64],
    solver: &AmgSolver,
) -> Result<(f64, usize, u64, f64), String> {
    let pc = TimedPrecond::new(solver);
    let mut x = vec![0.0; a.nrows()];
    let (res, wall) = once(|| guarded(|| famg_krylov::fgmres(a, b, &mut x, &pc, &fgmres_opts())));
    let res = res?;
    crate::check::check_solution(a, &x, b, res.converged)?;
    Ok((wall, res.iterations, pc.calls.get(), pc.seconds.get()))
}

/// STREAM triad `a = b + s·c` on `threads` threads over arrays of `len`
/// doubles each; returns the median GB/s over `reps` passes (24 bytes
/// per element, the STREAM convention).
pub fn stream_triad(len: usize, threads: usize, reps: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut rates = Vec::new();
    for r in 0..=reps {
        let s = 3.0 + r as f64 * 1e-9;
        let t = Instant::now();
        std::thread::scope(|sc| {
            for ((ai, bi), ci) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                sc.spawn(move || {
                    for ((x, y), z) in ai.iter_mut().zip(bi).zip(ci) {
                        *x = y + s * z;
                    }
                });
            }
        });
        let dt = t.elapsed().as_secs_f64();
        // The first pass faults the output pages in; it is not timed.
        if r > 0 {
            rates.push(effective_bandwidth_gbs(24 * len, dt));
        }
    }
    std::hint::black_box(&a);
    median(&rates)
}

/// Last-level cache size in bytes (sysfs), 105 MiB when unknown.
pub fn llc_bytes() -> usize {
    let parse = |s: &str| -> Option<usize> {
        let s = s.trim();
        let (num, mult) = match s.chars().last()? {
            'K' => (&s[..s.len() - 1], 1 << 10),
            'M' => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        num.parse::<usize>().ok().map(|v| v * mult)
    };
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(|s| parse(&s))
        .max()
        .unwrap_or(105 << 20)
}

/// Level-0 cell seconds used by the pool-speedup probe: `spmv`,
/// `smoother` (pre + post pair), `rap` and `interp`.
pub fn pool_cells(a: &Csr, cfg: &AmgConfig, rhs: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut ledger = Ledger::default();
    // One-level replay: stop after level 0.
    let one = AmgConfig {
        max_levels: 2,
        ..cfg.clone()
    };
    let replay = replay_setup(a, &one, &mut ledger, false);
    let mut out = BTreeMap::new();
    let pick = |k: &str| ledger.get(k, 0).map_or(f64::NAN, |c| c.seconds);
    out.insert("rap", pick("sparse.rap"));
    out.insert("interp", pick("core.interp"));
    let n = a.nrows();
    let mut y = vec![0.0; n];
    out.insert("spmv", time_calls(5, 60, 0.5, || spmv(a, rhs, &mut y)).1);
    let (a0, smoother) = replay.l0.expect("level 0 is coarsened");
    let mut ws = Workspace::new();
    let mut x = vec![0.0; n];
    out.insert(
        "smoother",
        time_calls(5, 60, 0.5, || {
            smoother.pre_smooth(&a0, rhs, &mut x, &mut ws, false);
            smoother.post_smooth(&a0, rhs, &mut x, &mut ws);
        })
        .1,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_the_hierarchy() {
        let a = famg_matgen::laplace3d_7pt(14, 14, 14);
        let cfg = AmgConfig::single_node_paper();
        let h = Hierarchy::build(&a, &cfg);
        let mut ledger = Ledger::default();
        let r = replay_setup(&a, &cfg, &mut ledger, true);
        assert_eq!(r.level_rows, h.stats.level_rows);
        assert_eq!(r.interp_nnz, h.stats.interp_nnz);
        let rap = ledger.get("sparse.rap", 0).unwrap();
        assert!(rap.flops > 0);
    }

    #[test]
    fn rap_flops_follow_the_cf_block_kernel() {
        // nc = 1, nf = 2, A dense 3×3, P_F = [p0; p1]. Row 0: A_CC + A_CF
        // enter with 3 adds; (P_Fᵀ)_00 and (P_Fᵀ)_01 scale fine rows 1
        // and 2 (3 entries each): 6 muls + 6 adds; B_0 has columns {0, 1},
        // each scaling a one-entry row of P_F: 2 muls + 2 adds.
        let a = Csr::from_triplets(
            3,
            3,
            (0..3).flat_map(|i| (0..3).map(move |j| (i, j, 1.0 + (i * 3 + j) as f64))),
        );
        let pf = Csr::from_triplets(2, 1, vec![(0, 0, 0.5), (1, 0, 0.25)]);
        let pft = famg_sparse::transpose::transpose(&pf);
        assert_eq!(rap_cf_flops(&a, 1, &pf, &pft), 19);
    }

    #[test]
    fn ledger_has_one_row_per_cell() {
        let a = famg_matgen::laplace3d_7pt(12, 12, 12);
        let h = Hierarchy::build(&a, &AmgConfig::single_node_paper());
        let mut ledger = Ledger::default();
        solve_cells(&h, &famg_matgen::rhs::random(a.nrows(), 1), &mut ledger);
        let tsv = ledger.to_tsv(10.0);
        let rows = tsv.lines().count() - 1;
        // 6 kernels on every level, plus transfers on all but the coarsest.
        let levels = h.levels.len();
        assert_eq!(rows, 6 * levels + (levels - 1));
        assert!(
            ledger.get("core.smoother", 0).unwrap().bytes
                > ledger.get("sparse.spmv", 0).unwrap().bytes
        );
    }

    #[test]
    fn stream_triad_reports_a_rate() {
        assert!(stream_triad(1 << 16, 2, 3) > 0.0);
    }

    #[test]
    fn llc_size_is_plausible() {
        assert!(llc_bytes() >= 1 << 20);
    }
}
