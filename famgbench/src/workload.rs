//! The workloads: seeded inputs and one timed cycle each.
//!
//! A cycle runs the workload from "operator in hand" to "every solution
//! at tolerance" — setup, then solves — and checks every answer
//! with [`crate::check`]. Matrix and right-hand-side generation happen
//! before the clock starts.

use crate::check::{check_solution, guarded, Tally, TOL};
use crate::trace::Tracer;
use famg_core::{AmgConfig, AmgSolver};
use famg_dist::parcsr::default_partition;
use famg_dist::solve::{dist_vcycle, try_dist_fgmres_amg};
use famg_dist::spmv::dist_spmv;
use famg_dist::{run_ranks, Comm, DistHierarchy, DistOptFlags, ParCsr};
use famg_sparse::{Csr, MultiVec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which pipeline a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `AmgSolver::setup` + one scalar `solve`.
    Poisson7,
    /// `AmgSolver::setup` + one `k`-wide `solve_batch`.
    Poisson27Batch,
    /// `DistHierarchy::build` + `dist_fgmres_amg` on 2 rank threads.
    Poisson7Dist,
}

/// A workload: pipeline, problem size and pinned pool size.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name as used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Pipeline.
    pub kind: Kind,
    /// Grid dimensions.
    pub dims: (usize, usize, usize),
    /// Rayon pool size the workload's process must run with.
    pub pool: usize,
    /// Right-hand sides per batch (`Poisson27Batch`).
    pub k: usize,
}

/// Ranks of the distributed workload.
pub const RANKS: usize = 2;
/// FGMRES restart length (serial and distributed).
pub const RESTART: usize = 50;
/// FGMRES iteration cap.
pub const MAX_KRYLOV: usize = 500;

impl Spec {
    /// The named workload at full size, or at a tiny size for self-tests.
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        let cube = |d: usize| if tiny { (12, 12, 12) } else { (d, d, d) };
        let (name, kind, dims, pool, k) = match name {
            "poisson7" => ("poisson7", Kind::Poisson7, cube(100), 2, 1),
            "poisson27_k8" => ("poisson27_k8", Kind::Poisson27Batch, cube(80), 2, 8),
            "poisson7_dist2" => ("poisson7_dist2", Kind::Poisson7Dist, cube(90), 1, 1),
            _ => return None,
        };
        Some(Spec {
            name,
            kind,
            dims,
            pool,
            k,
        })
    }

    /// Solver configuration of the workload.
    pub fn config(&self) -> AmgConfig {
        match self.kind {
            Kind::Poisson7Dist => AmgConfig::multi_node_ei4(),
            _ => AmgConfig::single_node_paper(),
        }
    }
}

/// Seeded inputs of one workload.
#[derive(Debug)]
pub struct Inputs {
    /// The operator handed to setup.
    pub a: Csr,
    /// Right-hand sides: one, or the `k` batch columns.
    pub rhs: Vec<Vec<f64>>,
}

/// Seed of right-hand side `j`, derived from the run's seed.
fn rhs_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(j as u64 + 1)
}

/// Right-hand side `j`: the all-ones vector (the AMG2013 convention the
/// repository's other benches use) plus seeded uniform noise in
/// `[-1, 1)`. A pure-noise right-hand side leaves the final residual so
/// close to the tolerance that the V-cycle count swings between 13 and
/// 15 from seed to seed on `poisson7`; the constant part pins it.
pub fn seeded_rhs(n: usize, seed: u64, j: usize) -> Vec<f64> {
    famg_matgen::rhs::random(n, rhs_seed(seed, j))
        .into_iter()
        .map(|u| 1.0 + u)
        .collect()
}

/// Generates the workload's inputs from `seed`.
pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let (nx, ny, nz) = spec.dims;
    let a = match spec.kind {
        Kind::Poisson7 | Kind::Poisson7Dist => famg_matgen::laplace3d_7pt(nx, ny, nz),
        Kind::Poisson27Batch => famg_matgen::laplace3d_27pt(nx, ny, nz),
    };
    let rhs = (0..spec.k)
        .map(|j| seeded_rhs(a.nrows(), seed, j))
        .collect();
    Inputs { a, rhs }
}

/// How a cycle runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Setup, then every solve of the workload.
    Full,
    /// `Full`, keeping the serial solver and running the distributed
    /// layer probes for the per-layer metrics.
    Traced,
}

/// What one cycle measured.
#[derive(Debug, Default)]
pub struct CycleOut {
    /// Setup wall seconds.
    pub setup_s: f64,
    /// Solve wall seconds per right-hand side (one entry per solve).
    pub solve_s: Vec<f64>,
    /// Operator in hand to every solution at tolerance (`None` when the
    /// cycle failed before its first solve).
    pub tts_s: Option<f64>,
    /// Exact counts that must repeat bit for bit for a given seed.
    pub counts: BTreeMap<String, f64>,
    /// Iteration count of each operation (solve or batch column) in its
    /// first solve that returned; repeats must match it.
    first_iterations: BTreeMap<usize, usize>,
    /// Mean convergence factor per iteration, from the residual history.
    pub conv_factor: f64,
    /// Distributed-layer cells by metric name (`Poisson7Dist` only; a
    /// traced cycle adds the level-0 probe times).
    pub dist: BTreeMap<String, f64>,
    /// The serial solver, kept when the caller asked for it.
    pub solver: Option<AmgSolver>,
}

/// Geometric-mean residual reduction per iteration from a zero guess.
fn conv_factor(final_relres: f64, iterations: usize) -> f64 {
    if iterations == 0 {
        return 0.0;
    }
    final_relres.powf(1.0 / iterations as f64)
}

fn hierarchy_counts(counts: &mut BTreeMap<String, f64>, st: &famg_core::SetupStats) {
    counts.insert("core.hierarchy.levels".into(), st.num_levels() as f64);
    counts.insert(
        "core.hierarchy.op_complexity".into(),
        st.operator_complexity(),
    );
    counts.insert(
        "core.hierarchy.grid_complexity".into(),
        st.grid_complexity(),
    );
    for (l, (rows, nnz)) in st.level_rows.iter().zip(&st.level_nnz).enumerate() {
        counts.insert(format!("hierarchy.l{l}.rows"), *rows as f64);
        counts.insert(format!("hierarchy.l{l}.nnz"), *nnz as f64);
    }
}

/// How often a cycle runs its solve phase: at least `min` times, and
/// again while `until` lies ahead.
#[derive(Debug, Clone, Copy)]
pub struct Repeat {
    /// Solve phases to run whatever the clock says (at least one runs).
    pub min: usize,
    /// Another solve phase starts while this instant lies ahead.
    pub until: Instant,
}

impl Repeat {
    /// One solve phase.
    pub fn once() -> Self {
        Repeat {
            min: 1,
            until: Instant::now(),
        }
    }

    /// Whether another phase follows the `done` phases run so far.
    fn again(&self, done: usize) -> bool {
        done < self.min || Instant::now() < self.until
    }
}

/// Runs one cycle of `spec` on `inp`: setup, then the solve phase (every
/// solve of the workload), repeated on the same hierarchy as `rep` says.
pub fn run_cycle(
    spec: &Spec,
    inp: &Inputs,
    tally: &mut Tally,
    tr: &mut Tracer,
    mode: Mode,
    rep: Repeat,
) -> CycleOut {
    let root = tr.begin(&format!("cycle.{}", spec.name));
    let out = match spec.kind {
        Kind::Poisson7 | Kind::Poisson27Batch => serial_cycle(spec, inp, tally, tr, mode, rep),
        Kind::Poisson7Dist => dist_cycle(spec, inp, tally, tr, mode, rep),
    };
    tr.end(root);
    out
}

/// Runs `phase` as `rep` says.
fn repeat(rep: Repeat, mut phase: impl FnMut()) {
    let mut done = 0;
    loop {
        phase();
        done += 1;
        if !rep.again(done) {
            break;
        }
    }
}

/// Outcome of operation `j` of a solve that returned: its residual
/// `check`, and its iteration count must equal the one operation `j` took
/// in the cycle's first solve that returned (the first one sets it).
fn solved(
    out: &mut CycleOut,
    j: usize,
    iterations: usize,
    check: Result<(), String>,
) -> Result<(), String> {
    let first = *out.first_iterations.entry(j).or_insert(iterations);
    let most = out.first_iterations.values().copied().max().unwrap_or(0);
    out.counts.insert("iterations".into(), most as f64);
    check?;
    if iterations == first {
        Ok(())
    } else {
        Err(format!(
            "repeated solve took {iterations} iterations, the first took {first}"
        ))
    }
}

/// Mean per-iteration reduction from a history that starts after the
/// first iteration of a zero-guess solve (initial relative residual 1).
fn history_factor(history: &[f64]) -> f64 {
    history
        .last()
        .map_or(0.0, |&last| conv_factor(last, history.len()))
}

fn serial_cycle(
    spec: &Spec,
    inp: &Inputs,
    tally: &mut Tally,
    tr: &mut Tracer,
    mode: Mode,
    rep: Repeat,
) -> CycleOut {
    let cfg = spec.config();
    let a = &inp.a;
    let n = a.nrows();
    let mut out = CycleOut::default();
    let t0 = Instant::now();
    let sp = tr.begin("core.setup");
    let solver = guarded(|| AmgSolver::setup(a, &cfg));
    tr.end(sp);
    out.setup_s = t0.elapsed().as_secs_f64();
    let solver = match solver {
        Ok(s) => s,
        Err(e) => {
            tally.record_lost("setup", inp.rhs.len() as u64, &e);
            return out;
        }
    };
    hierarchy_counts(&mut out.counts, &solver.hierarchy().stats);

    repeat(rep, || {
        if spec.kind == Kind::Poisson7 {
            let b = &inp.rhs[0];
            let mut x = vec![0.0; n];
            let sp = tr.begin("core.solve");
            let t = Instant::now();
            let res = guarded(|| solver.try_solve(b, &mut x));
            let end = Instant::now();
            tr.end(sp);
            out.solve_s.push((end - t).as_secs_f64());
            out.tts_s.get_or_insert((end - t0).as_secs_f64());
            match res {
                Ok(Ok(r)) => {
                    let check = check_solution(a, &x, b, r.converged);
                    tally.record("solve", solved(&mut out, 0, r.iterations, check));
                    out.conv_factor = history_factor(&r.history);
                }
                Ok(Err(e)) => tally.record("solve", Err(e.to_string())),
                Err(e) => tally.record("solve", Err(e)),
            }
        } else {
            let bm = MultiVec::from_columns(&inp.rhs);
            let mut xm = MultiVec::new(n, spec.k);
            let sp = tr.begin("core.solve_batch");
            let t = Instant::now();
            let res = guarded(|| solver.try_solve_batch(&bm, &mut xm));
            let end = Instant::now();
            tr.end(sp);
            out.solve_s.push((end - t).as_secs_f64() / spec.k as f64);
            out.tts_s.get_or_insert((end - t0).as_secs_f64());
            match res {
                Ok(Ok(r)) => {
                    for (j, b) in inp.rhs.iter().enumerate() {
                        let check = check_solution(a, &xm.col(j), b, r.converged[j]);
                        let outcome = solved(&mut out, j, r.iterations[j], check);
                        tally.record(&format!("batch column {j}"), outcome);
                    }
                    let worst = (0..r.k()).max_by_key(|&j| r.iterations[j]).unwrap_or(0);
                    out.conv_factor = history_factor(&r.history[worst]);
                }
                Ok(Err(e)) => tally.record_lost("solve_batch", spec.k as u64, &e.to_string()),
                Err(e) => tally.record_lost("solve_batch", spec.k as u64, &e),
            }
        }
    });
    if mode == Mode::Traced {
        out.solver = Some(solver);
    }
    out
}

/// One distributed solve as seen by one rank.
struct RankSolve {
    x: Vec<f64>,
    seconds: f64,
    iterations: usize,
    final_relres: f64,
    converged: bool,
    error: Option<String>,
    msgs: u64,
    bytes: u64,
    comm_s: f64,
}

/// What each rank returns from the distributed cycle.
struct RankOut {
    start: Instant,
    built: Instant,
    /// When the first solve ended.
    solved: Option<Instant>,
    setup_msgs: u64,
    setup_bytes: u64,
    stats: famg_core::SetupStats,
    solves: Vec<RankSolve>,
    /// Per-call seconds of the `dist_spmv`, halo and V-cycle probes.
    probe: [Vec<f64>; 3],
}

/// Message tag of the benchmark's own "solve again?" vote, far from the
/// solver's tags.
const REPEAT_TAG: u64 = 0x00FA_6BE7_0000_0001;

/// Calls timed per distributed probe: `dist_spmv`, the halo exchange and
/// the V-cycle.
pub const PROBE_CALLS: [usize; 3] = [20, 20, 5];

/// Times `reps` synchronized calls of `f` on every rank; returns this
/// rank's per-call seconds.
fn rank_timed(comm: &Comm, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            comm.barrier();
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// The distributed layer probes on level 0 of `h`, run on every rank.
fn rank_probes(c: &Comm, h: &DistHierarchy, b_local: &[f64]) -> [Vec<f64>; 3] {
    let l0 = &h.levels[0];
    let nl = l0.a.local_rows();
    let mut y = vec![0.0; nl];
    let [n_spmv, n_halo, n_vcycle] = PROBE_CALLS;
    let spmv = rank_timed(c, n_spmv, || {
        dist_spmv(c, &l0.a, &l0.plan_a, b_local, &mut y)
    });
    let halo = rank_timed(c, n_halo, || {
        std::hint::black_box(l0.plan_a.exchange(c, b_local));
    });
    let mut xv = vec![0.0; nl];
    let vcycle = rank_timed(c, n_vcycle, || {
        xv.fill(0.0);
        dist_vcycle(c, h, 0, b_local, &mut xv);
    });
    [spmv, halo, vcycle]
}

/// Outcome of one distributed solve: no rank may report an error, all
/// ranks must report the same iteration count, and the solution gathered
/// from the rank slabs (contiguous row ranges in rank order) must pass the
/// residual check.
fn dist_outcome(
    out: &mut CycleOut,
    a: &Csr,
    b: &[f64],
    per_rank: &[&RankSolve],
) -> Result<(), String> {
    if let Some(e) = per_rank.iter().find_map(|s| s.error.clone()) {
        return Err(e);
    }
    let iters: Vec<usize> = per_rank.iter().map(|s| s.iterations).collect();
    if iters.iter().any(|&it| it != iters[0]) {
        return Err(format!("ranks disagree on the iteration count: {iters:?}"));
    }
    let x: Vec<f64> = per_rank.iter().flat_map(|s| s.x.iter().copied()).collect();
    let check = check_solution(a, &x, b, per_rank.iter().all(|s| s.converged));
    solved(out, 0, iters[0], check)
}

fn dist_cycle(
    spec: &Spec,
    inp: &Inputs,
    tally: &mut Tally,
    tr: &mut Tracer,
    mode: Mode,
    rep: Repeat,
) -> CycleOut {
    let cfg = spec.config();
    let a = &inp.a;
    let n = a.nrows();
    let b = &inp.rhs[0];
    let starts = default_partition(n, RANKS);
    let mut out = CycleOut::default();
    let ranks = guarded(|| {
        run_ranks(RANKS, |c| {
            let r = c.rank();
            let (s, e) = (starts[r], starts[r + 1]);
            let pa = ParCsr::from_global_rows(a, s, e, starts.clone(), r);
            c.barrier();
            let start = Instant::now();
            let h = DistHierarchy::build(c, pa, &cfg, DistOptFlags::all());
            let built = Instant::now();
            let mut ro = RankOut {
                start,
                built,
                solved: None,
                setup_msgs: h.setup_comm.messages,
                setup_bytes: h.setup_comm.bytes,
                stats: h.stats.clone(),
                solves: Vec::new(),
                probe: Default::default(),
            };
            for done in 1.. {
                let mut x = vec![0.0; e - s];
                let t = Instant::now();
                let res = try_dist_fgmres_amg(c, &h, &b[s..e], &mut x, TOL, MAX_KRYLOV, RESTART);
                let end = Instant::now();
                ro.solved.get_or_insert(end);
                let mut rs = RankSolve {
                    x,
                    seconds: (end - t).as_secs_f64(),
                    iterations: 0,
                    final_relres: f64::NAN,
                    converged: false,
                    error: None,
                    msgs: 0,
                    bytes: 0,
                    comm_s: 0.0,
                };
                match res {
                    Ok(res) => {
                        rs.iterations = res.iterations;
                        rs.final_relres = res.final_relres;
                        rs.converged = res.converged;
                        rs.msgs = res.solve_comm.messages;
                        rs.bytes = res.solve_comm.bytes;
                        rs.comm_s = res.solve_comm_time.as_secs_f64();
                    }
                    Err(err) => rs.error = Some(err.to_string()),
                }
                ro.solves.push(rs);
                // Every rank must take the same decision.
                if !c.allreduce_or(rep.again(done), REPEAT_TAG) {
                    break;
                }
            }
            if mode == Mode::Traced {
                ro.probe = rank_probes(c, &h, &b[s..e]);
            }
            ro
        })
    });
    let ranks = match ranks {
        Ok((ranks, _report)) => ranks,
        Err(e) => {
            tally.record_lost("distributed cycle", 1, &e);
            return out;
        }
    };
    let start = ranks
        .iter()
        .map(|r| r.start)
        .min()
        .expect("at least one rank");
    let built = ranks
        .iter()
        .map(|r| r.built)
        .max()
        .expect("at least one rank");
    out.setup_s = ranks
        .iter()
        .map(|r| (r.built - r.start).as_secs_f64())
        .fold(0.0, f64::max);
    tr.record("dist.build", start, built);
    let sum = |f: &dyn Fn(&RankOut) -> u64| ranks.iter().map(f).sum::<u64>() as f64;
    let (setup_msgs, setup_bytes) = (sum(&|r| r.setup_msgs), sum(&|r| r.setup_bytes));
    hierarchy_counts(&mut out.counts, &ranks[0].stats);
    out.counts.insert("dist.setup.msgs".into(), setup_msgs);
    out.counts.insert("dist.setup.bytes".into(), setup_bytes);
    if let Some(solved) = ranks.iter().filter_map(|r| r.solved).max() {
        out.tts_s = Some((solved - start).as_secs_f64());
        tr.record("dist.fgmres", built, solved);
    }

    // Per solve: gather and check the answer (`dist_outcome`). The
    // slowest rank sets the solve time.
    for i in 0..ranks[0].solves.len() {
        let per_rank: Vec<&RankSolve> = ranks.iter().map(|r| &r.solves[i]).collect();
        out.solve_s
            .push(per_rank.iter().map(|s| s.seconds).fold(0.0, f64::max));
        let outcome = dist_outcome(&mut out, a, b, &per_rank);
        tally.record("distributed fgmres", outcome);
    }

    // Communication and balance of the first solve.
    let first: Vec<&RankSolve> = ranks.iter().map(|r| &r.solves[0]).collect();
    let it = first[0].iterations;
    let (solve_msgs, solve_bytes) = (sum(&|r| r.solves[0].msgs), sum(&|r| r.solves[0].bytes));
    out.counts.insert("dist.solve.msgs".into(), solve_msgs);
    out.counts.insert("dist.solve.bytes".into(), solve_bytes);
    out.conv_factor = conv_factor(first[0].final_relres, it);
    let per_iter = |v: f64| if it == 0 { 0.0 } else { v / it as f64 };
    let max_t = first.iter().map(|s| s.seconds).fold(0.0, f64::max);
    let min_t = first
        .iter()
        .map(|s| s.seconds)
        .fold(f64::INFINITY, f64::min);
    let wait = first
        .iter()
        .map(|s| s.comm_s / s.seconds.max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max);
    out.dist.insert("dist.setup.msgs".into(), setup_msgs);
    out.dist.insert("dist.setup.bytes".into(), setup_bytes);
    out.dist
        .insert("dist.solve.msgs_per_iter".into(), per_iter(solve_msgs));
    out.dist
        .insert("dist.solve.bytes_per_iter".into(), per_iter(solve_bytes));
    out.dist.insert("dist.solve.wait_frac".into(), wait);
    out.dist.insert(
        "dist.imbalance".into(),
        max_t / min_t.max(f64::MIN_POSITIVE),
    );
    if mode == Mode::Traced {
        // Per call, the slowest rank sets the time; report the median call.
        let slowest = |k: usize| -> f64 {
            let per_call: Vec<f64> = (0..ranks[0].probe[k].len())
                .map(|i| ranks.iter().map(|r| r.probe[k][i]).fold(0.0, f64::max))
                .collect();
            crate::median(&per_call)
        };
        out.dist.insert("dist.spmv.l0.s".into(), slowest(0));
        out.dist.insert("dist.halo.l0.s".into(), slowest(1));
        out.dist.insert("dist.vcycle.s".into(), slowest(2));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of all workloads, in `BENCHMARK.json` order.
    const NAMES: [&str; 3] = ["poisson7", "poisson27_k8", "poisson7_dist2"];

    fn tiny_cycle(name: &str) -> (Tally, CycleOut) {
        let spec = Spec::named(name, true).expect("workload");
        let inp = inputs(&spec, 7);
        let mut tally = Tally::default();
        let mut tr = Tracer::new(true);
        let out = run_cycle(
            &spec,
            &inp,
            &mut tally,
            &mut tr,
            Mode::Traced,
            Repeat::once(),
        );
        (tally, out)
    }

    #[test]
    fn every_tiny_workload_solves_without_failures() {
        for name in NAMES {
            let (tally, out) = tiny_cycle(name);
            assert_eq!(tally.failed, 0, "{name}: {:?}", tally.failures);
            let spec = Spec::named(name, true).unwrap();
            assert_eq!(tally.attempted, spec.k as u64, "{name}");
            assert!(
                out.setup_s > 0.0 && out.tts_s.unwrap() >= out.setup_s,
                "{name}"
            );
            assert!(out.counts["iterations"] > 0.0, "{name}");
            assert!(out.conv_factor > 0.0 && out.conv_factor < 1.0, "{name}");
        }
    }

    #[test]
    fn repeats_that_change_their_iteration_count_fail_without_new_attempts() {
        let mut out = CycleOut::default();
        let mut tally = Tally::default();
        for (j, it) in [(0, 9), (1, 12)] {
            tally.record("first phase", solved(&mut out, j, it, Ok(())));
        }
        tally.record("same", solved(&mut out, 0, 9, Ok(())));
        tally.record("changed", solved(&mut out, 1, 13, Ok(())));
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert!(
            tally.failures[0].contains("13 iterations"),
            "{:?}",
            tally.failures
        );
        // A solve that fails its check is one failure, not two.
        tally.record("both", solved(&mut out, 1, 14, Err("residual".into())));
        assert_eq!((tally.attempted, tally.failed), (5, 2));
        assert_eq!(out.counts["iterations"], 12.0);
    }

    #[test]
    fn dist_solves_that_return_errors_set_no_iteration_count() {
        let a = famg_matgen::laplace2d(6, 6);
        let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + i as f64 * 0.1).collect();
        let b = famg_matgen::rhs::rhs_for_solution(&a, &x);
        let half = a.nrows() / 2;
        let rank = |lo: usize, hi: usize, iterations: usize, error: Option<&str>| RankSolve {
            x: x[lo..hi].to_vec(),
            seconds: 1.0,
            iterations,
            final_relres: 1e-9,
            converged: error.is_none(),
            error: error.map(str::to_string),
            msgs: 0,
            bytes: 0,
            comm_s: 0.0,
        };
        let mut out = CycleOut::default();
        let (f0, f1) = (
            rank(0, half, 0, Some("breakdown")),
            rank(half, a.nrows(), 0, None),
        );
        assert!(dist_outcome(&mut out, &a, &b, &[&f0, &f1]).is_err());
        assert!(out.first_iterations.is_empty() && !out.counts.contains_key("iterations"));
        let (g0, g1) = (rank(0, half, 7, None), rank(half, a.nrows(), 7, None));
        assert_eq!(dist_outcome(&mut out, &a, &b, &[&g0, &g1]), Ok(()));
        assert_eq!(out.counts["iterations"], 7.0);
        let (h0, h1) = (rank(0, half, 7, None), rank(half, a.nrows(), 8, None));
        let err = dist_outcome(&mut out, &a, &b, &[&h0, &h1]).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
        let mut wrong = rank(0, half, 7, None);
        wrong.x[0] += 1.0;
        assert!(dist_outcome(&mut out, &a, &b, &[&wrong, &g1]).is_err());
    }

    #[test]
    fn full_cycles_repeat_the_solve_phase_until_deadline_and_count_are_met() {
        for (name, min, ms, at_least) in NAMES
            .into_iter()
            .flat_map(|n| [(n, 1, 300, 2), (n, 3, 0, 3)])
        {
            let until = Instant::now() + std::time::Duration::from_millis(ms);
            let rep = Repeat { min, until };
            let spec = Spec::named(name, true).unwrap();
            let inp = inputs(&spec, 9);
            let mut tally = Tally::default();
            let out = run_cycle(
                &spec,
                &inp,
                &mut tally,
                &mut Tracer::new(false),
                Mode::Full,
                rep,
            );
            assert!(
                out.solve_s.len() >= at_least,
                "{name}: {} solve phases",
                out.solve_s.len()
            );
            assert_eq!(tally.failed, 0, "{name}: {:?}", tally.failures);
            let per_phase = (tally.attempted as usize) / out.solve_s.len();
            assert_eq!(
                per_phase * out.solve_s.len(),
                tally.attempted as usize,
                "{name}"
            );
        }
    }

    #[test]
    fn same_seed_gives_same_counts() {
        for name in ["poisson7", "poisson7_dist2"] {
            let (_, a) = tiny_cycle(name);
            let (_, b) = tiny_cycle(name);
            assert_eq!(a.counts, b.counts, "{name}");
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        let spec = Spec::named("poisson27_k8", true).unwrap();
        let (a, b, c) = (inputs(&spec, 1), inputs(&spec, 1), inputs(&spec, 2));
        assert_eq!(a.rhs, b.rhs);
        assert_ne!(a.rhs, c.rhs);
        assert_eq!(a.rhs.len(), spec.k);
        assert_ne!(a.rhs[0], a.rhs[1], "batch columns must differ");
        assert_eq!(a.a.values(), c.a.values());
    }

    #[test]
    fn wrong_answers_are_counted_not_fatal() {
        // A solver that "converges" to a wrong vector must show up as a
        // failure in the tally.
        let spec = Spec::named("poisson7", true).unwrap();
        let inp = inputs(&spec, 3);
        let mut tally = Tally::default();
        let x = vec![0.0; inp.a.nrows()];
        tally.record("solve", check_solution(&inp.a, &x, &inp.rhs[0], true));
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }
}
