//! The benchmark's own correctness gate.
//!
//! Every solution is re-checked with a plain sequential residual loop over
//! the input operator's CSR arrays, independent of the solver's kernels,
//! and every operation (one solve or one batch column) is
//! counted as attempted and, if it went wrong in any way, as failed.

use famg_sparse::Csr;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Relative-residual tolerance every workload solves to.
pub const TOL: f64 = 1e-7;

/// True relative residual `‖b − A x‖ / ‖b‖`, computed with a sequential
/// loop (`‖b − A x‖` alone when `b = 0`).
pub fn rel_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    assert_eq!(x.len(), a.ncols(), "solution length");
    assert_eq!(b.len(), a.nrows(), "right-hand side length");
    let (rowptr, colidx, vals) = (a.rowptr(), a.colidx(), a.values());
    let mut rr = 0.0;
    let mut bb = 0.0;
    for i in 0..a.nrows() {
        let mut r = b[i];
        for k in rowptr[i]..rowptr[i + 1] {
            r -= vals[k] * x[colidx[k]];
        }
        rr += r * r;
        bb += b[i] * b[i];
    }
    if bb == 0.0 {
        rr.sqrt()
    } else {
        (rr / bb).sqrt()
    }
}

/// Checks one solution: the solver must report convergence, and the true
/// relative residual must be finite and within [`TOL`].
pub fn check_solution(a: &Csr, x: &[f64], b: &[f64], converged: bool) -> Result<(), String> {
    let r = rel_residual(a, x, b);
    if !r.is_finite() {
        return Err(format!("true relative residual is {r}"));
    }
    if r > TOL {
        return Err(format!("true relative residual {r:.3e} > {TOL:e}"));
    }
    if !converged {
        return Err("solver reported no convergence".into());
    }
    Ok(())
}

/// Attempted/failed operation counts with the reason of each failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records the outcome of one operation.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Records `ops` operations that could not run because `what` failed
    /// (returned an error or panicked) before producing their results.
    pub fn record_lost(&mut self, what: &str, ops: u64, why: &str) {
        self.attempted += ops;
        self.failed += ops;
        self.failures
            .push(format!("{what}: {why} ({ops} operation(s) lost)"));
    }
}

/// Runs `f`, turning a panic into an `Err` carrying the panic message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        format!("panicked: {msg}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = famg_matgen::laplace2d(6, 5);
        let x: Vec<f64> = (0..a.nrows()).map(|i| i as f64 * 0.25 - 1.0).collect();
        let b = famg_matgen::rhs::rhs_for_solution(&a, &x);
        assert!(rel_residual(&a, &x, &b) < 1e-15);
    }

    #[test]
    fn residual_matches_hand_computation() {
        // A = [[2, -1], [-1, 2]], x = 0 gives ‖b‖/‖b‖ = 1; x = [1, 0]
        // gives r = b - [2, -1] = [-1, 2] for b = [1, 1].
        let a = Csr::from_triplets(
            2,
            2,
            vec![(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)],
        );
        let b = [1.0, 1.0];
        assert_eq!(rel_residual(&a, &[0.0, 0.0], &b), 1.0);
        let expect = (5.0f64 / 2.0).sqrt();
        assert!((rel_residual(&a, &[1.0, 0.0], &b) - expect).abs() < 1e-15);
        assert_eq!(rel_residual(&a, &[0.0, 0.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn check_rejects_bad_solutions() {
        let a = famg_matgen::laplace2d(4, 4);
        let x = vec![1.0; a.nrows()];
        let b = famg_matgen::rhs::rhs_for_solution(&a, &x);
        assert!(check_solution(&a, &x, &b, true).is_ok());
        assert!(check_solution(&a, &x, &b, false).is_err());
        let off: Vec<f64> = x.iter().map(|v| v + 1e-3).collect();
        assert!(check_solution(&a, &off, &b, true).is_err());
        let mut nan = x.clone();
        nan[3] = f64::NAN;
        let err = check_solution(&a, &nan, &b, true).unwrap_err();
        assert!(err.contains("NaN"), "{err}");
    }

    #[test]
    fn tally_counts_failures_and_panics() {
        let mut t = Tally::default();
        t.record("solve 0", Ok(()));
        t.record("solve 1", Err("diverged".into()));
        let p = guarded(|| -> u32 { panic!("boom") });
        assert_eq!(p.clone().unwrap_err(), "panicked: boom");
        t.record("solve 2", p.map(|_| ()));
        t.record_lost("setup", 3, "panicked");
        assert_eq!((t.attempted, t.failed), (6, 5));
        assert_eq!(t.failures.len(), 3);
        assert!(t.failures[0].starts_with("solve 1: diverged"));
    }
}
