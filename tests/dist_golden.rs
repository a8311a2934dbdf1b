//! Golden fingerprints of the distributed solve path.
//!
//! The other distributed determinism suites compare two runs of the
//! same code with each other: overlap on against off, a batch column
//! against its solo solve, one rank count against another. This suite
//! pins the absolute result instead. Each case hashes, with FNV-1a, the
//! solution bits gathered in rank order, the iteration count, the final
//! relative residual bits, and the total message and byte counts of the
//! whole run (setup and solve). It covers `dist_fgmres_amg` and
//! `dist_amg_solve` on a 3D Laplacian at 1, 2 and 4 ranks, with halo
//! overlap on and off; both halo modes must produce the same hash.
//!
//! A kernel refactor that changes one floating-point operation, one
//! halo message or one byte moves a hash. Update the constants only for
//! a deliberate numerical change, and say so in the change log.

use famg::core::AmgConfig;
use famg::dist::comm::run_ranks;
use famg::dist::hierarchy::{DistHierarchy, DistOptFlags};
use famg::dist::parcsr::{default_partition, ParCsr};
use famg::dist::solve::{dist_amg_solve, dist_fgmres_amg};
use famg::matgen::laplace3d_7pt;

/// `(ranks, dist_fgmres_amg hash, dist_amg_solve hash)`.
const GOLDEN: [(usize, u64, u64); 3] = [
    (1, 0xce66_0425_a339_b33c, 0xb9cd_b3a6_cf95_7f56),
    (2, 0xc2ec_0664_4614_9284, 0x7598_f428_7923_4e40),
    (4, 0x7651_f080_e6f1_d670, 0x89d2_6410_785b_01f6),
];

fn fnv1a(h: u64, w: u64) -> u64 {
    let mut h = h;
    for b in w.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint(nranks: usize, overlap: bool, fgmres: bool) -> u64 {
    let a = laplace3d_7pt(10, 10, 10);
    let n = a.nrows();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 7 + 3) % 11) as f64 / 11.0 - 0.3)
        .collect();
    let cfg = AmgConfig::multi_node_ei4();
    let dopt = DistOptFlags {
        overlap_comm: overlap,
        ..DistOptFlags::all()
    };
    let starts = default_partition(n, nranks);
    let (parts, report) = run_ranks(nranks, |c| {
        let r = c.rank();
        let (s, e) = (starts[r], starts[r + 1]);
        let pa = ParCsr::from_global_rows(&a, s, e, starts.clone(), r);
        let h = DistHierarchy::build(c, pa, &cfg, dopt);
        let mut x = vec![0.0; e - s];
        let res = if fgmres {
            dist_fgmres_amg(c, &h, &b[s..e], &mut x, 1e-9, 100, 20)
        } else {
            dist_amg_solve(c, &h, &b[s..e], &mut x)
        };
        assert!(res.converged, "ranks {nranks} overlap {overlap}");
        (x, res.iterations, res.final_relres)
    });
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (x, _, _) in &parts {
        for v in x {
            h = fnv1a(h, v.to_bits());
        }
    }
    h = fnv1a(h, parts[0].1 as u64);
    h = fnv1a(h, parts[0].2.to_bits());
    h = fnv1a(h, report.total_messages());
    fnv1a(h, report.total_bytes())
}

#[test]
fn dist_solves_match_golden_fingerprints() {
    let mut got = Vec::new();
    for &(nranks, _, _) in &GOLDEN {
        let fp = |overlap| {
            (
                fingerprint(nranks, overlap, true),
                fingerprint(nranks, overlap, false),
            )
        };
        let (on, off) = (fp(true), fp(false));
        assert_eq!(on, off, "ranks {nranks}: halo overlap changed the result");
        got.push((nranks, on.0, on.1));
    }
    let got_txt: Vec<String> = got
        .iter()
        .map(|(r, f, a)| format!("({r}, {f:#018x}, {a:#018x})"))
        .collect();
    assert_eq!(got, GOLDEN, "fingerprints now: [{}]", got_txt.join(", "));
}
