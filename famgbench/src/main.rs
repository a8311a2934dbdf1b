//! famgbench worker: runs one workload (or one reference probe) in this
//! process and prints one JSON object as the last line of stdout.
//!
//! ```text
//! famgbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! famgbench pool-probe --seed <n>
//! famgbench dist-probe --seed <n>
//! ```
//!
//! Orchestration (pool pinning, medians, the determinism store and the
//! final metric line) lives in `run.py` next to this crate; the worker
//! only measures. The rayon pool size is read from
//! `RAYON_NUM_THREADS` by the solver crates; the worker refuses to run a
//! workload under any other pool size than the one the workload pins.

mod check;
mod probe;
mod trace;
mod workload;

use check::Tally;
use famg_core::AmgSolver;
use famg_prof::json::Json;
use famg_sparse::traffic::effective_bandwidth_gbs;
use probe::Ledger;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{inputs, run_cycle, CycleOut, Kind, Mode, Repeat, Spec};

/// Solve phases an untraced run holds at least, so that `solve_s` is a
/// median over at least this many samples (batches for `poisson27_k8`)
/// even when the host is slow.
const MIN_SOLVE_PHASES: usize = 5;

/// Median of `v` (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("missing mode (run | pool-probe | dist-probe)")?;
    let mut a = Args {
        mode,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: ".".into(),
    };
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v == "1",
            "--out" => a.out = v,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn num_map(m: &BTreeMap<String, f64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("famgbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode.as_str() {
        "run" => run(&args),
        "pool-probe" => Ok(pool_probe(args.seed)),
        "dist-probe" => dist_probe(args.seed),
        m => Err(format!("unknown mode {m}")),
    };
    match result {
        Ok(j) => {
            println!("{}", j.dump());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("famgbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn check_pool(spec: &Spec) -> Result<(), String> {
    let pool = famg_sparse::partition::num_threads();
    if pool == spec.pool {
        Ok(())
    } else {
        Err(format!(
            "{} pins a pool of {} but the process has {pool}",
            spec.name, spec.pool
        ))
    }
}

fn run(args: &Args) -> Result<Json, String> {
    let spec = Spec::named(&args.workload, false)
        .ok_or(format!("unknown workload {:?}", args.workload))?;
    check_pool(&spec)?;
    let inp = inputs(&spec, args.seed);
    let mut tally = Tally::default();
    let mut cycles: Vec<CycleOut> = Vec::new();
    let mut layer = BTreeMap::new();
    let mut ledger = Ledger::default();
    let mut tr = Tracer::new(args.trace);
    if args.trace {
        // The traced cycle, whose hierarchy the layer probes run on. The
        // only work tracing adds to it is the bookkeeping of its spans, so
        // its overhead is their number times the measured cost of one.
        let mut traced = run_cycle(
            &spec,
            &inp,
            &mut tally,
            &mut tr,
            Mode::Traced,
            Repeat::once(),
        );
        let spans = tr.spans_recorded() as f64;
        layer.insert("trace.overhead_s".into(), spans * trace::span_cost_s(9));
        probe_layers(
            &spec,
            &inp,
            &mut traced,
            &mut tally,
            &mut tr,
            &mut ledger,
            &mut layer,
        );
        cycles.push(traced);
    } else {
        // Two cycles, each a setup and one solve phase. The second then
        // repeats its solve phase on its hierarchy until `--seconds` have
        // passed since the first began and the run holds
        // `MIN_SOLVE_PHASES` solve phases.
        let until = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
        let second = Repeat {
            min: MIN_SOLVE_PHASES - 1,
            until,
        };
        for rep in [Repeat::once(), second] {
            cycles.push(run_cycle(&spec, &inp, &mut tally, &mut tr, Mode::Full, rep));
        }
    }
    drop(inp);
    if args.trace {
        let sp = tr.begin("machine.stream");
        let len = 4 * probe::llc_bytes() / 8;
        let s2 = probe::stream_triad(len, 2, 5);
        let s1 = probe::stream_triad(len, 1, 5);
        tr.end(sp);
        layer.insert("machine.stream_triad_gbs".into(), s2);
        layer.insert("machine.stream_triad_gbs_1t".into(), s1);
        for key in [
            "sparse.spmv",
            "sparse.spmm",
            "core.smoother",
            "core.smoother_batch",
        ] {
            if let Some(g) = layer.get(&format!("{key}.l0.gbs")).copied() {
                layer.insert(format!("{key}.l0.stream_frac"), g / s2);
            }
        }
        let stem = format!("{}/{}_seed{}", args.out, spec.name, args.seed);
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out))?;
        std::fs::write(format!("{stem}.ledger.tsv"), ledger.to_tsv(s2))
            .map_err(|e| e.to_string())?;
        std::fs::write(format!("{stem}.spans.json"), tr.to_json().pretty())
            .map_err(|e| e.to_string())?;
    }

    let all = |f: fn(&CycleOut) -> Vec<f64>| -> Vec<f64> { cycles.iter().flat_map(f).collect() };
    let counts: Vec<Json> = cycles.iter().map(|c| num_map(&c.counts)).collect();
    Ok(Json::Obj(vec![
        ("workload".into(), Json::Str(spec.name.into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("pool".into(), Json::int(spec.pool as u64)),
        ("attempted".into(), Json::int(tally.attempted)),
        ("failed".into(), Json::int(tally.failed)),
        (
            "failures".into(),
            Json::Arr(tally.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("setup_s".into(), nums(&all(|c| vec![c.setup_s]))),
        ("solve_s".into(), nums(&all(|c| c.solve_s.clone()))),
        (
            "tts_s".into(),
            nums(&all(|c| c.tts_s.into_iter().collect())),
        ),
        ("counts".into(), Json::Arr(counts)),
        ("peak_rss_mib".into(), Json::Num(peak_rss_mib())),
        ("layer".into(), num_map(&layer)),
    ]))
}

/// Runs the per-layer probes after a traced cycle and fills `layer`.
fn probe_layers(
    spec: &Spec,
    inp: &workload::Inputs,
    traced: &mut CycleOut,
    tally: &mut Tally,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    layer: &mut BTreeMap<String, f64>,
) {
    let cfg = spec.config();
    for k in [
        "core.hierarchy.levels",
        "core.hierarchy.op_complexity",
        "core.hierarchy.grid_complexity",
    ] {
        if let Some(v) = traced.counts.get(k) {
            layer.insert(k.into(), *v);
        }
    }
    layer.insert("core.solver.conv_factor".into(), traced.conv_factor);
    layer.extend(traced.dist.iter().map(|(k, v)| (k.clone(), *v)));

    let op = &inp.a;
    let b = &inp.rhs[0];
    let solver = match traced.solver.take() {
        Some(s) => s,
        None if spec.kind == Kind::Poisson7Dist => {
            // The distributed workload has no serial hierarchy: probe the
            // serial layers on a serial setup of the same operator, in
            // this process's pinned pool.
            let sp = tr.begin("core.setup");
            let s = check::guarded(|| AmgSolver::setup(op, &cfg));
            tr.end(sp);
            match s {
                Ok(s) => s,
                Err(e) => {
                    tally.record("serial probe setup", Err(e));
                    return;
                }
            }
        }
        None => return, // the cycle failed; its failure is already counted
    };
    let h = solver.hierarchy();

    let sp = tr.begin("probe.setup_replay");
    let replay = probe::replay_setup(op, &cfg, ledger, true);
    tr.end(sp);
    let same = replay.level_rows == h.stats.level_rows && replay.interp_nnz == h.stats.interp_nnz;
    tally.record(
        "setup replay",
        if same {
            Ok(())
        } else {
            Err(format!(
                "replayed levels {:?} / interp nnz {:?} differ from setup's {:?} / {:?}",
                replay.level_rows, replay.interp_nnz, h.stats.level_rows, h.stats.interp_nnz
            ))
        },
    );
    drop(replay);
    if let Some(nnz) = h.stats.interp_nnz.first() {
        layer.insert("core.interp.l0.nnz".into(), *nnz as f64);
    }

    let sp = tr.begin("probe.solve_cells");
    probe::solve_cells(h, b, ledger);
    tr.end(sp);
    let sp = tr.begin("probe.vcycle");
    let (vc, vcb) = probe::vcycle_cells(h, b, ledger);
    tr.end(sp);

    let sp = tr.begin("krylov.fgmres");
    match probe::fgmres_cell(op, b, &solver) {
        Ok((wall, iters, calls, pc_s)) => {
            layer.insert("krylov.fgmres.precond_share".into(), pc_s / wall);
            layer.insert(
                "krylov.fgmres.self_s".into(),
                (wall - pc_s) / iters.max(1) as f64,
            );
            layer.insert("krylov.fgmres.precond_calls".into(), calls as f64);
            tally.record("probe fgmres", Ok(()));
        }
        Err(e) => tally.record("probe fgmres", Err(e)),
    }
    tr.end(sp);

    let dist_cells = [
        ("dist.spmv", "dist.spmv.l0.s"),
        ("dist.halo", "dist.halo.l0.s"),
        ("dist.vcycle", "dist.vcycle.s"),
    ];
    for ((kernel, metric), calls) in dist_cells.into_iter().zip(workload::PROBE_CALLS) {
        if let Some(&seconds) = traced.dist.get(metric) {
            ledger.solve(0, kernel, (calls, seconds), 0, 0);
        }
    }

    let l0 = |k: &str| ledger.get(k, 0).cloned();
    let mut put = |name: &str, v: f64| {
        layer.insert(name.to_string(), v);
    };
    for kernel in [
        "sparse.spmv",
        "sparse.spmm",
        "core.smoother",
        "core.smoother_batch",
    ] {
        if let Some(c) = l0(kernel) {
            put(&format!("{kernel}.l0.s"), c.seconds);
            put(
                &format!("{kernel}.l0.gbs"),
                effective_bandwidth_gbs(c.bytes, c.seconds),
            );
        }
    }
    for kernel in ["sparse.residual", "sparse.vecops"] {
        if let Some(c) = l0(kernel) {
            put(
                &format!("{kernel}.l0.gbs"),
                effective_bandwidth_gbs(c.bytes, c.seconds),
            );
        }
    }
    for kernel in [
        "sparse.transfer",
        "sparse.rap",
        "sparse.transpose",
        "sparse.rap_numeric",
        "core.strength",
        "core.coarsen",
        "core.reorder",
        "core.interp",
        "core.smoother_setup",
    ] {
        if let Some(c) = l0(kernel) {
            put(&format!("{kernel}.l0.s"), c.seconds);
        }
    }
    if let Some(c) = l0("sparse.rap") {
        put("sparse.rap.l0.flops", c.flops as f64);
    }
    put("core.vcycle.s", vc);
    put("core.vcycle_batch.s", vcb);
    let covered: f64 = ["core.smoother", "sparse.residual", "sparse.transfer"]
        .iter()
        .filter_map(|k| l0(k).map(|c| c.seconds))
        .sum();
    put("core.vcycle.lc_share", 1.0 - covered / vc);
}

/// Level-0 cell times on the poisson7 problem in this process's pool.
fn pool_probe(seed: u64) -> Json {
    let spec = Spec::named("poisson7", false).expect("poisson7");
    let inp = inputs(&spec, seed);
    let cells = probe::pool_cells(&inp.a, &spec.config(), &inp.rhs[0]);
    Json::Obj(
        std::iter::once((
            "pool".to_string(),
            Json::int(famg_sparse::partition::num_threads() as u64),
        ))
        .chain(
            cells
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::Num(v))),
        )
        .collect(),
    )
}

/// The distributed layer's cells for traced runs of the serial
/// workloads: one traced cycle of the `poisson7_dist2` pipeline.
fn dist_probe(seed: u64) -> Result<Json, String> {
    let spec = Spec::named("poisson7_dist2", false).expect("poisson7_dist2 is a workload");
    check_pool(&spec)?;
    let inp = inputs(&spec, seed);
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false);
    let out = run_cycle(
        &spec,
        &inp,
        &mut tally,
        &mut tr,
        Mode::Traced,
        Repeat::once(),
    );
    let layer = &out.dist;
    Ok(Json::Obj(vec![
        ("attempted".into(), Json::int(tally.attempted)),
        ("failed".into(), Json::int(tally.failed)),
        (
            "failures".into(),
            Json::Arr(tally.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("counts".into(), num_map(&out.counts)),
        ("layer".into(), num_map(layer)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use famg_core::AmgConfig;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn default_config_is_the_paper_setting() {
        let spec = Spec::named("poisson7", false).unwrap();
        let cfg = spec.config();
        let paper = AmgConfig::single_node_paper();
        assert_eq!(
            (cfg.tolerance, cfg.max_levels),
            (paper.tolerance, paper.max_levels)
        );
        assert_eq!(cfg.tolerance, check::TOL);
    }
}
