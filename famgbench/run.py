#!/usr/bin/env python3
"""famg benchmark: three AMG workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 famgbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `famgbench` worker (release, default features) from source,
runs the workload in a child process with its rayon pool size pinned,
checks every answer, and prints a metric table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics. A traced run also writes a per-level ledger
(`<stem>.ledger.tsv`) and the benchmark-side spans (`<stem>.spans.json`)
to `.famgbench/` in the repository root. Exact counts (iterations,
hierarchy shape, interpolation nnz, RAP flops, message and byte counts)
are kept per (binary, workload, seed) in `.famgbench/fingerprints/`; a
later run of the same binary and seed that disagrees is reported as
incorrect.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".famgbench")

# Workload name -> pinned rayon pool size.
WORKLOADS = {
    "poisson7": 2,
    "poisson27_k8": 2,
    "poisson7_dist2": 1,
}
DIST_WORKLOAD = "poisson7_dist2"

# (name, unit) of every end-to-end metric, reported with --trace 0.
END_TO_END = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("tts_s", "s"),
    ("iterations", "count"),
    ("peak_rss_mib", "MiB"),
    ("solve_ok_frac", "frac"),
]

# (name, unit) of every per-layer metric, reported with --trace 1.
PER_LAYER = [
    ("sparse.spmv.l0.s", "s"),
    ("sparse.spmv.l0.gbs", "GB/s"),
    ("sparse.spmv.l0.stream_frac", "frac"),
    ("sparse.residual.l0.gbs", "GB/s"),
    ("sparse.transfer.l0.s", "s"),
    ("sparse.vecops.l0.gbs", "GB/s"),
    ("sparse.spmm.l0.s", "s"),
    ("sparse.spmm.l0.gbs", "GB/s"),
    ("sparse.spmm.l0.stream_frac", "frac"),
    ("sparse.rap.l0.s", "s"),
    ("sparse.rap.l0.flops", "count"),
    ("sparse.transpose.l0.s", "s"),
    ("sparse.rap_numeric.l0.s", "s"),
    ("core.strength.l0.s", "s"),
    ("core.coarsen.l0.s", "s"),
    ("core.reorder.l0.s", "s"),
    ("core.interp.l0.s", "s"),
    ("core.interp.l0.nnz", "count"),
    ("core.smoother_setup.l0.s", "s"),
    ("core.smoother.l0.s", "s"),
    ("core.smoother.l0.gbs", "GB/s"),
    ("core.smoother.l0.stream_frac", "frac"),
    ("core.smoother_batch.l0.s", "s"),
    ("core.smoother_batch.l0.gbs", "GB/s"),
    ("core.smoother_batch.l0.stream_frac", "frac"),
    ("core.vcycle_batch.s", "s"),
    ("core.vcycle.s", "s"),
    ("core.vcycle.lc_share", "frac"),
    ("core.hierarchy.levels", "count"),
    ("core.hierarchy.op_complexity", "ratio"),
    ("core.hierarchy.grid_complexity", "ratio"),
    ("core.solver.conv_factor", "ratio"),
    ("krylov.fgmres.precond_share", "frac"),
    ("krylov.fgmres.self_s", "s"),
    ("krylov.fgmres.precond_calls", "count"),
    ("dist.setup.msgs", "count"),
    ("dist.setup.bytes", "bytes"),
    ("dist.solve.msgs_per_iter", "count"),
    ("dist.solve.bytes_per_iter", "bytes"),
    ("dist.solve.wait_frac", "frac"),
    ("dist.imbalance", "ratio"),
    ("dist.spmv.l0.s", "s"),
    ("dist.halo.l0.s", "s"),
    ("dist.vcycle.s", "s"),
    ("pool.speedup.spmv", "ratio"),
    ("pool.speedup.smoother", "ratio"),
    ("pool.speedup.rap", "ratio"),
    ("pool.speedup.interp", "ratio"),
    ("machine.stream_triad_gbs", "GB/s"),
    ("machine.stream_triad_gbs_1t", "GB/s"),
    ("trace.overhead_s", "s"),
]

# Per-layer values that are exact counts: they join the determinism store.
EXACT_LAYER = [
    "core.interp.l0.nnz",
    "sparse.rap.l0.flops",
    "krylov.fgmres.precond_calls",
    "dist.setup.msgs",
    "dist.setup.bytes",
    "dist.solve.msgs_per_iter",
    "dist.solve.bytes_per_iter",
]

# A run must end within 180 s of the worker build.
RUN_BUDGET_S = 170.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Failure(Exception):
    """A worker did not produce a result."""


def build():
    """Builds the worker; returns its path or None when the build fails."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"famgbench: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("famgbench: worker build failed")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "famgbench")
    return exe if os.path.isfile(exe) else None


def worker_env(pool):
    """The caller's environment with every solver knob pinned: the pool
    size is the workload's, and no FAMG_* switch is inherited."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FAMG_") and k != "RAYON_NUM_THREADS"}
    env["RAYON_NUM_THREADS"] = str(pool)
    return env


def run_worker(exe, args, pool, deadline):
    """Runs one worker process to completion; returns its JSON result."""
    left = deadline - time.monotonic()
    if left <= 1:
        raise Failure(f"no time left for {args[0]}")
    try:
        done = subprocess.run([exe] + args, cwd=ROOT, env=worker_env(pool),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=left, text=True)
    except subprocess.TimeoutExpired:
        raise Failure(f"{args[0]} timed out") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise Failure(f"{' '.join(args)} exited with {done.returncode}")
    return json.loads(lines[-1])


def exact_counts(result):
    """The run's exact counts merged over its cycles, with every
    disagreement between cycles."""
    merged, problems = {}, []
    for i, cycle in enumerate(result.get("counts", [])):
        for k, v in cycle.items():
            if merged.setdefault(k, v) != v:
                problems.append(f"cycle {i}: {k} = {v!r}, an earlier cycle had {merged[k]!r}")
    return merged, problems


def binary_id(exe):
    """Content hash of the worker binary: records are kept per build."""
    h = hashlib.sha256()
    with open(exe, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def load_json(path, default):
    if not os.path.exists(path):
        return default
    with open(path) as f:
        return json.load(f)


def save_json(path, value):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def fingerprint_check(bin_id, key, counts):
    """Compares `counts` with what earlier runs of the same binary stored
    under `key` and merges them in; returns the mismatches."""
    path = os.path.join(OUT, "fingerprints", bin_id, key + ".json")
    stored = load_json(path, {})
    bad = [f"{key}: {k} = {counts[k]!r}, earlier run of this seed had {stored[k]!r}"
           for k in sorted(counts) if k in stored and stored[k] != counts[k]]
    if not bad:
        stored.update(counts)
        save_json(path, stored)
    return bad


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(result):
    """End-to-end metric values from an untraced worker result."""
    attempted = max(result["attempted"], 1)
    iterations = [c["iterations"] for c in result["counts"] if "iterations" in c]
    return {
        "setup_s": median(result["setup_s"]),
        "solve_s": median(result["solve_s"]),
        "tts_s": median(result["tts_s"]),
        "iterations": max(iterations) if iterations else 0,
        "peak_rss_mib": result["peak_rss_mib"],
        "solve_ok_frac": (attempted - result["failed"]) / attempted,
    }


def print_table(metrics, units, samples):
    print(f"{'metric':<38} {'value':>14} {'unit':<6} samples")
    for name, unit in units:
        n = samples.get(name)
        extra = "" if n is None else f"{len(n):>3}  [{min(n):.4g} .. {max(n):.4g}]"
        print(f"{name:<38} {metrics[name]:>14.6g} {unit:<6} {extra}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    exe = build()
    if exe is None:
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    pool = WORKLOADS[a.workload]
    seed = str(a.seed)
    attempted = failed = 0
    problems = []
    metrics = {}
    samples = {}
    units = PER_LAYER if a.trace else END_TO_END
    bin_id = binary_id(exe)
    try:
        cmd = ["run", "--workload", a.workload, "--seed", seed, "--seconds", str(a.seconds),
               "--trace", str(a.trace), "--out", OUT]
        res = run_worker(exe, cmd, pool, deadline)
        attempted += res["attempted"]
        failed += res["failed"]
        problems += res["failures"]
        counts, mismatches = exact_counts(res)
        problems += mismatches
        if a.trace:
            metrics.update(res["layer"])
            # The pool-size speedups: level-0 cells of the poisson7 problem
            # at pool 1 and pool 2, each in a process of its own.
            cells = {n: run_worker(exe, ["pool-probe", "--seed", seed], n, deadline)
                     for n in (1, 2)}
            for k in ("spmv", "smoother", "rap", "interp"):
                metrics[f"pool.speedup.{k}"] = cells[1][k] / cells[2][k]
            if a.workload != DIST_WORKLOAD:
                # The distributed layer runs only in poisson7_dist2: probe
                # that pipeline in a process with its pool size. Its exact
                # counts must match that workload's for the same seed.
                d = run_worker(exe, ["dist-probe", "--seed", seed],
                               WORKLOADS[DIST_WORKLOAD], deadline)
                attempted += d["attempted"]
                failed += d["failed"]
                problems += d["failures"]
                metrics.update(d["layer"])
                problems += fingerprint_check(bin_id, f"{DIST_WORKLOAD}_seed{seed}", d["counts"])
            counts.update({k: metrics[k] for k in EXACT_LAYER if k in metrics})
        else:
            metrics.update(end_to_end(res))
            for k in ("setup_s", "solve_s", "tts_s"):
                samples[k] = res[k]
        problems += fingerprint_check(bin_id, f"{a.workload}_seed{seed}", counts)
    except (Failure, KeyError, ValueError, ZeroDivisionError) as e:
        problems.append(f"benchmark run failed: {e!r}")
        attempted = max(attempted, 1)
        failed = max(failed, 1)

    missing = [n for n, _ in units if n not in metrics]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    bad = [n for n, _ in units if n in metrics and not math.isfinite(metrics[n])]
    if bad:
        problems.append(f"metrics not finite: {', '.join(bad)}")
    for msg in problems:
        log(f"famgbench: {msg}")
    values = {n: float(metrics[n]) if n not in missing + bad else 0.0 for n, _ in units}
    log(f"famgbench: {a.workload} seed {seed}, pool {pool}, {os.cpu_count()} CPUs available")
    print_table(values, units, samples)
    if a.trace:
        print(f"ledger: {os.path.join(OUT, f'{a.workload}_seed{seed}.ledger.tsv')}")
    out = {
        "correct": not problems and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
