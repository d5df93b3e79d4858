#!/usr/bin/env python3
"""fairclf benchmark: one workload per invocation, end-to-end or traced.

    python3 bench/run.py --workload census_logreg --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each pass of the workload runs in a fresh
worker process (``worker.py``) on inputs made from ``--seed`` and the pass
index; a new pass starts while fewer than ``--seconds`` have passed. The worker's fits
are checked (see ``checks.py``) and the result is the last line of standard
output: one JSON object with ``correct``, ``attempted`` (fits), ``failed``
(fits that raised) and ``metrics``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes on the same inputs and
reports the per-layer metrics (medians over traced passes), each layer's self
time and the tracing overhead (traced minus untraced ``wall_s``). The spans of
each traced pass are written under ``.bench_work/traces/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# the worker processes must end before this, whatever --seconds asks for
DEADLINE_S = 170.0
MIN_SETUPS = 3

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "fit_certified_frac": "frac",
    "test_accuracy": "frac",
    "p_percent_c0": "%",
}

PER_LAYER = {
    "solvers.constraint_s": "s",
    "solvers.constraint_calls": "count",
    "solvers.jacobian_bytes": "bytes",
    "solvers.oracle_s": "s",
    "solvers.oracle_calls": "count",
    "solvers.solve_qp_s": "s",
    "solvers.solve_qp_calls": "count",
    "solvers.inner_iterations": "count",
    "solvers.uncertified": "count",
    "solvers.minimize_smooth_s": "s",
    "solvers.minimize_smooth_calls": "count",
    "solvers.self_s": "s",
    "models.fit_logreg_s": "s",
    "models.fit_logreg_fair_s": "s",
    "models.fit_logreg_fairness_max_s": "s",
    "models.fit_logreg_fine_grained_s": "s",
    "models.fit_linear_svm_fair_s": "s",
    "models.fit_kernel_svm_fair_s": "s",
    "models.fit_logreg_calls": "count",
    "models.fit_s_p50": "s",
    "models.self_s": "s",
    "models.gram_matrix_s": "s",
    "models.gram_matrix_calls": "count",
    "models.gram_bytes": "bytes",
    "models.decision_values_s": "s",
    "sweep.fits_per_cell": "ratio",
    "sweep.cells": "count",
    "sweep.cells_failed": "count",
    "sweep.run_sweep_s": "s",
    "sweep.emit_results_s": "s",
    "sweep.self_s": "s",
    "metrics.audit_s": "s",
    "metrics.audit_calls": "count",
    "metrics.self_s": "s",
    "cli.cli_main_s": "s",
    "cli.self_s": "s",
    "ingest.load_adult_s": "s",
    "ingest.rows_read": "count",
    "ingest.self_s": "s",
    "data.split_s": "s",
    "data.standardize_columns_s": "s",
    "data.self_s": "s",
    "synth.generate_s": "s",
    "synth.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def pass_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Runner:
    def __init__(self, workload: str, deadline: float, trace: bool):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.deadline = deadline
        work = ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        self.inputs = Path(tempfile.mkdtemp(prefix=workload + "-", dir=work))
        self.traces = work / "traces" / workload
        if trace:
            shutil.rmtree(self.traces, ignore_errors=True)
            self.traces.mkdir(parents=True)

    def worker(self, params: dict, trace: Path | None = None, setup_only: bool = False) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.name, "--params", json.dumps(params)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        spawned = time.monotonic()
        cmd += ["--spawned", repr(spawned)]
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(self.deadline - spawned, 1.0)
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def pass_wall(passes: list[dict]) -> float:
    """Wall time of one pass: the sum over its segments of their fastest time.

    Outside load only ever adds time, and on a shared machine it comes in
    bursts of one to a few seconds, each slowing a stretch of one pass. Every
    pass does the same work segment by segment, so the fastest time of each
    segment across the run's passes is the least disturbed measurement of it.
    A median per segment (or over whole passes) still takes in every burst
    that hits half the passes.
    """
    if len({len(p["segments"]) for p in passes}) != 1:
        return min(p["wall_s"] for p in passes)
    return sum(min(segment) for segment in zip(*(p["segments"] for p in passes)))


def end_to_end(untraced: list[dict], setups: list[float]) -> dict:
    fits = [f for p in untraced for f in p["fits"]]
    accuracy = [a for p in untraced for a in p["accuracy"]]
    p_c0 = [v for p in untraced for v in p["p_percent_c0"]]
    return {
        "setup_s": _median(setups),
        "wall_s": pass_wall(untraced),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
        "fit_certified_frac": sum(f["status"] == "converged" for f in fits) / len(fits),
        "test_accuracy": statistics.fmean(accuracy),
        "p_percent_c0": statistics.fmean(p_c0),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name in PER_LAYER:
        values = []
        for p in traced:
            layers = p["layers"]
            if name in ("sweep.cells", "sweep.cells_failed"):
                values.append(p[name.split(".", 1)[1]])
            elif name == "sweep.fits_per_cell":
                values.append(layers.get("sweep.solves", 0) / p["cells"] if p["cells"] else 0.0)
            elif name == "models.fit_s_p50":
                values.extend(f["seconds"] for f in p["fits"])
            elif name != "trace.overhead_s":
                values.append(layers.get(name, 0))
        out[name] = _median(values)
    out["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    # on SIGTERM, unwind: subprocess.run kills and waits for the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "fairclf" / "__init__.py").is_file():
        print(f"error: no fairclf sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, start + DEADLINE_S, bool(args.trace))
    window_end = start + args.seconds
    untraced: list[dict] = []
    traced: list[dict] = []
    first_params = None
    try:
        index = 0
        while True:
            params = runner.workload.prepare(runner.inputs, pass_seed(args.seed, index), index)
            first_params = first_params or params
            # traced and untraced passes share inputs; alternate which goes first
            order = (False, True) if index % 2 == 0 else (True, False)
            for trace in order if args.trace else (False,):
                if trace:
                    traced.append(runner.worker(params, trace=runner.traces / f"pass_{index}.json"))
                else:
                    untraced.append(runner.worker(params))
            index += 1
            if time.monotonic() >= window_end:
                break
        setups = [p["setup_s"] for p in untraced]
        if not args.trace:
            while len(setups) < MIN_SETUPS:
                setups.append(runner.worker(first_params, setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    passes = untraced + traced
    fits = [f for p in passes for f in p["fits"]]
    failed_checks = [c for p in passes for c in p["failed_checks"]]
    for message in failed_checks:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(untraced, setups), END_TO_END

    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(
        f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"passes, {len(fits)} fits, {sum(f['status'] != 'converged' for f in fits)} not certified"
    )
    print("  pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    result = {
        "correct": not failed_checks,
        "attempted": len(fits),
        "failed": sum(f["status"] == "raised" for f in fits),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
