"""One benchmark process: set up a workload's inputs, or run and check it.

``run.py`` starts this file in a fresh interpreter for every set-up and for the
measured run, so that set-up time includes the import of ``tdrepdyn`` and the
measured run's resource usage (CPU, peak RSS, pool workers) is its own.

    python3 bench/child.py setup   --workload W --seed S --work DIR
    python3 bench/child.py measure --workload W --seed S --seconds N --trace 0|1 \
                                   --work DIR --result FILE
    python3 bench/child.py record  --workload W --seed 0 --work DIR

``DIR`` must be the relative path ``.bench_work/<workload>``, because the
experiment manifests record the output directory. Set ``PYTHONPATH=src``.

With ``--trace 0``, ``measure`` warms imports and caches with a short
invocation, then calls ``tdrepdyn.cli.main`` in a closed loop over the seed's
invocations until their summed wall time reaches ``--seconds``.

With ``--trace 1`` it first runs the reference invocation (the default seed's
first invocation) untraced, so that the deviation from the recorded reference
is measured whatever the seed. It then runs the seed's first invocation
untraced, installs the tracer and runs the workload's fixed traced invocations, whose spans give the
per-layer numbers. The first traced invocation repeats the untraced one: its
outputs must be byte-identical, and the two wall times give the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl


# Machine speed on a shared host drifted by about 20% either way within
# minutes while this benchmark was written: 15 s runs of the same simulate
# inputs ran at 0.60 to 0.86 trials/s. A fixed numpy loop that shares no code
# with tdrepdyn, timed before and after every measured invocation, tracks that
# drift; scaling by it cut the same-input spread from 24% to 8%. The time
# metrics are scaled to the speed at which the loop takes CALIBRATION_NOMINAL_S
# (about its time on the 2-vCPU VM where the benchmark was written).
CALIBRATION_NOMINAL_S = 0.065


def calibration_s() -> float:
    """Time a fixed loop of the small-matrix numpy calls tdrepdyn's hot path makes."""
    import numpy as np

    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 30)) + 30 * np.eye(30)
    phi = rng.standard_normal((30, 2))
    t0 = time.perf_counter()
    for _ in range(2000):
        G = phi.T @ A @ phi
        np.linalg.solve(G, phi.T @ A[:, :1])
        np.linalg.cond(G)
    return time.perf_counter() - t0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


@dataclass
class Invocation:
    seed: int
    j: int
    wall: float
    cpu: float
    outcome: wl.Outcome


def run_invocation(cli, workload, seed: int, j: int, work: Path) -> Invocation:
    shutil.rmtree(work / "out", ignore_errors=True)
    argv = workload.argv(seed, j, work)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        rc = exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    outcome = workload.check(seed, j, work, rc)
    return Invocation(seed, j, wall, cpu, outcome)


class Checker:
    """Collects check results and the deviation from the recorded reference."""

    def __init__(self, workload):
        self.reference = wl.load_reference(workload.name)
        self.problems: list[str] = []
        self.max_dev = 0.0
        self.compared = 0
        self.identical = 0

    def add(self, inv: Invocation) -> None:
        out = inv.outcome
        key = f"{inv.seed}:{inv.j}"
        if key in self.reference and not out.failed:
            dev, same = wl.compare(out, self.reference[key])
            self.max_dev = max(self.max_dev, dev)
            self.compared += 1
            self.identical += same
        self.problems.extend(f"seed {inv.seed} invocation {inv.j}: {p}" for p in out.problems)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, if its library can be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(workload, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "trials_per_invocation": workload.trials,
        "trial_reduction_factor": workload.trial_reduction,
        "jobs": workload.jobs,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(args) -> dict:
    from tdrepdyn import cli

    workload = wl.WORKLOADS[args.workload]
    work = Path(args.work)
    checker = Checker(workload)

    result = {"record": run_record(workload, args.seed, args.seconds, args.trace)}

    if not args.trace:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(workload.argv(wl.DEFAULT_SEED, 0, work, warm_up=True))
        if rc != 0:
            checker.problems.append(f"warm-up invocation exited with {rc}")
        runs = []
        calibration = [calibration_s()]
        elapsed = 0.0
        j = 0
        while elapsed < args.seconds:
            inv = run_invocation(cli, workload, args.seed, j % workload.cycle, work)
            calibration.append(calibration_s())
            checker.add(inv)
            runs.append(inv)
            elapsed += inv.wall
            j += 1
        # each invocation is scaled by the mean of the loops timed around it
        scale = [2 * CALIBRATION_NOMINAL_S / (a + b) for a, b in zip(calibration, calibration[1:])]
        self_ru = resource.getrusage(resource.RUSAGE_SELF)
        child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        attempted = sum(r.outcome.attempted for r in runs)
        failed = sum(r.outcome.failed for r in runs)
        result.update(
            invocations=len(runs),
            attempted=attempted,
            failed=failed,
            wall_s=elapsed,
            cpu_s=sum(r.cpu for r in runs),
            nominal_wall_s=sum(r.wall * f for r, f in zip(runs, scale)),
            nominal_cpu_s=sum(r.cpu * f for r, f in zip(runs, scale)),
            calibration_s=calibration,
            peak_rss_mb=max(self_ru.ru_maxrss, child_ru.ru_maxrss) / 1024.0,
            invocation_walls=[r.wall for r in runs],
        )
    else:
        import tracing

        worker_dir = work / "trace"
        shutil.rmtree(worker_dir, ignore_errors=True)
        worker_dir.mkdir(parents=True)
        checker.add(run_invocation(cli, workload, wl.DEFAULT_SEED, 0, work))
        baseline = run_invocation(cli, workload, args.seed, 0, work)
        checker.add(baseline)
        tracer = tracing.Tracer(str(worker_dir))
        installed = tracing.install(tracer)
        runs = []
        for j in range(workload.trace_invocations):
            inv = run_invocation(cli, workload, args.seed, j, work)
            checker.add(inv)
            runs.append(inv)
        same_bytes = bool(baseline.outcome.hashes) and (
            runs[0].outcome.hashes == baseline.outcome.hashes
        )
        if not same_bytes:
            checker.problems.append("traced outputs differ from the untraced outputs")
        merged = tracing.Merged(tracer.snapshot(), tracing.load_worker_snapshots(str(worker_dir)))
        attempted = sum(r.outcome.attempted for r in runs)
        failed = sum(r.outcome.failed for r in runs)
        layers = tracing.layer_metrics(merged, trials=max(1, attempted - failed),
                                       invocations=len(runs), jobs=workload.jobs)
        checks = tracing.self_checks(merged)
        layers["trace.overhead_ratio"] = runs[0].wall / baseline.wall
        layers["trace.selfcheck_failures"] = float(
            checks["nfev_mismatches"]
            + (checks["key_matrix_calls_in_fixed_point"] != checks["fixed_point_calls"])
        )
        layers["trace.absent_spans"] = float(len(installed["absent"]))
        result.update(
            invocations=len(runs),
            attempted=attempted,
            failed=failed,
            layers=layers,
            self_checks=checks,
            installed=installed,
            traced_bytes_identical=same_bytes,
        )

    result.update(
        curve_max_abs_dev=checker.max_dev,
        reference_invocations=checker.compared,
        reference_identical=checker.identical,
        problems=checker.problems,
    )
    return result


def record(args) -> None:
    """Write the reference outputs of every invocation of the reference seeds."""
    from tdrepdyn import cli

    workload = wl.WORKLOADS[args.workload]
    work = Path(args.work)
    doc = {}
    for seed in wl.REFERENCE_SEEDS:
        workload.prepare(seed, work)
        for j in range(wl.REFERENCE_INVOCATIONS):
            inv = run_invocation(cli, workload, seed, j, work)
            if inv.outcome.problems or inv.outcome.failed:
                raise SystemExit(f"seed {seed} invocation {j}: {inv.outcome.problems}")
            doc[f"{seed}:{j}"] = {"hashes": inv.outcome.hashes, "values": inv.outcome.values}
            print(f"{workload.name} seed {seed} invocation {j}: {inv.wall:.3f} s")
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    path = wl.REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["setup", "measure", "record"])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.role == "setup":
        import tdrepdyn.cli  # noqa: F401  -- the import is part of set-up time

        wl.WORKLOADS[args.workload].prepare(args.seed, Path(args.work))
        return 0
    if args.role == "record":
        record(args)
        return 0
    result = measure(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
