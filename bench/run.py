"""tdrepdyn benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 bench/run.py --workload fig3_h_sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced; ``--trace 1``
prints the per-layer metrics of a separate traced run. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with its
unit, the deviation from the recorded reference outputs, and the run record
(seed, trial-reduction factor, versions, BLAS threads, source hash).

Load is one closed loop in one process: the next CLI invocation starts when
the previous one returns. The only parallelism is the program's own
``--jobs 2`` in ``fig1_pool``. Scratch files go to ``.bench_work/`` under the
current directory and are removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import CALIBRATION_NOMINAL_S, calibration_s
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TIME_LIMIT_S = 170  # the whole run, set-up included, must end well within 180 s

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "cpu_s_per_trial": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def run_child(cmd: list[str], env: dict, deadline: float) -> int:
    """Run a child in its own process group; kill the whole group if it overruns."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # pool workers left behind by a child that crashed share its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def source_hash(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = root / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else None
    return ref


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in [1, 120]")

    # a terminated benchmark still kills its children's process groups
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "tdrepdyn" / "__init__.py").is_file():
        print(f"no tdrepdyn sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    # relative, because the experiment manifests record the output directory
    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    child = [sys.executable, str(BENCH_DIR / "child.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]

    try:
        setup_s = []
        calibration = [calibration_s()]
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work / "inputs", ignore_errors=True)
            t0 = time.perf_counter()
            rc = run_child(child + ["setup"] + common, env, deadline)
            setup_s.append(time.perf_counter() - t0)
            calibration.append(calibration_s())
            if rc != 0:
                print(f"set-up exited with {rc}", file=sys.stderr)
                return 3
        result_path = work / "result.json"
        rc = run_child(
            child + ["measure"] + common + ["--seconds", str(args.seconds),
                                            "--trace", str(args.trace),
                                            "--result", str(result_path)],
            env, deadline,
        )
        if rc != 0:
            print(f"measured run exited with {rc}", file=sys.stderr)
            return 3
        res = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = res["record"]
    # Scaled to nominal machine speed like the run's other times (see child.py).
    # One loop varies by about 30%, so set-up uses the median of all four.
    nominal_setup_s = (
        statistics.median(setup_s) * CALIBRATION_NOMINAL_S / statistics.median(calibration)
    )
    record.update(
        setup_s=setup_s,
        setup_calibration_s=calibration,
        source_sha256=source_hash(src),
        commit=git_commit(root),
        invocations=res["invocations"],
        reference_invocations=res["reference_invocations"],
        reference_identical=res["reference_identical"],
        total_s=time.monotonic() - start,
    )
    attempted, failed = res["attempted"], res["failed"]
    completed = attempted - failed
    failed_frac = failed / attempted if attempted else 1.0
    correct = not res["problems"] and completed > 0
    if args.trace:
        # the traced run always compares the reference invocation
        correct = correct and res["traced_bytes_identical"] and res["reference_invocations"] > 0
        metrics = dict(res["layers"])
        metrics["curve_max_abs_dev"] = res["curve_max_abs_dev"]
        metrics["failed_frac"] = failed_frac
        units = layer_units(metrics)
        record["self_checks"] = res["self_checks"]
        record["absent_spans"] = res["installed"]["absent"]
        record["wrapped_functions"] = res["installed"]["wrapped"]
        record["binding_sites"] = res["installed"]["binding_sites"]
    else:
        metrics = {
            "trials_per_s": completed / res["nominal_wall_s"],
            "cpu_s_per_trial": res["nominal_cpu_s"] / max(completed, 1),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": nominal_setup_s,
        }
        units = END_TO_END_UNITS
        record["invocation_walls_s"] = [round(w, 4) for w in res["invocation_walls"]]
        record["calibration_s"] = [round(c, 4) for c in res["calibration_s"]]
        print(f"unscaled: {completed / res['wall_s']!r} trials/s, "
              f"{res['cpu_s'] / max(completed, 1)!r} CPU s/trial, "
              f"{statistics.median(setup_s)!r} s set-up")
        print(f"failed_frac = {failed_frac!r} (failed {failed} of {attempted} trials)")
        print(f"curve_max_abs_dev = {res['curve_max_abs_dev']!r} "
              f"(over {res['reference_invocations']} reference invocations)")

    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for problem in res["problems"][:20]:
        print(f"check failed: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def layer_units(metrics: dict) -> dict:
    units = {}
    for name in metrics:
        if name.endswith(".calls"):
            units[name] = "1/trial"
        elif name.endswith(".us"):
            units[name] = "us"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name == "dynamics.nfev_per_traj":
            units[name] = "1/traj"
        elif name in ("dynamics.integrate.samples", "trace.selfcheck_failures",
                      "trace.absent_spans"):
            units[name] = "count"
        elif name == "curve_max_abs_dev":
            units[name] = "abs"
        else:  # shares and ratios
            units[name] = "ratio"
    return units


if __name__ == "__main__":
    sys.exit(main())
