"""The benchmark's workloads: CLI argument lists, generated inputs and output checks.

Invocation ``j`` of a workload run with seed ``s`` is a pure function of
``(s, j)``. A figure invocation runs ``--trials T --seed s + j*T``, so trial
``i`` of the workload uses seed ``s + i``, as the CLI does. A run goes through
the seed's ``cycle`` invocations in a closed loop (the next starts only after
the previous one returns) and starts over if it gets through all of them.

Outputs are checked twice. Checks that need no reference hold for any seed:
exit code 0, the expected headers and row counts, finite values, ``E >= 0``,
ordered quartiles and complete manifests. For the invocations recorded in
``reference/`` (every invocation of the default and the held-out seed, plus the
reference invocation each run makes first) the values are also compared with
this repository's recorded outputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
HELD_OUT_SEED = 1000
REFERENCE_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
# A value may move by this much (relative to max(1, |reference|)) before the
# output counts as wrong: room for a different solver, not for a broken one.
VALUE_TOLERANCE = 1e-6
# Paper figures are 100-trial medians.
REFERENCE_TRIALS = 100
# Invocations recorded in reference/ per reference seed; covers every traced one.
REFERENCE_INVOCATIONS = 3
SIMULATE_COLUMNS = ("t", "E", "f", "f_norm", "cov_drift", "grad_norm_w", "grad_norm_phi",
                    "crit_residual")
SIMULATE_REFERENCE_STRIDE = 100  # keep every 100th log point (every 2 time units)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Outcome:
    """What one invocation produced and what its checks found."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}
        self.values: dict[str, list[float]] = {}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _parse_csv(text: str, header: tuple[str, ...], rows: int, outcome: Outcome, label: str):
    reader = csv.reader(io.StringIO(text))
    got_header = next(reader, None)
    outcome.require(tuple(got_header or ()) == header, f"{label}: header {got_header}")
    data = [[float(x) for x in row] for row in reader]
    outcome.require(len(data) == rows, f"{label}: {len(data)} rows, expected {rows}")
    table = np.array(data, dtype=float).reshape(len(data), len(header))
    outcome.require(bool(np.all(np.isfinite(table))), f"{label}: non-finite values")
    return table


class FigureWorkload:
    """``experiment fig1|fig3`` with a reduced trial count per invocation."""

    def __init__(self, name, experiment, curves, trials, jobs, cycle, trace_invocations,
                 t_end, log_points, error_curves, extra=()):
        self.name, self.experiment = name, experiment
        self.curves, self.trials, self.jobs = curves, trials, jobs
        self.cycle, self.trace_invocations = cycle, trace_invocations
        self.t_end, self.log_points = t_end, log_points
        self.error_curves = error_curves  # curves of E, which must be >= 0
        self.extra = tuple(extra)
        self.trial_reduction = REFERENCE_TRIALS / trials

    def prepare(self, seed: int, work: Path) -> None:
        """Figure runs take all their input from the command line."""

    def argv(self, seed: int, j: int, work: Path, warm_up: bool = False) -> list[str]:
        """Arguments of invocation j; ``warm_up`` shortens it to one time unit."""
        return [
            "experiment", self.experiment,
            "--seed", str(seed + j * self.trials), "--trials", str(self.trials),
            "--n", "30", "--k", "2", "--t-end", "1.0" if warm_up else repr(self.t_end),
            "--rtol", "1e-8", "--atol", "1e-10",
            "--log-points", "3" if warm_up else str(self.log_points),
            "--jobs", str(self.jobs), *self.extra, "-o", str(work / "out"),
        ]

    def check(self, seed: int, j: int, work: Path, rc: int) -> Outcome:
        outcome = Outcome(self.trials)
        if rc != 0:
            outcome.failed = self.trials
            outcome.problems.append(f"exit code {rc}")
            return outcome
        exp_dir = work / "out" / self.experiment
        manifest_bytes = (exp_dir / "manifest.json").read_bytes()
        outcome.hashes["manifest.json"] = sha256(manifest_bytes)
        manifest = json.loads(manifest_bytes)
        times = np.linspace(0.0, self.t_end, self.log_points)
        first = seed + j * self.trials
        failed_seeds = set()
        for curve in self.curves:
            entry = manifest["curves"].get(curve)
            outcome.require(entry is not None, f"manifest lacks curve {curve}")
            if entry is None:
                continue
            failed = [s for s, _ in entry["failures"]]
            failed_seeds.update(failed)
            outcome.require(
                sorted(entry["trial_seeds"] + failed) == list(range(first, first + self.trials)),
                f"{curve}: trial seeds do not cover {first}..{first + self.trials - 1}",
            )
            raw = (exp_dir / f"{curve}.csv").read_bytes()
            outcome.hashes[f"{curve}.csv"] = sha256(raw)
            table = _parse_csv(raw.decode(), ("t", "median", "q25", "q75"),
                               self.log_points, outcome, curve)
            if table.shape[0] != self.log_points:
                continue
            t, med, q25, q75 = table.T
            outcome.require(bool(np.array_equal(t, times)), f"{curve}: time grid differs")
            outcome.require(bool(np.all((q25 <= med) & (med <= q75))),
                            f"{curve}: quartiles out of order")
            if curve in self.error_curves:
                outcome.require(bool(np.all(table[:, 1:] >= 0)), f"{curve}: E < 0")
            outcome.values[curve] = med.tolist()
        outcome.failed = len(failed_seeds)
        return outcome


class SimulateWorkload:
    """``simulate`` with a dense metric log and state snapshots, on MDP files made in set-up."""

    name = "simulate_dense_log"
    trials = 1
    jobs = 1
    trial_reduction = 1.0
    cycle = 24
    trace_invocations = 3
    log_points = 5001
    t_end = 100.0

    @staticmethod
    def _mdp_path(seed: int, j: int, work: Path) -> Path:
        return work / "inputs" / f"mdp-{seed + j}.json"

    def prepare(self, seed: int, work: Path) -> None:
        """Write the cycle's MDP files (and the reference invocation's) with ``gen-mdp``."""
        from tdrepdyn import cli

        for s, j in [(DEFAULT_SEED, 0)] + [(seed, j) for j in range(self.cycle)]:
            path = self._mdp_path(s, j, work)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["gen-mdp", "--n", "30", "--h", "1", "--seed", str(s + j),
                               "-o", str(path)])
            if rc != 0:
                raise RuntimeError(f"gen-mdp for seed {s + j} exited with {rc}")

    def argv(self, seed: int, j: int, work: Path, warm_up: bool = False) -> list[str]:
        """Arguments of invocation j; ``warm_up`` shortens it to one time unit."""
        return [
            "simulate", "--mdp", str(self._mdp_path(seed, j, work)), "--k", "2",
            "--seed", str(seed + j), "--dynamics", "end-to-end",
            "--t-end", "1" if warm_up else "100",
            "--log-points", "3" if warm_up else str(self.log_points), "--store-states",
            "-o", str(work / "out" / "trajectory.csv"),
        ]

    def check(self, seed: int, j: int, work: Path, rc: int) -> Outcome:
        outcome = Outcome(1)
        if rc != 0:
            outcome.failed = 1
            outcome.problems.append(f"exit code {rc}")
            return outcome
        raw = (work / "out" / "trajectory.csv").read_bytes()
        states_raw = (work / "out" / "trajectory.states.json").read_bytes()
        outcome.hashes["trajectory.csv"] = sha256(raw)
        outcome.hashes["trajectory.states.json"] = sha256(states_raw)
        table = _parse_csv(raw.decode(), SIMULATE_COLUMNS, self.log_points, outcome, "trajectory")
        if table.shape[0] == self.log_points:
            times = np.linspace(0.0, self.t_end, self.log_points)
            outcome.require(bool(np.array_equal(table[:, 0], times)),
                            "trajectory: time grid differs")
            outcome.require(bool(np.all(table[:, 1] >= 0)), "trajectory: E < 0")
            for col, name in enumerate(SIMULATE_COLUMNS[1:], start=1):
                outcome.values[name] = table[::SIMULATE_REFERENCE_STRIDE, col].tolist()
        states = json.loads(states_raw)
        outcome.require(len(states.get("times", ())) == self.log_points,
                        "states: wrong snapshot count")
        outcome.require(
            len(states.get("phi", ())) == self.log_points and len(states["phi"][0]) == 30,
            "states: phi snapshots have the wrong shape",
        )
        return outcome


WORKLOADS = {
    w.name: w
    for w in (
        # The horizon is cut from fig3's t=100 to t=10. Over seeds 0-39 a full
        # trial's cost had a 41% coefficient of variation with a heavy tail, and
        # at ~5 s per trial (2-vCPU VM) a 30 s run saw too few trials for a
        # steady rate.
        FigureWorkload(
            "fig3_h_sweep",
            experiment="fig3", curves=("h1", "h2", "h4", "h8"), trials=4, jobs=1,
            cycle=32, trace_invocations=3, t_end=10.0, log_points=101, error_curves=(),
            extra=("--h", "1", "2", "4", "8"),
        ),
        FigureWorkload(
            "fig1_pool",
            experiment="fig1",
            curves=("end_to_end_w10_phi1", "end_to_end_w1_phi1", "two_time_scale_phi1"),
            trials=20, jobs=2, cycle=32, trace_invocations=3, t_end=30.0, log_points=121,
            error_curves=("end_to_end_w10_phi1", "end_to_end_w1_phi1", "two_time_scale_phi1"),
        ),
        SimulateWorkload(),
    )
}


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def compare(outcome: Outcome, expected: dict) -> tuple[float, bool]:
    """Largest absolute deviation from the reference values, and whether all bytes match."""
    dev = 0.0
    for label, ref in expected["values"].items():
        got = outcome.values.get(label)
        if got is None or len(got) != len(ref):
            outcome.problems.append(f"{label}: missing or wrong length against the reference")
            continue
        for a, b in zip(got, ref):
            d = abs(a - b)
            dev = max(dev, d)
            if not d <= VALUE_TOLERANCE * max(1.0, abs(b)):  # also catches NaN
                outcome.problems.append(f"{label}: deviates from the reference by {d:.3e}")
                break
    return dev, outcome.hashes == expected["hashes"]
