"""Outside-in tracing of tdrepdyn's layers, installed from the benchmark's own files.

``install`` wraps every public function (and public method of a public class)
defined in ``tdrepdyn.{cli,experiments,dynamics,metrics,mdp}``, a few named
private ones, and the ``solve_ivp`` binding inside ``dynamics``. A wrapper
replaces the original at every module-level binding site, not only in the
defining module: ``key_matrix`` imported by name into ``dynamics`` and
``metrics``, module-level dispatch dicts, and the package namespace. Nothing
under ``src/`` changes.

Spans are aggregated in memory per name (calls, inclusive and self time) and
per (parent, name) edge, because the hot spans (drift fields, fixed-point
solves) run about 10^5 times per trial and a raw span list would dominate
memory. Per-trajectory integrate durations and per-solve nfev are kept raw.

Pool workers are forked, so they inherit the wrappers, but they leave through
``os._exit`` and never run ``atexit``. A fork hook gives each worker a fresh
tracer state, and the worker rewrites its cumulative state to its own file
after every outermost span; the parent merges those files after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("cli", "experiments", "dynamics", "metrics", "mdp")

# Private functions that mark layer boundaries the per-layer metrics need.
# ``_log_trajectory`` keeps the metric-logging loop out of the solver loop's
# self time.
PRIVATE_TARGETS = (
    "experiments._aggregate",
    "experiments._map_trials",
    "experiments._run_one",
    "experiments._write_outputs",
    "dynamics._log_trajectory",
)

SOLVER = "dynamics.solve_ivp"
INTEGRATE = "dynamics.integrate"
RHS = {
    "linear_td": "dynamics.rhs_linear_td",
    "end_to_end": "dynamics.rhs_end_to_end",
    "two_time_scale": "dynamics.rhs_two_time_scale",
}
FIXED_POINT = "dynamics.td_fixed_point"
KEY_MATRIX = "mdp.key_matrix"
MAP_TRIALS = "experiments._map_trials"
METRIC_FUNCTIONS = (
    "weighted_value_error",
    "trace_objective",
    "trace_ceiling",
    "covariance_drift",
    "critical_point_residual",
)

# Every span a per-layer metric reads. A name missing after install (a later
# change removed or renamed the function) is reported as absent, and the
# metrics built on it read 0.
EXPECTED = (
    "cli.main",
    "experiments.run_fig1",
    "experiments.run_fig3",
    MAP_TRIALS,
    "experiments._run_one",
    "experiments.AggregateSeries.to_csv",
    INTEGRATE,
    SOLVER,
    FIXED_POINT,
    *RHS.values(),
    "dynamics.expected_semi_gradients",
    "dynamics.TrajectoryLog.to_csv",
    "dynamics.TrajectoryLog.states_to_json",
    *(f"metrics.{name}" for name in METRIC_FUNCTIONS),
    KEY_MATRIX,
    "mdp.make_random_mdp",
    "mdp.load_mdp",
)


class Tracer:
    """Span aggregates for one process; forked workers flush theirs to files."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.worker_file: str | None = None
        self.clear()

    def clear(self) -> None:
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.edges: dict[tuple, list] = {}  # (parent, name) -> [calls, inclusive_s]
        self.integrate_s: list[float] = []
        self.solves: list[tuple[int, int]] = []  # (solver nfev, drift spans inside it)

    def after_fork_in_child(self) -> None:
        self.clear()
        self.worker_file = os.path.join(
            self.worker_dir, f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
        )

    def call(self, name, fn, args, kwargs, durations=None):
        stack = self.stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            s = self.stats.get(name)
            if s is None:
                s = self.stats[name] = [0, 0.0, 0.0]
            s[0] += 1
            s[1] += dt
            s[2] += dt - frame[1]
            e = self.edges.get((parent, name))
            if e is None:
                e = self.edges[(parent, name)] = [0, 0.0]
            e[0] += 1
            e[1] += dt
            if durations is not None:
                durations.append(dt)
            if not stack and self.worker_file is not None:
                self.flush()

    def rhs_calls(self) -> int:
        return sum(self.stats.get(name, (0,))[0] for name in RHS.values())

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[p, n, c, t] for (p, n), (c, t) in self.edges.items()],
            "integrate_s": self.integrate_s,
            "solves": self.solves,
        }

    def flush(self) -> None:
        tmp = self.worker_file + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, self.worker_file)


def _span_wrapper(tracer: Tracer, name: str, fn):
    sampled = name == INTEGRATE

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # look the list up on each call: a forked worker gets a fresh one
        return tracer.call(name, fn, args, kwargs, tracer.integrate_s if sampled else None)

    return traced


def _solver_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = tracer.rhs_calls()
        sol = tracer.call(SOLVER, fn, args, kwargs)
        tracer.solves.append((int(sol.nfev), tracer.rhs_calls() - before))
        return sol

    return traced


def install(tracer: Tracer) -> dict:
    """Wrap the layer functions at every binding site; returns what was wrapped."""
    package = importlib.import_module("tdrepdyn")
    modules = {short: importlib.import_module(f"tdrepdyn.{short}") for short in MODULES}
    wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    wrapped_names = []
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if inspect.isfunction(obj) and (not attr.startswith("_") or name in PRIVATE_TARGETS):
                wrappers[id(obj)] = (obj, _span_wrapper(tracer, name, obj))
                wrapped_names.append(name)
            elif inspect.isclass(obj) and not attr.startswith("_"):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not meth.startswith("_"):
                        setattr(obj, meth, _span_wrapper(tracer, f"{name}.{meth}", fn))
                        wrapped_names.append(f"{name}.{meth}")

    sites = 0
    for mod in (package, *modules.values()):
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                sites += 1
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    hit = wrappers.get(id(item))
                    if hit is not None and hit[0] is item:
                        val[key] = hit[1]
                        sites += 1

    dynamics = modules["dynamics"]
    if callable(getattr(dynamics, "solve_ivp", None)):
        dynamics.solve_ivp = _solver_wrapper(tracer, dynamics.solve_ivp)
        wrapped_names.append(SOLVER)
        sites += 1

    os.register_at_fork(after_in_child=tracer.after_fork_in_child)
    present = set(wrapped_names)
    return {
        "wrapped": len(wrapped_names),
        "binding_sites": sites,
        "absent": [name for name in EXPECTED if name not in present],
    }


def load_worker_snapshots(worker_dir: str) -> list[dict]:
    snaps = []
    for entry in sorted(os.listdir(worker_dir)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(worker_dir, entry)) as fh:
                snaps.append(json.load(fh))
    return snaps


class Merged:
    """Sum of the main process's span aggregates and every worker's."""

    def __init__(self, main: dict, workers: list[dict]):
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple, list] = {}
        self.integrate_s: list[float] = []
        self.solves: list[tuple[int, int]] = []
        self.main_stats = main["stats"]
        self.worker_root_s = 0.0
        for snap, is_worker in [(main, False)] + [(w, True) for w in workers]:
            for name, (calls, incl, self_s) in snap["stats"].items():
                s = self.stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += calls
                s[1] += incl
                s[2] += self_s
            for parent, name, calls, incl in snap["edges"]:
                e = self.edges.setdefault((parent, name), [0, 0.0])
                e[0] += calls
                e[1] += incl
                if is_worker and parent is None:
                    self.worker_root_s += incl
            self.integrate_s.extend(snap["integrate_s"])
            self.solves.extend(tuple(s) for s in snap["solves"])
        self.pooled = bool(workers)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def incl(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def busy_s(self) -> float:
        """Time some process spent inside traced code, minus the parent's wait on a pool."""
        total = sum(incl for (parent, _), (_, incl) in self.edges.items() if parent is None)
        if self.pooled:
            total -= self.main_stats.get(MAP_TRIALS, (0, 0.0, 0.0))[1]
        return total


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(m: Merged, trials: int, invocations: int, jobs: int) -> dict[str, float]:
    """Per-layer numbers of one traced run; counts are per trial, times per call."""

    def us(name: str) -> float:
        calls = m.calls(name)
        return 1e6 * m.incl(name) / calls if calls else 0.0

    busy = m.busy_s()
    out = {
        "dynamics.td_fixed_point.calls": m.calls(FIXED_POINT) / trials,
        "dynamics.td_fixed_point.us": us(FIXED_POINT),
        "dynamics.td_fixed_point.share": m.incl(FIXED_POINT) / busy if busy else 0.0,
        "mdp.key_matrix.calls": m.calls(KEY_MATRIX) / trials,
        "mdp.key_matrix.us": us(KEY_MATRIX),
    }
    for kind, name in RHS.items():
        out[f"dynamics.rhs.{kind}.calls"] = m.calls(name) / trials
        out[f"dynamics.rhs.{kind}.us"] = us(name)
    out["dynamics.expected_semi_gradients.us"] = us("dynamics.expected_semi_gradients")

    trajectories = len(m.integrate_s)
    solver_loop = m.self_s(SOLVER) + m.self_s(INTEGRATE)
    out["dynamics.nfev_per_traj"] = (
        sum(nfev for nfev, _ in m.solves) / len(m.solves) if m.solves else 0.0
    )
    out["dynamics.integrate.self_s"] = solver_loop / trajectories if trajectories else 0.0
    out["dynamics.integrate.p50_s"] = _quantile(m.integrate_s, 0.5)
    out["dynamics.integrate.p90_s"] = _quantile(m.integrate_s, 0.9)
    out["dynamics.integrate.samples"] = float(trajectories)

    metrics_top = 0.0
    for name in METRIC_FUNCTIONS:
        span = f"metrics.{name}"
        out[f"{span}.calls"] = m.calls(span) / trials
        out[f"{span}.us"] = us(span)
    for (parent, name), (_, incl) in m.edges.items():
        if name.startswith("metrics.") and not (parent or "").startswith("metrics."):
            metrics_top += incl
    out["metrics.share"] = metrics_top / busy if busy else 0.0

    out["dynamics.log_write_s"] = (
        m.incl("dynamics.TrajectoryLog.to_csv") + m.incl("dynamics.TrajectoryLog.states_to_json")
    ) / invocations
    out["experiments.to_csv_s"] = m.incl("experiments.AggregateSeries.to_csv") / invocations

    map_wall = m.main_stats.get(MAP_TRIALS, (0, 0.0, 0.0))
    if m.pooled and map_wall[1] > 0:
        out["experiments.pool.worker_busy_share"] = m.worker_root_s / (jobs * map_wall[1])
        out["experiments.pool.overhead_s"] = (map_wall[1] - m.worker_root_s / jobs) / map_wall[0]
    else:
        out["experiments.pool.worker_busy_share"] = 0.0
        out["experiments.pool.overhead_s"] = 0.0

    runner_self = sum(
        self_s for name, (_, _, self_s) in m.main_stats.items()
        if name.startswith("experiments.run_fig")
        or name in ("experiments._aggregate", "experiments._write_outputs")
    )
    cli_self = sum(
        self_s for name, (_, _, self_s) in m.main_stats.items() if name.startswith("cli.")
    )
    out["experiments.run.self_s"] = runner_self / invocations
    out["cli.main.self_s"] = cli_self / invocations
    generators = ("mdp.make_random_mdp", "mdp.make_symmetric_mdp")
    gen_calls = sum(m.calls(n) for n in generators)
    out["mdp.generate.us"] = (
        1e6 * sum(m.incl(n) for n in generators) / gen_calls if gen_calls else 0.0
    )
    out["mdp.load_mdp.us"] = us("mdp.load_mdp")
    return out


def self_checks(m: Merged) -> dict[str, int]:
    """Counts the tracer must reproduce; a mismatch means a binding site was missed."""
    nfev_mismatch = sum(1 for nfev, spans in m.solves if nfev != spans)
    under_fixed_point = m.edges.get((FIXED_POINT, KEY_MATRIX), (0, 0.0))[0]
    return {
        "solves_checked": len(m.solves),
        "nfev_mismatches": nfev_mismatch,
        "fixed_point_calls": m.calls(FIXED_POINT),
        "key_matrix_calls_in_fixed_point": under_fixed_point,
    }
