"""Seeded batch runners for the figure reproductions.

Each figure experiment integrates many trajectories on independently sampled
Markov reward processes and reports pointwise medians (with quartile bands)
over trials. Trials are embarrassingly parallel; aggregation happens after
all trials complete, ordered by trial index, so results do not depend on the
number of workers. Output is one CSV per curve plus a manifest JSON; plotting
is left to external tools. The invariant suite lives in ``invariants``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import mdp as mdp_mod

logger = logging.getLogger(__name__)

DEFAULT_DYNAMICS = (
    dyn.end_to_end(eta_w=1.0, eta_phi=1.0),
    dyn.end_to_end(eta_w=10.0, eta_phi=1.0),
    dyn.two_time_scale(eta_phi=1.0),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the batch runners.

    ``max_failure_fraction`` is the abort threshold: a run is declared failed
    once more than this fraction of trials errors out (failures below the
    threshold are recorded in the output, never silently dropped).
    """

    n_states: int = 30
    k: int = 2
    gamma: float = 0.9
    alpha: float = 0.95
    n_trials: int = 100
    h_values: tuple[int, ...] = (1, 2, 4, 8)
    dynamics: tuple[dyn.DynamicsSpec, ...] = DEFAULT_DYNAMICS
    integrator: dyn.IntegratorConfig = field(default_factory=dyn.IntegratorConfig)
    seed: int = 0
    outdir: str | Path | None = None
    jobs: int = 1
    max_failure_fraction: float = 0.1

    def __post_init__(self):
        for name in ("n_states", "k", "n_trials", "seed", "jobs"):
            mdp_mod._check_int(name, getattr(self, name))
        for name in ("gamma", "alpha", "max_failure_fraction"):
            mdp_mod._check_real(name, getattr(self, name))
        if self.outdir is not None and not isinstance(self.outdir, (str, os.PathLike)):
            raise TypeError(f"outdir must be a path, got {self.outdir!r}")
        for h in self.h_values:
            mdp_mod._check_int("h_values entries", h)
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not 1 <= self.k <= self.n_states:
            raise ValueError(f"need 1 <= k <= n_states, got k={self.k}, n={self.n_states}")
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.gamma < 1:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if any(h < 1 for h in self.h_values) or not self.h_values:
            raise ValueError("h_values must be a non-empty list of positive integers")
        if not self.dynamics:
            raise ValueError("at least one dynamics variant is required")
        for spec in self.dynamics:
            if not isinstance(spec, dyn.DynamicsSpec):
                raise TypeError(f"dynamics entries must be DynamicsSpec, got {type(spec)}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.max_failure_fraction < 1:
            raise ValueError("max_failure_fraction must be in [0, 1)")


def config_to_json(config: ExperimentConfig) -> dict:
    """JSON-safe ``dataclasses.asdict``: inf max_step is null, outdir a string, tuples lists."""
    doc = dataclasses.asdict(config)
    doc["h_values"], doc["dynamics"] = list(config.h_values), list(doc["dynamics"])
    if np.isinf(config.integrator.max_step):
        doc["integrator"]["max_step"] = None
    if config.outdir is not None:
        doc["outdir"] = str(config.outdir)
    return doc


class UnknownConfigKeyError(ValueError):
    """A config document holds a key that config_to_json never writes."""


def config_from_json(doc: dict) -> ExperimentConfig:
    """Inverse of config_to_json.

    A section of the wrong shape raises TypeError naming it. Unknown keys,
    top-level, in ``integrator`` or in a ``dynamics`` entry, raise
    UnknownConfigKeyError; a ``dynamics`` entry that is not an object or has
    no ``kind`` raises ValueError.
    """
    shapes = (("integrator", dict, "an object"), ("dynamics", list, "a list of objects"),
              ("h_values", list, "a list of integers"))
    for key, shape, what in shapes:
        if key in doc and not isinstance(doc[key], shape):
            raise TypeError(f"{key} must be {what}, got {doc[key]!r}")
    known = config_to_json(ExperimentConfig())
    entries = doc.get("dynamics", [])
    unknown = sorted(set(doc) - set(known)) + sorted(
        f"integrator.{key}" for key in set(doc.get("integrator", {})) - set(known["integrator"])
    )
    for i, entry in enumerate(entries):
        if isinstance(entry, dict):
            unknown += [f"dynamics[{i}].{key}" for key in sorted(set(entry) - set(known["dynamics"][0]))]
    if unknown:
        raise UnknownConfigKeyError(f"unknown config keys: {unknown}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(f"dynamics[{i}] must be an object with a 'kind', got {entry!r}")
    kwargs = dict(doc)
    if "h_values" in kwargs:
        kwargs["h_values"] = tuple(kwargs["h_values"])
    if "dynamics" in kwargs:
        kwargs["dynamics"] = tuple(dyn.DynamicsSpec(**entry) for entry in entries)
    if "integrator" in kwargs:
        integ = dict(kwargs["integrator"])
        if integ.get("max_step") is None:
            integ["max_step"] = np.inf
        kwargs["integrator"] = dyn.IntegratorConfig(**integ)
    return ExperimentConfig(**kwargs)


@dataclass
class AggregateSeries:
    """Per-trial metric series plus pointwise median and quartile bands."""

    name: str
    times: np.ndarray
    values: np.ndarray  # one row per completed trial
    trial_seeds: tuple[int, ...]
    failures: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.times):
            raise ValueError("values must be (n_trials, len(times))")
        if self.values.shape[0] != len(self.trial_seeds):
            raise ValueError("one seed per completed trial is required")

    @property
    def median(self) -> np.ndarray:
        return np.median(self.values, axis=0)

    @property
    def q25(self) -> np.ndarray:
        return np.quantile(self.values, 0.25, axis=0)

    @property
    def q75(self) -> np.ndarray:
        return np.quantile(self.values, 0.75, axis=0)

    def to_csv(self, path: str | Path | None = None) -> str:
        return dyn._csv_text(
            ["t", "median", "q25", "q75"], [self.times, self.median, self.q25, self.q75], path
        )


def trial_seed(config: ExperimentConfig, index: int) -> int:
    """Trial seeds are master seed + trial index, for reproducible parallelism."""
    return config.seed + index


def initial_representation(seed: int, n: int, k: int) -> np.ndarray:
    """Orthonormal init on child stream 3 of ``mdp.seed_streams(seed)``.

    Streams 0-2 belong to the chain generator, so the same trial seed drives
    both without replaying any draws.
    """
    return dyn.orthonormal_init(n, k, mdp_mod.seed_streams(seed)[3])


def _dynamics_label(spec: dyn.DynamicsSpec) -> str:
    if spec.kind == dyn.LINEAR_TD:
        return f"linear_td_w{spec.eta_w:g}"
    if spec.kind == dyn.END_TO_END:
        return f"end_to_end_w{spec.eta_w:g}_phi{spec.eta_phi:g}"
    return f"two_time_scale_phi{spec.eta_phi:g}"


def _curves(experiment: str, config: ExperimentConfig) -> list[tuple]:
    """The ``(label, (symmetric, h), spec, metric)`` rows of one trial of ``experiment``.

    fig1 runs every configured dynamics on one h=1 mixed chain and logs the
    weighted value error; fig2 (three named chains) and fig3 (one mixed chain
    per h) run the two-time-scale flow and log the normalized trace objective.
    Every row of a trial with the same ``(symmetric, h)`` shares one chain.
    """
    if experiment == "fig1":
        rows = [(_dynamics_label(spec), (False, 1), spec, "E") for spec in config.dynamics]
    else:
        if experiment == "fig2":
            chains = [("h5_general", (False, 5)), ("h1_symmetric", (True, 1)), ("h1_general", (False, 1))]
        elif experiment == "fig3":
            chains = [(f"h{h}", (False, h)) for h in config.h_values]
        else:
            raise ValueError(f"unknown experiment {experiment!r}")
        spec = next((s for s in config.dynamics if s.kind == dyn.TWO_TIME_SCALE), dyn.two_time_scale())
        rows = [(label, chain, spec, "f_norm") for label, chain in chains]
    labels = [label for label, *_ in rows]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{experiment} curves are not distinct: {labels}")
    return rows


# Numerical failures a trial may end in; they count against the abort
# threshold. Any other exception is a bug and propagates.
_TRIAL_FAILURES = (*dyn.NUMERICAL_FAILURES, mdp_mod.ConvergenceError)


def _run_one(payload: tuple[str, ExperimentConfig, range]) -> list[dict]:
    """Run one worker's contiguous chunk of trials, in trial order.

    Every curve row of every trial in the chunk, each started from its
    trial's shared ``phi0``, goes into one ``integrate_batch`` call. A trial
    whose chains cannot be built fails under each of its curves; a row whose
    trajectory fails, under its own.
    """
    experiment, config, indices = payload
    curves = _curves(experiment, config)
    chains = {chain for _, chain, _, _ in curves}
    results, rows = [], []
    for index in indices:
        seed = trial_seed(config, index)
        result = {"seed": seed, "curves": {}, "errors": {}}
        results.append(result)
        try:
            phi0 = initial_representation(seed, config.n_states, config.k)
            mrps = {chain: mdp_mod.make_mdp(*chain, n=config.n_states, gamma=config.gamma,
                                            alpha=config.alpha, seed=seed)
                    for chain in chains}
        except _TRIAL_FAILURES as exc:  # failures are aggregated, not raised per trial
            result["errors"] = {label: str(exc) for label, *_ in curves}
            continue
        rows += [(result, label, metric, dyn.Problem(mrps[chain], spec, phi0))
                 for label, chain, spec, metric in curves]
    metric_set = tuple(sorted({metric for _, _, metric, _ in rows}))
    logs = dyn.integrate_batch([p for *_, p in rows], config.integrator, metric_set=metric_set)
    for (result, label, metric, _), log in zip(rows, logs):
        if isinstance(log, Exception):
            result["errors"][label] = str(log)
        else:
            result["curves"][label] = log.metrics[metric]
    return results


def _pool_workers(config: ExperimentConfig) -> int:
    """Worker processes a run starts: ``jobs``, capped by the trial and CPU counts."""
    return min(config.jobs, config.n_trials, os.cpu_count() or 1)


def _map_trials(experiment: str, config: ExperimentConfig) -> list[dict]:
    """Each worker gets one contiguous chunk of trial indices; in process for one worker."""
    workers, n = _pool_workers(config), config.n_trials
    payloads = [(experiment, config, range(n * i // workers, n * (i + 1) // workers))
                for i in range(workers)]
    if workers == 1:
        return _run_one(payloads[0])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for chunk in pool.map(_run_one, payloads) for result in chunk]


def _aggregate(experiment: str, config: ExperimentConfig) -> dict[str, AggregateSeries]:
    curve_names = [label for label, *_ in _curves(experiment, config)]
    results = _map_trials(experiment, config)
    times = np.linspace(0.0, config.integrator.t_end, config.integrator.log_points)
    out = {}
    for name in curve_names:
        rows, seeds, failures = [], [], []
        for res in results:
            if name in res["curves"]:
                rows.append(res["curves"][name])
                seeds.append(res["seed"])
            else:
                failures.append((res["seed"], res["errors"][name]))
        for seed, msg in failures:
            logger.warning("%s/%s: trial seed %d failed: %s", experiment, name, seed, msg)
        if len(failures) > config.max_failure_fraction * config.n_trials:
            raise RuntimeError(
                f"{experiment}/{name}: {len(failures)}/{config.n_trials} trials failed "
                f"(threshold {config.max_failure_fraction:.0%}); first: {failures[0][1]}"
            )
        out[name] = AggregateSeries(
            name=name,
            times=times,
            values=np.vstack(rows),
            trial_seeds=tuple(seeds),
            failures=tuple(failures),
        )
    return out


def _write_outputs(config: ExperimentConfig, experiment: str, series: dict[str, AggregateSeries]) -> None:
    if config.outdir is None:
        return
    exp_dir = Path(config.outdir) / experiment
    exp_dir.mkdir(parents=True, exist_ok=True)
    for name, agg in series.items():
        agg.to_csv(exp_dir / f"{name}.csv")
    manifest = {
        "experiment": experiment,
        "config": config_to_json(config),
        "curves": {
            name: {
                "file": f"{name}.csv",
                "completed_trials": len(agg.trial_seeds),
                "trial_seeds": list(agg.trial_seeds),
                "failures": [[seed, msg] for seed, msg in agg.failures],
            }
            for name, agg in sorted(series.items())
        },
    }
    (exp_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_experiment(name: str, config: ExperimentConfig) -> dict[str, AggregateSeries]:
    """Median curves of figure ``name`` (fig1, fig2 or fig3), written under ``config.outdir``.

    fig1: weighted value error per dynamics on mixed-generator MDPs (h=1);
    fig2: normalized trace objective for three reward/transition scenarios;
    fig3: normalized trace objective as the reward count h sweeps.
    """
    series = _aggregate(name, config)
    _write_outputs(config, name, series)
    return series
