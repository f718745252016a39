"""Seeded batch runners for the figure reproductions and the invariant suite.

Each figure experiment integrates many trajectories on independently sampled
Markov reward processes and reports pointwise medians (with quartile bands)
over trials. Trials are embarrassingly parallel; aggregation happens after
all trials complete, ordered by trial index, so results do not depend on the
number of workers. Output is one CSV per curve plus a manifest JSON; plotting
is left to external tools.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import metrics as met
from . import mdp as mdp_mod
from .mdp import MarkovRewardProcess, RewardSpec, make_rng

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
        if not 0 <= self.max_failure_fraction < 1:
            raise ValueError("max_failure_fraction must be in [0, 1)")


def config_to_json(config: ExperimentConfig) -> dict:
    """JSON-safe dict mirror of the config (inf max_step maps to null)."""
    integ = config.integrator
    return {
        "n_states": config.n_states,
        "k": config.k,
        "gamma": config.gamma,
        "alpha": config.alpha,
        "n_trials": config.n_trials,
        "h_values": list(config.h_values),
        "dynamics": [
            {"kind": s.kind, "eta_w": s.eta_w, "eta_phi": s.eta_phi} for s in config.dynamics
        ],
        "integrator": {
            "t_end": integ.t_end,
            "rtol": integ.rtol,
            "atol": integ.atol,
            "max_step": None if np.isinf(integ.max_step) else integ.max_step,
            "log_points": integ.log_points,
        },
        "seed": config.seed,
        "outdir": None if config.outdir is None else str(config.outdir),
        "jobs": config.jobs,
        "max_failure_fraction": config.max_failure_fraction,
    }


class UnknownConfigKeyError(ValueError):
    """A config document holds a key that config_to_json never writes."""


def config_from_json(doc: dict) -> ExperimentConfig:
    """Inverse of config_to_json.

    Unknown keys, top-level, in ``integrator`` or in a ``dynamics`` entry, raise
    UnknownConfigKeyError; a ``dynamics`` entry that is not an object or has no
    ``kind`` raises ValueError.
    """
    known = config_to_json(ExperimentConfig())
    entries = list(doc.get("dynamics", ()))
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
        kwargs["h_values"] = tuple(int(h) for h in kwargs["h_values"])
    if "dynamics" in kwargs:
        kwargs["dynamics"] = tuple(
            dyn.DynamicsSpec(d["kind"], eta_w=d.get("eta_w", 1.0), eta_phi=d.get("eta_phi", 1.0))
            for d in entries
        )
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
    """Orthonormal init on a stream disjoint from the MDP generators' streams.

    Child streams 0-2 of the seed belong to the doubly-stochastic, permutation,
    and reward samplers; slot 3 is reserved for the representation init, so the
    same trial seed can drive both without replaying any draws.
    """
    phi_stream = np.random.SeedSequence(seed).spawn(4)[3]
    return dyn.orthonormal_init(n, k, phi_stream)


def _dynamics_label(spec: dyn.DynamicsSpec) -> str:
    if spec.kind == dyn.LINEAR_TD:
        return f"linear_td_w{spec.eta_w:g}"
    if spec.kind == dyn.END_TO_END:
        return f"end_to_end_w{spec.eta_w:g}_phi{spec.eta_phi:g}"
    return f"two_time_scale_phi{spec.eta_phi:g}"


def _scenarios(experiment: str, config: ExperimentConfig, seed: int) -> list[tuple]:
    """The ``(curve, mrp, spec, metric)`` rows of one trial of ``experiment``.

    fig1 runs every configured dynamics on one h=1 mixed chain and logs the
    weighted value error; fig2 (three named chains) and fig3 (one mixed chain
    per h) run the two-time-scale flow and log the normalized trace objective.
    """
    n, gamma, alpha = config.n_states, config.gamma, config.alpha

    def mixed(h: int) -> MarkovRewardProcess:
        return mdp_mod.make_random_mdp(n=n, h=h, gamma=gamma, alpha=alpha, seed=seed)

    if experiment == "fig1":
        mrp = mixed(1)
        return [(_dynamics_label(spec), mrp, spec, "E") for spec in config.dynamics]
    if experiment == "fig2":
        chains = {
            "h5_general": mixed(5),
            "h1_symmetric": mdp_mod.make_symmetric_mdp(n=n, h=1, gamma=gamma, seed=seed),
            "h1_general": mixed(1),
        }
    else:
        chains = {f"h{h}": mixed(h) for h in config.h_values}
    spec = next((s for s in config.dynamics if s.kind == dyn.TWO_TIME_SCALE), dyn.two_time_scale())
    return [(label, mrp, spec, "f_norm") for label, mrp in chains.items()]


# Numerical failures a trial may end in; they count against the abort
# threshold. Any other exception is a bug and propagates.
_TRIAL_FAILURES = (dyn.IntegrationError, np.linalg.LinAlgError, mdp_mod.ConvergenceError)


def _run_one(payload: tuple[str, ExperimentConfig, range]) -> list[dict]:
    """Run one worker's contiguous chunk of trials, in trial order.

    Every scenario row of every trial in the chunk, each started from its
    trial's shared ``phi0``, goes into one ``integrate_batch`` call. A trial
    whose rows cannot be built fails as a whole ("*"); a row whose
    trajectory fails is recorded under its curve.
    """
    experiment, config, indices = payload
    results, rows = [], []
    for index in indices:
        result = {"seed": trial_seed(config, index), "curves": {}, "errors": {}}
        results.append(result)
        try:
            phi0 = initial_representation(result["seed"], config.n_states, config.k)
            scenarios = _scenarios(experiment, config, result["seed"])
        except _TRIAL_FAILURES as exc:  # failures are aggregated, not raised per trial
            result["errors"]["*"] = str(exc)
            continue
        rows += [(result, label, metric, dyn.Problem(mrp, spec, phi0))
                 for label, mrp, spec, metric in scenarios]
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


def _aggregate(experiment: str, config: ExperimentConfig, curve_names: list[str]) -> dict[str, AggregateSeries]:
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
                msg = res["errors"].get(name, res["errors"].get("*", "unknown failure"))
                failures.append((res["seed"], msg))
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


def run_fig1(config: ExperimentConfig) -> dict[str, AggregateSeries]:
    """Median weighted value error per dynamics on mixed-generator MDPs (h=1)."""
    names = [_dynamics_label(s) for s in config.dynamics]
    if len(set(names)) != len(names):
        raise ValueError(f"dynamics variants are not distinct: {names}")
    series = _aggregate("fig1", config, names)
    _write_outputs(config, "fig1", series)
    return series


def run_fig2(config: ExperimentConfig) -> dict[str, AggregateSeries]:
    """Median normalized trace objective for three reward/transition scenarios."""
    series = _aggregate("fig2", config, ["h5_general", "h1_symmetric", "h1_general"])
    _write_outputs(config, "fig2", series)
    return series


def run_fig3(config: ExperimentConfig) -> dict[str, AggregateSeries]:
    """Median normalized trace objective as the reward count h sweeps."""
    series = _aggregate("fig3", config, [f"h{h}" for h in config.h_values])
    _write_outputs(config, "fig3", series)
    return series


# ---------------------------------------------------------------------------
# Invariant suite: one executable check per documented invariant, all modules.
# ---------------------------------------------------------------------------


def run_invariant_suite(config: ExperimentConfig | None = None) -> list[met.MetricReport]:
    """Run every documented invariant with fixed seeds; returns one report per check.

    The trajectory-based checks honor ``config.integrator`` so that a corrupt
    tolerance (say rtol=1) makes the covariance-constancy check fail, which
    serves as the suite's negative control.
    """
    if config is None:
        config = ExperimentConfig(
            integrator=dyn.IntegratorConfig(t_end=300.0, rtol=1e-10, atol=1e-12, log_points=151)
        )
    checks = [
        _check_doubly_stochastic_closure,
        _check_stationary_exactness,
        _check_key_matrix_pd,
        _check_value_function_residual,
        _check_reward_concentration,
        _check_mdp_determinism,
        _check_gradient_flow_identity,
        _check_energy_dissipation,
        _check_covariance_constancy,
        _check_trace_monotonicity,
        _check_fixed_point_orthogonality,
        _check_integrator_order,
        _check_error_nonnegativity,
        _check_trace_kpca_consistency,
        _check_projection_idempotence,
        _check_subspace_critical_roundtrip,
        _check_rotation_invariance,
        _check_experiment_determinism,
        _check_trial_independence,
        _check_median_aggregation,
        _check_cli_seed_determinism,
        _check_cli_help_flags,
    ]
    reports = []
    for check in checks:
        try:
            reports.append(check(config))
        except Exception as exc:
            name = check.__name__.removeprefix("_check_")
            logger.warning("invariant check %s raised: %s", name, exc)
            reports.append(met.MetricReport(name, float("inf"), 0.0, False))
    if config.outdir is not None:
        out = Path(config.outdir) / "invariants"
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(met.reports_to_csv(reports))
    return reports


def _check_doubly_stochastic_closure(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    p_ds = mdp_mod.sample_doubly_stochastic(12, seed=11)
    p_perm = mdp_mod.sample_permutation(12, seed=12)
    for alpha in np.linspace(0.0, 1.0, 11):
        P = alpha * p_perm + (1 - alpha) * p_ds
        worst = max(
            worst,
            np.abs(P.sum(axis=1) - 1).max(),
            np.abs(P.sum(axis=0) - 1).max(),
        )
    return met.MetricReport("mdp.doubly_stochastic_closure", worst, 1e-12, worst <= 1e-12)


def _check_stationary_exactness(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    for seed in range(40):
        mrp = mdp_mod.make_random_mdp(n=15, h=1, gamma=config.gamma, alpha=config.alpha, seed=seed)
        sym = mdp_mod.make_symmetric_mdp(n=15, h=1, gamma=config.gamma, seed=seed)
        for m in (mrp, sym):
            worst = max(worst, np.abs(m.d @ m.P - m.d).max())
    return met.MetricReport("mdp.stationary_exactness", worst, 1e-10, worst <= 1e-10)


def _check_key_matrix_pd(config: ExperimentConfig) -> met.MetricReport:
    smallest = np.inf
    for seed in range(100):
        mrp = mdp_mod.make_random_mdp(n=30, h=1, gamma=0.9, alpha=config.alpha, seed=seed)
        A = mdp_mod.key_matrix(mrp)
        smallest = min(smallest, np.linalg.eigvalsh(0.5 * (A + A.T))[0])
    return met.MetricReport("mdp.key_matrix_pd", smallest, 0.0, smallest > 0.0)


def _check_value_function_residual(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    for seed in range(20):
        mrp = mdp_mod.make_random_mdp(n=20, h=3, gamma=config.gamma, alpha=config.alpha, seed=seed)
        V = mdp_mod.value_function(mrp)
        resid = np.abs(V - mrp.gamma * (mrp.P @ V) - mrp.R).max()
        worst = max(worst, resid)
    return met.MetricReport("mdp.value_function_residual", worst, 1e-10, worst <= 1e-10)


def _check_reward_concentration(config: ExperimentConfig) -> met.MetricReport:
    n = 10
    medians = []
    for h in (100, 1000, 10000):
        devs = []
        for seed in range(20):
            R = mdp_mod.sample_random_rewards(n, RewardSpec(h=h, sigma=1.0), seed=seed)
            devs.append(np.abs(R @ R.T - np.eye(n)).max())
        medians.append(float(np.median(devs)))
    decreasing = medians[0] > medians[1] > medians[2]
    return met.MetricReport("mdp.reward_concentration", medians[-1], 0.15, decreasing and medians[-1] < 0.15)


def _check_mdp_determinism(config: ExperimentConfig) -> met.MetricReport:
    a = mdp_mod.make_random_mdp(n=12, h=2, gamma=config.gamma, alpha=config.alpha, seed=99)
    b = mdp_mod.make_random_mdp(n=12, h=2, gamma=config.gamma, alpha=config.alpha, seed=99)
    same = (
        np.array_equal(a.P, b.P)
        and np.array_equal(a.R, b.R)
        and np.array_equal(a.d, b.d)
    )
    return met.MetricReport("mdp.determinism", 0.0 if same else 1.0, 0.0, same)


def _check_gradient_flow_identity(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    rng = make_rng(2024)
    for seed in range(20):
        mrp = mdp_mod.make_symmetric_mdp(n=10, h=2, gamma=0.9, seed=seed)
        phi = rng.standard_normal((10, 3))
        w = rng.standard_normal((3, 2))
        worst = max(worst, met.gradient_check(mrp, phi, w))
    return met.MetricReport("dynamics.gradient_flow_identity", worst, 1e-5, worst < 1e-5)


def _check_energy_dissipation(config: ExperimentConfig) -> met.MetricReport:
    spec = dyn.end_to_end(eta_w=1.0, eta_phi=1.0)
    worst = 0.0
    for seed in range(5):
        mrp = mdp_mod.make_symmetric_mdp(n=10, h=1, gamma=0.9, seed=seed)
        phi0 = dyn.orthonormal_init(10, 2, seed=seed + 1)
        log = dyn.integrate(
            mrp, spec, phi0, config=config.integrator, metric_set=("E",), store_states=True
        )
        pairs = []
        for phi, w in log.states[:: max(1, len(log.states) // 20)]:
            grad_w, grad_phi = met.weighted_error_gradients(mrp, phi, w)
            dw, dphi = dyn.rhs_end_to_end(mrp, phi, w, spec.eta_w, spec.eta_phi)
            lhs = float(np.sum(grad_w * dw) + np.sum(grad_phi * dphi))
            rhs = float(
                -(np.sum(dphi * dphi) / spec.eta_phi + np.sum(dw * dw) / spec.eta_w)
            )
            pairs.append((lhs, rhs))
        # Skip states within rounding distance of a critical point: there both
        # sides vanish and a relative comparison only amplifies noise.
        floor = 1e-10 * abs(pairs[0][1])
        for lhs, rhs in pairs:
            if abs(rhs) >= floor:
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return met.MetricReport("dynamics.energy_dissipation", worst, 1e-8, worst < 1e-8)


def _check_covariance_constancy(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    for seed in range(5):
        mrp = mdp_mod.make_random_mdp(n=10, h=1, gamma=0.9, alpha=config.alpha, seed=seed)
        phi0 = dyn.orthonormal_init(10, 2, seed=seed + 1)
        log = dyn.integrate(
            mrp, dyn.two_time_scale(), phi0, config=config.integrator, metric_set=("cov_drift",)
        )
        worst = max(worst, float(log.metrics["cov_drift"].max()))
    return met.MetricReport("dynamics.covariance_constancy", worst, 1e-6, worst <= 1e-6)


def _check_trace_monotonicity(config: ExperimentConfig) -> met.MetricReport:
    slack = 10 * config.integrator.atol
    worst_dip = 0.0
    for seed in range(3):
        n = 10
        base = mdp_mod.make_symmetric_mdp(n=n, h=1, gamma=0.9, seed=seed)
        mrp = base.with_rewards(np.eye(n))
        phi0 = dyn.orthonormal_init(n, 2, seed=seed + 1)
        log = dyn.integrate(mrp, dyn.two_time_scale(), phi0, config=config.integrator, metric_set=("f",))
        dips = -np.diff(log.metrics["f"])
        worst_dip = max(worst_dip, float(dips.max(initial=0.0)))
    return met.MetricReport("dynamics.trace_monotonicity", worst_dip, slack, worst_dip <= slack)


def _check_fixed_point_orthogonality(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    for seed in range(3):
        mrp = mdp_mod.make_random_mdp(n=10, h=2, gamma=0.9, alpha=config.alpha, seed=seed)
        phi0 = dyn.orthonormal_init(10, 2, seed=seed + 1)
        A = mdp_mod.key_matrix(mrp)
        V = mdp_mod.value_function(mrp)
        log = dyn.integrate(
            mrp, dyn.two_time_scale(), phi0, config=config.integrator,
            metric_set=("E",), store_states=True,
        )
        for phi, w_star in log.states:
            resid = np.abs(phi.T @ A @ (phi @ w_star - V)).max()
            worst = max(worst, float(resid))
    return met.MetricReport("dynamics.fixed_point_orthogonality", worst, 1e-8, worst <= 1e-8)


def _check_integrator_order(config: ExperimentConfig) -> met.MetricReport:
    import scipy.linalg  # deferred: the only scipy use in the package

    mrp = mdp_mod.make_random_mdp(n=10, h=1, gamma=0.9, alpha=config.alpha, seed=5)
    phi = dyn.orthonormal_init(10, 3, seed=6)
    w0 = np.zeros((3, 1))
    t_end = 50.0
    A = mdp_mod.key_matrix(mrp)
    G = phi.T @ A @ phi
    w_star = dyn.td_fixed_point(mrp, phi)
    exact = w_star + scipy.linalg.expm(-t_end * G) @ (w0 - w_star)
    errors = []
    for rtol in (1e-5, 1e-9):
        cfg = dyn.IntegratorConfig(t_end=t_end, rtol=rtol, atol=rtol * 1e-2, log_points=2)
        log = dyn.integrate(mrp, dyn.linear_td(), phi, w0=w0, config=cfg, metric_set=("E",), store_states=True)
        errors.append(float(np.abs(log.states[-1][1] - exact).max()))
    ok = errors[0] > errors[1] and errors[1] <= 1e-7
    return met.MetricReport("dynamics.integrator_order", errors[1], 1e-7, ok)


def _check_error_nonnegativity(config: ExperimentConfig) -> met.MetricReport:
    rng = make_rng(77)
    lowest = np.inf
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        h = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        seed = int(rng.integers(0, 2**31))
        mrp = mdp_mod.make_random_mdp(n=n, h=h, gamma=0.9, alpha=config.alpha, seed=seed)
        phi = rng.standard_normal((n, k))
        w = rng.standard_normal((k, h))
        lowest = min(lowest, met.weighted_value_error(mrp, phi, w))
    mrp = mdp_mod.make_random_mdp(n=8, h=2, gamma=0.9, alpha=config.alpha, seed=1)
    at_value = met.weighted_value_error(mrp, mdp_mod.value_function(mrp), np.eye(2))
    ok = lowest >= 0.0 and at_value < 1e-12
    return met.MetricReport("metrics.error_nonnegativity", min(lowest, at_value), 0.0, ok)


def _check_trace_kpca_consistency(config: ExperimentConfig) -> met.MetricReport:
    mrp = mdp_mod.make_symmetric_mdp(n=10, h=1, gamma=0.9, seed=8)
    k = 3
    resolvent = np.linalg.inv(np.eye(10) - mrp.gamma * mrp.P)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (resolvent + resolvent.T))
    top = eigvecs[:, -k:]
    gap = abs(met.normalized_trace_objective(mrp, top, k=k) - 1.0)
    worst_probe = 0.0
    rng = make_rng(9)
    for _ in range(50):
        probe, _ = np.linalg.qr(rng.standard_normal((10, k)))
        worst_probe = max(worst_probe, met.normalized_trace_objective(mrp, probe, k=k))
    ok = gap <= 1e-10 and worst_probe <= 1.0 + 1e-10
    return met.MetricReport("metrics.trace_kpca_consistency", gap, 1e-10, ok)


def _check_projection_idempotence(config: ExperimentConfig) -> met.MetricReport:
    rng = make_rng(13)
    worst = 0.0
    for seed in range(10):
        mrp = mdp_mod.make_random_mdp(n=8, h=1, gamma=0.9, alpha=config.alpha, seed=seed)
        A = mdp_mod.key_matrix(mrp)
        phi = rng.standard_normal((8, 3))
        M = (A @ phi) @ np.linalg.solve(phi.T @ A @ phi, phi.T)
        worst = max(worst, np.abs(M @ M - M).max())
        # M = B (B^T W B)^{-1} B^T W with B = A phi and W = (A^T)^{-1} is the
        # W-oblique projector onto span(B): MB = B, residuals W-orthogonal.
        B = A @ phi
        W = np.linalg.inv(A.T)
        worst = max(worst, np.abs(M @ B - B).max())
        v = rng.standard_normal(8)
        worst = max(worst, np.abs(B.T @ W @ (v - M @ v)).max())
    return met.MetricReport("metrics.projection_idempotence", worst, 1e-10, worst <= 1e-10)


def _check_subspace_critical_roundtrip(config: ExperimentConfig) -> met.MetricReport:
    n, k = 10, 2
    base = mdp_mod.make_symmetric_mdp(n=n, h=1, gamma=0.9, seed=21)
    mrp = base.with_rewards(np.eye(n))
    eigvals, eigvecs = np.linalg.eigh(mrp.P)
    rng = make_rng(22)
    ok = True
    worst_clean = 0.0
    for cols in ((n - 1, n - 2), (0, n - 1), (3, 7)):
        phi = eigvecs[:, list(cols)]
        sub = met.invariant_subspace_residual(mrp.P, phi)
        crit = met.critical_point_residual(mrp, phi)
        worst_clean = max(worst_clean, sub, crit)
        ok = ok and sub < 1e-10 and crit < 1e-10
    for _ in range(5):
        phi = eigvecs[:, [n - 1, n - 2]] + 1e-2 * rng.standard_normal((n, k))
        sub = met.invariant_subspace_residual(mrp.P, phi)
        crit = met.critical_point_residual(mrp, phi)
        ok = ok and sub > 1e-8 and crit > 1e-8
    return met.MetricReport("metrics.subspace_critical_roundtrip", worst_clean, 1e-10, ok)


def _check_rotation_invariance(config: ExperimentConfig) -> met.MetricReport:
    rng = make_rng(31)
    phi0 = dyn.orthonormal_init(12, 4, seed=32)
    worst = 0.0
    for _ in range(10):
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        worst = max(worst, met.covariance_drift(phi0 @ Q, phi0))
    return met.MetricReport("metrics.rotation_invariance", worst, 1e-12, worst <= 1e-12)


def _tiny_fig1_config(jobs: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        n_states=8,
        k=2,
        n_trials=3,
        seed=7,
        jobs=jobs,
        integrator=dyn.IntegratorConfig(t_end=20.0, rtol=1e-8, atol=1e-10, log_points=21),
    )


def _check_experiment_determinism(config: ExperimentConfig) -> met.MetricReport:
    first = run_fig1(_tiny_fig1_config())
    second = run_fig1(_tiny_fig1_config())
    same = all(first[name].to_csv() == second[name].to_csv() for name in first)
    return met.MetricReport("experiments.determinism", 0.0 if same else 1.0, 0.0, same)


def _check_trial_independence(config: ExperimentConfig) -> met.MetricReport:
    sequential = run_fig1(_tiny_fig1_config(jobs=1))
    concurrent = run_fig1(_tiny_fig1_config(jobs=2))
    worst = max(
        np.abs(sequential[name].values - concurrent[name].values).max() for name in sequential
    )
    return met.MetricReport("experiments.trial_independence", float(worst), 0.0, worst == 0.0)


def _check_median_aggregation(config: ExperimentConfig) -> met.MetricReport:
    times = np.arange(5.0)
    values = np.vstack([np.full(5, 2.0)] * 4 + [np.full(5, 100.0)])
    agg = AggregateSeries("median_check", times, values, trial_seeds=tuple(range(5)))
    gap = np.abs(agg.median - 2.0).max()
    return met.MetricReport("experiments.median_aggregation", float(gap), 0.0, gap == 0.0)


def _check_cli_seed_determinism(config: ExperimentConfig) -> met.MetricReport:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for name in ("a.json", "b.json"):
            path = Path(tmp) / name
            proc = subprocess.run(
                [sys.executable, "-m", "tdrepdyn.cli", "gen-mdp", "--n", "8", "--seed", "4",
                 "-o", str(path)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                return met.MetricReport("cli.seed_determinism", 1.0, 0.0, False)
            outputs.append(path.read_bytes())
    same = outputs[0] == outputs[1]
    return met.MetricReport("cli.seed_determinism", 0.0 if same else 1.0, 0.0, same)


def _check_cli_help_flags(config: ExperimentConfig) -> met.MetricReport:
    from .cli import build_parser  # deferred: cli imports this module at top level

    parser = build_parser()
    helps = {name: sub.format_help() for name, sub in parser.subcommands.items()}
    expected = {
        "gen-mdp": ["--n", "--h", "--gamma", "--alpha", "--seed", "-o"],
        "simulate": ["--n", "--k", "--h", "--gamma", "--alpha", "--seed", "--dynamics",
                     "--eta-w", "--eta-phi", "--t-end", "--rtol", "--atol", "-o", "-c"],
        "experiment": ["--n", "--k", "--gamma", "--alpha", "--seed", "--trials", "--jobs",
                       "--t-end", "--rtol", "--atol", "-o", "-c"],
    }
    missing = sum(
        flag not in helps[sub] for sub, flags in expected.items() for flag in flags
    )
    return met.MetricReport("cli.help_flags", float(missing), 0.0, missing == 0)
