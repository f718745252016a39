"""Executable invariants: one check per documented property of the library.

``run_invariant_suite`` (``tdrepdyn experiment invariants``) runs every
``_check_*`` function of this module, in definition order, and reports one
``MetricReport`` each. The acceptance tests call the same checks, some with
their own integrator settings, so each invariant is checked by one function.
A check on several chains integrates them with one ``integrate_batch`` call.

A property earns a row only if the row can fail and no unit test makes the
same check: a bound the library already enforces on every call (such as
``MarkovRewardProcess``'s stationarity check or the fixed-point guard) reads
"true" by construction, and a row that repeats a unit test adds run time and
no coverage. So the integrator's order against a matrix exponential, the
sign of the weighted value error, the trace objective's ceiling, the
critical-point residual on eigenvector pairs and the rotation invariance of
the covariance drift are left to the unit tests that check them
(``test_linear_td_matches_matrix_exponential``,
``test_weighted_value_error_matches_enumerated_sum``,
``test_normalized_trace_is_one_on_top_eigenbasis``,
``test_critical_point_residual_zero_on_eigenvector_subsets`` and
``test_covariance_drift_rotation_invariant_for_orthonormal``). The suite runs
no figure experiment, starts no process pool and needs nothing but numpy.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from . import dynamics as dyn
from . import mdp as mdp_mod
from . import metrics as met
from .experiments import _TRIAL_FAILURES, ExperimentConfig
from .mdp import make_rng

logger = logging.getLogger(__name__)


def run_invariant_suite(config: ExperimentConfig) -> list[met.MetricReport]:
    """Run every ``_check_*`` of this module with fixed seeds; one report per check.

    The trajectory-based checks honor ``config.integrator`` so that a corrupt
    tolerance (say rtol=1) makes the covariance-constancy check fail, which
    serves as the suite's negative control. A check that ends in a numerical
    failure gets a failed report; any other exception is a bug and propagates.
    """
    checks = {name.removeprefix("_check_"): f for name, f in globals().items() if name.startswith("_check_")}
    reports = []
    for name, check in checks.items():
        try:
            reports.append(check(config))
        except _TRIAL_FAILURES as exc:
            logger.warning("invariant check %s raised: %s", name, exc)
            reports.append(met.MetricReport(name, float("inf"), 0.0, False))
    if config.outdir is not None:
        out = Path(config.outdir) / "invariants"
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(met.reports_to_csv(reports))
    return reports


def _integrated(
    config: ExperimentConfig, mrps: list[mdp_mod.MarkovRewardProcess], spec: dyn.DynamicsSpec,
    phi_seeds: range, metric_set: tuple[str, ...], store_states: bool = False,
) -> list[dyn.TrajectoryLog]:
    """One trajectory per chain, each from an orthonormal n x 2 start, in one batch.

    Raises the first failed trajectory's error.
    """
    problems = [
        dyn.Problem(mrp, spec, dyn.orthonormal_init(mrp.n, 2, seed=seed))
        for mrp, seed in zip(mrps, phi_seeds, strict=True)
    ]
    logs = dyn.integrate_batch(problems, config.integrator, metric_set, store_states)
    for log in logs:
        if isinstance(log, Exception):
            raise log
    return logs


def _check_doubly_stochastic_closure(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    p_ds = mdp_mod.sample_doubly_stochastic(12, seed=11)
    p_perm = mdp_mod.sample_permutation(12, seed=12)
    for alpha in np.linspace(0.0, 1.0, 11):
        P = alpha * p_perm + (1 - alpha) * p_ds
        worst = max(worst, np.abs(P.sum(axis=1) - 1).max(), np.abs(P.sum(axis=0) - 1).max())
    return met.MetricReport("mdp.doubly_stochastic_closure", worst, 1e-12, worst <= 1e-12)


def _check_key_matrix_pd(config: ExperimentConfig) -> met.MetricReport:
    smallest = np.inf
    for seed in range(100):
        for n in (10, 30):
            for mrp in (
                mdp_mod.make_random_mdp(n=n, h=1, gamma=0.9, alpha=config.alpha, seed=seed),
                mdp_mod.make_symmetric_mdp(n=n, h=1, gamma=0.9, seed=seed),
            ):
                A = mrp.A
                smallest = min(smallest, float(np.linalg.eigvalsh(0.5 * (A + A.T))[0]))
    return met.MetricReport("mdp.key_matrix_pd", smallest, 0.0, smallest > 0.0)


def _check_value_function_residual(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    for seed in range(20):
        mrp = mdp_mod.make_random_mdp(n=20, h=3, gamma=config.gamma, alpha=config.alpha, seed=seed)
        V = mrp.V
        resid = np.abs(V - mrp.gamma * (mrp.P @ V) - mrp.R).max()
        worst = max(worst, resid)
    return met.MetricReport("mdp.value_function_residual", worst, 1e-10, worst <= 1e-10)


def _check_reward_concentration(config: ExperimentConfig) -> met.MetricReport:
    n = 10
    medians = []
    for h in (100, 1000, 10000):
        devs = []
        for seed in range(20):
            R = mdp_mod.sample_random_rewards(n, h, seed=seed)
            devs.append(np.abs(R @ R.T - np.eye(n)).max())
        medians.append(float(np.median(devs)))
    decreasing = medians[0] > medians[1] > medians[2]
    return met.MetricReport("mdp.reward_concentration", medians[-1], 0.15, decreasing and medians[-1] < 0.15)


def _check_gradient_flow_identity(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    rng = make_rng(2024)
    for seed in range(20):
        mrp = mdp_mod.make_symmetric_mdp(n=10, h=2, gamma=0.9, seed=seed)
        phi = rng.standard_normal((10, 3))
        w = rng.standard_normal((3, 2))
        worst = max(worst, dyn.gradient_check(mrp, phi, w))
    return met.MetricReport("dynamics.gradient_flow_identity", worst, 1e-5, worst < 1e-5)


def _check_energy_dissipation(config: ExperimentConfig) -> met.MetricReport:
    spec = dyn.end_to_end(eta_w=1.0, eta_phi=1.0)
    mrps = [mdp_mod.make_symmetric_mdp(n=10, h=1, gamma=0.9, seed=seed) for seed in range(5)]
    logs = _integrated(config, mrps, spec, range(1, 6), ("E",), store_states=True)
    worst = 0.0
    for mrp, log in zip(mrps, logs):
        stride = max(1, len(log.times) // 20)
        phis, ws = log.phis[::stride], log.ws[::stride]
        grad_w, grad_phi = met.weighted_error_gradients(mrp, phis, ws)
        semi_w, semi_phi = dyn.expected_semi_gradients(mrp, phis, ws)
        dw, dphi = -spec.eta_w * semi_w, -spec.eta_phi * semi_phi
        lhs = np.sum(grad_w * dw, axis=(1, 2)) + np.sum(grad_phi * dphi, axis=(1, 2))
        rhs = -(np.sum(dphi * dphi, axis=(1, 2)) / spec.eta_phi
                + np.sum(dw * dw, axis=(1, 2)) / spec.eta_w)
        # Skip states within rounding distance of a critical point: there both
        # sides vanish and a relative comparison only amplifies noise.
        kept = np.abs(rhs) >= 1e-10 * np.abs(rhs[0])
        worst = max(worst, float((np.abs(lhs - rhs)[kept] / np.abs(rhs[kept])).max(initial=0.0)))
    return met.MetricReport("dynamics.energy_dissipation", worst, 1e-8, worst < 1e-8)


def _check_covariance_constancy(config: ExperimentConfig) -> met.MetricReport:
    # phi^T phi is conserved on any chain, so mixed-generator chains are the harder test
    mrps = [mdp_mod.make_random_mdp(n=30, h=1, gamma=0.9, alpha=config.alpha, seed=seed)
            for seed in range(20)]
    logs = _integrated(config, mrps, dyn.two_time_scale(), range(20), ("cov_drift",))
    worst = max(float(log.metrics["cov_drift"].max()) for log in logs)
    return met.MetricReport("dynamics.covariance_constancy", worst, 1e-6, worst < 1e-6)


def _check_trace_monotonicity(config: ExperimentConfig) -> met.MetricReport:
    slack = 10 * config.integrator.atol
    mrps = [mdp_mod.make_symmetric_mdp(n=10, h=1, gamma=0.9, seed=seed).with_rewards(np.eye(10))
            for seed in range(3)]
    logs = _integrated(config, mrps, dyn.two_time_scale(), range(1, 4), ("f",))
    worst_dip = max(float((-np.diff(log.metrics["f"])).max(initial=0.0)) for log in logs)
    return met.MetricReport("dynamics.trace_monotonicity", worst_dip, slack, worst_dip <= slack)


def _check_projection_idempotence(config: ExperimentConfig) -> met.MetricReport:
    rng = make_rng(13)
    worst = 0.0
    for seed in range(10):
        mrp = mdp_mod.make_random_mdp(n=8, h=1, gamma=0.9, alpha=config.alpha, seed=seed)
        A = mrp.A
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
