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
no coverage. The suite runs no figure experiment and starts no process pool.
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


def _check_integrator_order(config: ExperimentConfig) -> met.MetricReport:
    import scipy.linalg  # deferred: the only scipy use in the package

    mrp = mdp_mod.make_random_mdp(n=10, h=1, gamma=0.9, alpha=config.alpha, seed=5)
    phi = dyn.orthonormal_init(10, 3, seed=6)
    w0 = np.zeros((3, 1))
    t_end = 50.0
    G = phi.T @ mrp.A @ phi
    w_star = dyn.td_fixed_point(mrp, phi)
    exact = w_star + scipy.linalg.expm(-t_end * G) @ (w0 - w_star)
    errors = []
    for rtol in (1e-5, 1e-9):
        cfg = dyn.IntegratorConfig(t_end=t_end, rtol=rtol, atol=rtol * 1e-2, log_points=2)
        log = dyn.integrate(mrp, dyn.linear_td(), phi, w0=w0, config=cfg, metric_set=("E",), store_states=True)
        errors.append(float(np.abs(log.ws[-1] - exact).max()))
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
    at_value = met.weighted_value_error(mrp, mrp.V, np.eye(2))
    ok = lowest >= 0.0 and at_value < 1e-12
    return met.MetricReport("metrics.error_nonnegativity", min(lowest, at_value), 0.0, ok)


def _check_trace_kpca_consistency(config: ExperimentConfig) -> met.MetricReport:
    mrp = mdp_mod.make_symmetric_mdp(n=10, h=1, gamma=0.9, seed=8)
    k = 3
    resolvent = np.linalg.inv(np.eye(10) - mrp.gamma * mrp.P)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (resolvent + resolvent.T))
    top = eigvecs[:, -k:]
    gap = abs(met.normalized_trace_objective(mrp, top) - 1.0)
    worst_probe = 0.0
    rng = make_rng(9)
    for _ in range(50):
        probe, _ = np.linalg.qr(rng.standard_normal((10, k)))
        worst_probe = max(worst_probe, met.normalized_trace_objective(mrp, probe))
    ok = gap <= 1e-10 and worst_probe <= 1.0 + 1e-10
    return met.MetricReport("metrics.trace_kpca_consistency", gap, 1e-10, ok)


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
