"""Executable invariants: one check per documented property of the library.

``run_invariant_suite`` (``tdrepdyn experiment invariants``) runs every
``_check_*`` function of this module, in definition order, and reports one
``MetricReport`` each. The acceptance tests call the same checks, some with
their own integrator settings, so each invariant is checked by one function.
A check on several chains integrates them with one ``integrate_batch`` call.

A property earns a row only if the row can fail and no unit test makes the
same check: a bound the library already enforces on every call reads "true"
by construction, and a row that repeats a unit test adds run time and no
coverage. The five rows left are premises and results of the paper: the key
matrix is positive definite, the generator's rewards concentrate, end-to-end
TD on a reversible chain follows the gradient of E, and with R = I the
two-time-scale flow keeps phi^T phi fixed and climbs the trace objective.
Each row has a checked-in mutant of the library that fails it
(``tests/mutants.py``).

Left to unit tests, or to nothing:

- the integrator's order against a matrix exponential, the sign of the
  weighted value error, the trace objective's ceiling, the critical-point
  residual on eigenvector pairs and the rotation invariance of the covariance
  drift (``test_linear_td_matches_matrix_exponential``,
  ``test_weighted_value_error_matches_enumerated_sum``,
  ``test_normalized_trace_is_one_on_top_eigenbasis``,
  ``test_critical_point_residual_zero_on_eigenvector_subsets`` and
  ``test_covariance_drift_rotation_invariant_for_orthonormal``);
- the row and column sums of mixed chains, in
  ``test_mixed_chains_are_doubly_stochastic``;
- the Bellman residual of ``mrp.V``, which ``MarkovRewardProcess`` bounds
  on every solve, in ``test_value_function_residual``;
- energy dissipation along end-to-end trajectories, which follows from the
  gradient-flow identity and ``test_true_gradients_match_finite_differences``,
  and which ``test_reversible_chains_with_non_uniform_d_are_gradient_flows``
  checks directly (its row recomputed the drift from the spec, so it never
  saw the integrator's field);
- the oblique projector A phi (phi^T A phi)^-1 phi^T, which is idempotent for
  any invertible A: no library code can break that identity.

The suite runs no figure experiment, starts no process pool and needs
nothing but numpy.
"""

from __future__ import annotations

import logging

import numpy as np

from . import dynamics as dyn
from . import mdp as mdp_mod
from . import metrics as met
from .experiments import _TRIAL_FAILURES, ExperimentConfig, _output_dir
from .mdp import make_rng

logger = logging.getLogger(__name__)


def run_invariant_suite(config: ExperimentConfig) -> list[met.MetricReport]:
    """Run every ``_check_*`` of this module with fixed seeds; one report per check.

    The trajectory-based checks honor ``config.integrator`` so that a corrupt
    tolerance (say rtol=1) makes the covariance-constancy check fail, which
    serves as the suite's negative control. A check that ends in a numerical
    failure gets a failed report; any other exception is a bug and propagates.
    """
    out = _output_dir(config, "invariants")
    checks = {name.removeprefix("_check_"): f for name, f in globals().items() if name.startswith("_check_")}
    reports = []
    for name, check in checks.items():
        try:
            reports.append(check(config))
        except _TRIAL_FAILURES as exc:
            logger.warning("invariant check %s raised: %s", name, exc)
            reports.append(met.MetricReport(name, float("inf"), 0.0, False))
    if out is not None:
        (out / "report.csv").write_text(met.reports_to_csv(reports))
    return reports


def _integrated(
    config: ExperimentConfig, mrps: list[mdp_mod.MarkovRewardProcess], spec: dyn.DynamicsSpec,
    phi_seeds: range, metric_set: tuple[str, ...],
) -> list[dyn.TrajectoryLog]:
    """One trajectory per chain, each from an orthonormal n x 2 start, in one batch.

    Raises the first failed trajectory's error.
    """
    problems = [
        dyn.Problem(mrp, spec, dyn.orthonormal_init(mrp.n, 2, seed=seed))
        for mrp, seed in zip(mrps, phi_seeds, strict=True)
    ]
    logs = dyn.integrate_batch(problems, config.integrator, metric_set)
    for log in logs:
        if isinstance(log, Exception):
            raise log
    return logs


def _check_key_matrix_pd(config: ExperimentConfig) -> met.MetricReport:
    smallest = np.inf
    for seed in range(100):
        for n in (10, 30):
            for mrp in (
                mdp_mod.make_mdp(False, 1, n=n, gamma=0.9, alpha=config.alpha, seed=seed),
                mdp_mod.make_mdp(True, 1, n=n, gamma=0.9, seed=seed),
            ):
                A = mrp.A
                smallest = min(smallest, float(np.linalg.eigvalsh(0.5 * (A + A.T))[0]))
    return met.MetricReport("mdp.key_matrix_pd", smallest, 0.0, smallest > 0.0)


def _check_reward_concentration(config: ExperimentConfig) -> met.MetricReport:
    n = 10
    medians = []
    for h in (100, 1000, 10000):
        devs = []
        for seed in range(20):
            R = mdp_mod.make_mdp(False, h, n=n, gamma=0.9, alpha=config.alpha, seed=seed).R
            devs.append(np.abs(R @ R.T / h - np.eye(n)).max())
        medians.append(float(np.median(devs)))
    decreasing = medians[0] > medians[1] > medians[2]
    return met.MetricReport("mdp.reward_concentration", medians[-1], 0.15, decreasing and medians[-1] < 0.15)


def _check_gradient_flow_identity(config: ExperimentConfig) -> met.MetricReport:
    worst = 0.0
    rng = make_rng(2024)
    for seed in range(20):
        mrp = mdp_mod.make_mdp(True, 2, n=10, gamma=0.9, seed=seed)
        phi = rng.standard_normal((10, 3))
        w = rng.standard_normal((3, 2))
        worst = max(worst, dyn.gradient_check(mrp, phi, w))
    return met.MetricReport("dynamics.gradient_flow_identity", worst, 1e-5, worst < 1e-5)


def _check_covariance_constancy(config: ExperimentConfig) -> met.MetricReport:
    # phi^T phi is conserved on any chain, so mixed-generator chains are the harder test
    mrps = [mdp_mod.make_mdp(False, 1, n=30, gamma=0.9, alpha=config.alpha, seed=seed)
            for seed in range(20)]
    logs = _integrated(config, mrps, dyn.two_time_scale(), range(20), ("cov_drift",))
    worst = max(float(log.metrics["cov_drift"].max()) for log in logs)
    return met.MetricReport("dynamics.covariance_constancy", worst, 1e-6, worst < 1e-6)


def _check_trace_monotonicity(config: ExperimentConfig) -> met.MetricReport:
    slack = 10 * config.integrator.atol
    mrps = [mdp_mod.make_mdp(True, 1, n=10, gamma=0.9, seed=seed).with_rewards(np.eye(10))
            for seed in range(3)]
    logs = _integrated(config, mrps, dyn.two_time_scale(), range(1, 4), ("f",))
    worst_dip = max(float((-np.diff(log.metrics["f"])).max(initial=0.0)) for log in logs)
    return met.MetricReport("dynamics.trace_monotonicity", worst_dip, slack, worst_dip <= slack)

