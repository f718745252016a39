"""Acceptance gate: ten end-to-end checks, one PASS/FAIL line each.

Every test records its verdict through the ``acceptance`` fixture (the
summary block at the end of the pytest run) and then asserts it, so a
failure shows up both ways. The heavyweight figure reproductions run the
full 100-trial protocol; criteria 4-6 (marked slow) take about 35 s together
on a 2-core machine, most of it criterion 6.
"""

import subprocess
import sys

import numpy as np
import pytest

from tdrepdyn import dynamics as dyn
from tdrepdyn import experiments as exp
from tdrepdyn import invariants as inv
from tdrepdyn import metrics as met
from tdrepdyn.mdp import make_mdp

N_PROBE_MDPS = 20


def test_criterion_1_gradient_flow_identity(acceptance):
    # On reversible chains the end-to-end drift is exactly -eta * grad E,
    # so a central finite difference of E must reproduce it.
    report = inv._check_gradient_flow_identity(exp.ExperimentConfig())
    acceptance(1, "gradient flow identity", report.passed,
               f"max rel err {report.value:.3e} < {report.tolerance_used:.0e}")
    assert report.passed


def test_criterion_2_energy_dissipation(acceptance):
    # E must decay monotonically along end-to-end trajectories on reversible
    # chains, and its numerical slope must match the analytic dissipation
    # rate -(eta_w |g_w|^2 + eta_phi |g_phi|^2).
    atol = 1e-12
    spec = dyn.end_to_end(eta_w=1.0, eta_phi=1.0)
    worst_increase = 0.0
    worst_match = 0.0
    for seed in range(N_PROBE_MDPS):
        mrp = make_mdp(True, 1, n=10, gamma=0.9, seed=seed)
        phi0 = dyn.orthonormal_init(10, 2, seed=seed)
        t_end = 100.0
        while True:
            config = dyn.IntegratorConfig(
                t_end=t_end, rtol=1e-10, atol=atol,
                log_points=int(round(t_end / 0.125)) + 1,
            )
            log = dyn.integrate(
                mrp, spec, phi0,
                config=config, metric_set=("E", "grad_norm_w", "grad_norm_phi"),
            )
            gnorm = np.hypot(log.metrics["grad_norm_w"], log.metrics["grad_norm_phi"])
            if gnorm[-1] <= gnorm[0] / 100.0 or t_end >= 1600.0:
                break
            t_end *= 2.0

        E = log.metrics["E"]
        worst_increase = max(worst_increase, float(np.diff(E).max()))
        dt = log.times[1] - log.times[0]
        numeric = (E[2:] - E[:-2]) / (2 * dt)
        analytic = -(
            spec.eta_w * log.metrics["grad_norm_w"][1:-1] ** 2
            + spec.eta_phi * log.metrics["grad_norm_phi"][1:-1] ** 2
        )
        big = np.abs(analytic) > 1e-8
        if big.any():
            match = np.abs(numeric[big] - analytic[big]) / np.abs(analytic[big])
            worst_match = max(worst_match, float(match.max()))
    passed = worst_increase <= 10 * atol and worst_match < 0.01
    acceptance(
        2, "energy dissipation", passed,
        f"max E increase {worst_increase:.2e} <= 1e-11, dE/dt mismatch "
        f"{worst_match:.2%} < 1%",
    )
    assert passed


def test_criterion_3_covariance_constancy(acceptance):
    # No reversibility needed: phi^T phi is conserved by the two-time-scale
    # flow on any chain, so mixed-generator MDPs are the harder test.
    config = exp.ExperimentConfig(
        integrator=dyn.IntegratorConfig(t_end=500.0, rtol=1e-10, atol=1e-12, log_points=26)
    )
    report = inv._check_covariance_constancy(config)
    acceptance(3, "covariance constancy", report.passed,
               f"max |phi^T phi - I| {report.value:.3e} < {report.tolerance_used:.0e}")
    assert report.passed


@pytest.mark.slow
def test_criterion_4_spectral_monotonicity(acceptance):
    # With R = I the two-time-scale flow climbs the trace objective and
    # should end (numerically) on an invariant subspace of P.
    atol = 1e-12
    spec = dyn.two_time_scale(eta_phi=1.0)
    config = dyn.IntegratorConfig(t_end=4000.0, rtol=1e-10, atol=atol, log_points=201)
    worst_dip = 0.0
    worst_residual = 0.0
    problems = [
        dyn.Problem(
            make_mdp(True, 1, n=10, gamma=0.9, seed=seed).with_rewards(np.eye(10)),
            spec,
            dyn.orthonormal_init(10, 2, seed=seed),
        )
        for seed in range(N_PROBE_MDPS)
    ]
    logs = dyn.integrate_batch(problems, config, metric_set=("f",), store_states=True)
    for (mrp, _, _, _), log in zip(problems, logs):
        if isinstance(log, Exception):
            raise log
        worst_dip = max(worst_dip, float(-np.diff(log.metrics["f"]).min()))
        worst_residual = max(worst_residual, met.invariant_subspace_residual(mrp.P, log.phis[-1]))
    passed = worst_dip <= 10 * atol and worst_residual < 1e-4
    acceptance(
        4, "spectral monotonicity", passed,
        f"max f dip {worst_dip:.2e} <= 1e-11, subspace residual "
        f"{worst_residual:.3e} < 1e-4",
    )
    assert passed


@pytest.mark.slow
def test_criterion_5_fig1_reproduction(acceptance):
    config = exp.ExperimentConfig(
        n_states=30, k=2, n_trials=100, seed=0,
        integrator=dyn.IntegratorConfig(t_end=30.0, rtol=1e-8, atol=1e-10, log_points=121),
    )
    series = exp.run_experiment("fig1", config)
    finals = {name: float(agg.median[-1]) for name, agg in series.items()}
    decays = all(agg.median[-1] < agg.median[0] for agg in series.values())
    tts_final = finals["two_time_scale_phi1"]
    tts_smallest = all(
        tts_final < value for name, value in finals.items()
        if name != "two_time_scale_phi1"
    )
    passed = decays and tts_smallest
    detail = ", ".join(f"{name} -> {value:.3g}" for name, value in sorted(finals.items()))
    acceptance(5, "fig1 ordering", passed, detail)
    assert passed


@pytest.mark.slow
def test_criterion_6_fig3_reproduction(acceptance):
    config = exp.ExperimentConfig(
        n_states=30, k=2, n_trials=100, seed=0, h_values=(1, 2, 4, 8),
        integrator=dyn.IntegratorConfig(t_end=100.0, rtol=1e-8, atol=1e-10, log_points=101),
    )
    series = exp.run_experiment("fig3", config)
    finals = [float(series[f"h{h}"].median[-1]) for h in (1, 2, 4, 8)]
    monotone = all(a <= b for a, b in zip(finals, finals[1:]))
    passed = monotone and finals[-1] >= 0.75
    detail = "final f_norm " + " <= ".join(f"{v:.3f}" for v in finals) + ", h=8 >= 0.75"
    acceptance(6, "fig3 h sweep", passed, detail)
    assert passed


def test_criterion_7_reward_concentration(acceptance):
    report = inv._check_reward_concentration(exp.ExperimentConfig())
    acceptance(7, "reward concentration", report.passed,
               f"median max |R R^T / h - I| falls with h, {report.value:.3f} < "
               f"{report.tolerance_used:g} at h=10000")
    assert report.passed


def test_criterion_8_key_matrix_positive_definite(acceptance):
    report = inv._check_key_matrix_pd(exp.ExperimentConfig())
    acceptance(8, "key matrix PD", report.passed, f"min eigenvalue {report.value:.3e} > 0")
    assert report.passed


def test_criterion_9_oracle_equivalences(acceptance, small_mixed, two_state):
    w_full = dyn.td_fixed_point(small_mixed, np.eye(small_mixed.n))
    gap = np.abs(w_full - small_mixed.V).max()
    hand = np.abs(two_state.V - np.array([[5.5], [4.5]])).max()
    passed = gap < 1e-10 and hand < 1e-10
    acceptance(
        9, "oracle equivalences", passed,
        f"fixed point vs V {gap:.2e}, 2-state vs hand solve {hand:.2e}",
    )
    assert passed


def test_criterion_10_deterministic_experiment(acceptance, tmp_path):
    outputs = []
    for run in range(2):
        outdir = tmp_path / f"run{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "tdrepdyn.cli",
             "experiment", "fig1", "--trials", "5", "--seed", "7",
             "-o", str(outdir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        csvs = sorted((outdir / "fig1").glob("*.csv"))
        outputs.append({p.name: p.read_bytes() for p in csvs})
    passed = len(outputs[0]) == 3 and outputs[0] == outputs[1]
    acceptance(
        10, "experiment determinism", passed,
        f"{len(outputs[0])} CSVs byte-identical across two runs",
    )
    assert passed
