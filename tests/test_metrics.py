import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdrepdyn import metrics as met
from tdrepdyn.dynamics import orthonormal_init
from tdrepdyn.mdp import key_matrix, make_random_mdp, make_symmetric_mdp, make_rng, value_function


def test_weighted_value_error_matches_trace_form(small_mixed):
    rng = make_rng(0)
    phi = rng.standard_normal((8, 3))
    w = rng.standard_normal((3, 1))
    err = phi @ w - value_function(small_mixed)
    A = key_matrix(small_mixed)
    direct = 0.5 * np.trace(err.T @ A @ err)
    assert_allclose(met.weighted_value_error(small_mixed, phi, w), direct, rtol=1e-12)


def test_weighted_value_error_zero_at_value_function(small_mixed):
    V = value_function(small_mixed)
    assert met.weighted_value_error(small_mixed, V, np.eye(1)) < 1e-12


def test_weighted_value_error_nonnegative(small_mixed):
    rng = make_rng(1)
    for _ in range(200):
        phi = rng.standard_normal((8, 2))
        w = rng.standard_normal((2, 1))
        assert met.weighted_value_error(small_mixed, phi, w) >= 0.0


def test_true_gradients_match_finite_differences(small_mixed):
    # the symmetrized form is the exact E-gradient even without reversibility
    rng = make_rng(2)
    phi = rng.standard_normal((8, 3))
    w = rng.standard_normal((3, 1))
    grad_w, grad_phi = met.weighted_error_gradients(small_mixed, phi, w)
    eps = 1e-6
    for idx in np.ndindex(w.shape):
        bump = np.zeros_like(w)
        bump[idx] = eps
        fd = (
            met.weighted_value_error(small_mixed, phi, w + bump)
            - met.weighted_value_error(small_mixed, phi, w - bump)
        ) / (2 * eps)
        assert abs(grad_w[idx] - fd) < 1e-7
    for idx in np.ndindex(phi.shape):
        bump = np.zeros_like(phi)
        bump[idx] = eps
        fd = (
            met.weighted_value_error(small_mixed, phi + bump, w)
            - met.weighted_value_error(small_mixed, phi - bump, w)
        ) / (2 * eps)
        assert abs(grad_phi[idx] - fd) < 1e-7


def test_gradient_check_helper_small_on_random_instance(small_symmetric):
    rng = make_rng(3)
    phi = rng.standard_normal((8, 2))
    w = rng.standard_normal((2, 2))
    assert met.gradient_check(small_symmetric, phi, w) < 1e-6


def test_trace_objective_matches_explicit_inverse(small_mixed):
    rng = make_rng(4)
    phi = rng.standard_normal((8, 3))
    resolvent = np.linalg.inv(np.eye(8) - small_mixed.gamma * small_mixed.P)
    assert_allclose(
        met.trace_objective(small_mixed, phi),
        np.trace(phi.T @ resolvent @ phi),
        rtol=1e-12,
    )


def test_trace_objective_and_ceiling_match_the_solve_formula():
    # both now read the process's cached resolvent instead of solving per call
    for seed in range(10):
        mrp = make_random_mdp(n=30, h=2, seed=seed)
        system = np.eye(30) - mrp.gamma * mrp.P
        phi = make_rng(seed).standard_normal((30, 2))
        direct = np.sum(phi * np.linalg.solve(system, phi))
        assert_allclose(met.trace_objective(mrp, phi), direct, rtol=1e-12)
        resolvent = np.linalg.solve(system, np.eye(30))
        eigs = np.linalg.eigvalsh(0.5 * (resolvent + resolvent.T))
        for k in (1, 2, 5):
            assert_allclose(met.trace_ceiling(mrp, k), eigs[-k:].sum(), rtol=1e-12)
    for cached in (mrp.resolvent, mrp.resolvent_eigvals):
        assert not cached.flags.writeable
    assert mrp.resolvent is mrp.resolvent


def test_trace_ceiling_is_topk_eigenvalue_sum(small_symmetric):
    resolvent = np.linalg.inv(np.eye(8) - small_symmetric.gamma * small_symmetric.P)
    eigs = np.linalg.eigvalsh(0.5 * (resolvent + resolvent.T))
    assert_allclose(met.trace_ceiling(small_symmetric, 3), eigs[-3:].sum(), rtol=1e-12)


def test_normalized_trace_is_one_on_top_eigenbasis(small_symmetric):
    resolvent = np.linalg.inv(np.eye(8) - small_symmetric.gamma * small_symmetric.P)
    _, vecs = np.linalg.eigh(resolvent)
    top2 = vecs[:, -2:]
    assert abs(met.normalized_trace_objective(small_symmetric, top2) - 1.0) < 1e-10
    # and no orthonormal probe can beat the ceiling
    for seed in range(20):
        probe = orthonormal_init(8, 2, seed=seed)
        assert met.normalized_trace_objective(small_symmetric, probe) <= 1.0 + 1e-10


def test_normalized_trace_k_mismatch_rejected(small_symmetric):
    phi = np.ones((8, 2))
    with pytest.raises(ValueError):
        met.normalized_trace_objective(small_symmetric, phi, k=3)


def test_covariance_drift_scaling_oracle():
    phi0 = make_rng(5).standard_normal((6, 2))
    # (2 phi)^T (2 phi) - phi^T phi = 3 phi^T phi
    expected = 3 * np.abs(phi0.T @ phi0).max()
    assert_allclose(met.covariance_drift(2 * phi0, phi0), expected, rtol=1e-12)


def test_covariance_drift_rotation_invariant_for_orthonormal():
    phi0 = orthonormal_init(10, 3, seed=6)
    q, _ = np.linalg.qr(make_rng(7).standard_normal((3, 3)))
    assert met.covariance_drift(phi0 @ q, phi0) < 1e-12


def test_projection_recovers_span_members(small_mixed):
    rng = make_rng(8)
    basis = rng.standard_normal((8, 3))
    weight = np.diag(small_mixed.d)
    inside = basis @ rng.standard_normal(3)
    assert_allclose(met.projection_onto_span(basis, weight, inside), inside, atol=1e-10)
    # residual of an arbitrary vector is weight-orthogonal to the span
    v = rng.standard_normal(8)
    proj = met.projection_onto_span(basis, weight, v)
    assert np.abs(basis.T @ weight @ (v - proj)).max() < 1e-10


def test_projection_rejects_degenerate_basis(small_mixed):
    basis = np.ones((8, 2))  # rank one
    with pytest.raises(met.IllConditionedError):
        met.projection_onto_span(basis, np.diag(small_mixed.d), np.ones(8))


def test_critical_point_residual_zero_on_eigenvector_subsets():
    base = make_symmetric_mdp(n=10, h=1, gamma=0.9, seed=9)
    mrp = base.with_rewards(np.eye(10))
    _, vecs = np.linalg.eigh(mrp.P)
    phi = vecs[:, [9, 5]]
    assert met.critical_point_residual(mrp, phi) < 1e-12
    assert met.invariant_subspace_residual(mrp.P, phi) < 1e-12
    # a perturbed subspace is critical for neither characterization
    noisy = phi + 1e-2 * make_rng(10).standard_normal((10, 2))
    assert met.critical_point_residual(mrp, noisy) > 1e-8
    assert met.invariant_subspace_residual(mrp.P, noisy) > 1e-8


def test_invariant_subspace_residual_rank_guard():
    P = np.full((4, 4), 0.25)
    phi = np.ones((4, 2))  # rank deficient
    with pytest.raises(np.linalg.LinAlgError):
        met.invariant_subspace_residual(P, phi)


def test_metric_report_coercion_and_csv():
    reports = [
        met.MetricReport("alpha", np.float64(0.25), 1e-6, np.bool_(True)),
        met.MetricReport("beta", 2.0, 1.0, False),
    ]
    text = met.reports_to_csv(reports)
    assert text == "name,value,tolerance,pass\nalpha,0.25,1e-06,true\nbeta,2.0,1.0,false\n"
    with pytest.raises(ValueError):
        met.MetricReport("bad", float("nan"), 0.0, True)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
