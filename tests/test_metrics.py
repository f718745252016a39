import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tdrepdyn import metrics as met
from tdrepdyn.dynamics import gradient_check, orthonormal_init
from tdrepdyn.mdp import make_mdp, make_rng

from chains import CHAIN_KINDS, build_chain


def test_weighted_value_error_matches_trace_form(small_mixed):
    rng = make_rng(0)
    phi = rng.standard_normal((8, 3))
    w = rng.standard_normal((3, 1))
    err = phi @ w - small_mixed.V
    A = small_mixed.A
    direct = 0.5 * np.trace(err.T @ A @ err)
    assert_allclose(met.weighted_value_error(small_mixed, phi, w), direct, rtol=1e-12)


def test_weighted_value_error_zero_at_value_function(small_mixed):
    assert met.weighted_value_error(small_mixed, small_mixed.V, np.eye(1)) < 1e-12


def test_weighted_value_error_nonnegative(small_mixed):
    rng = make_rng(1)
    for _ in range(200):
        phi = rng.standard_normal((8, 2))
        w = rng.standard_normal((2, 1))
        assert met.weighted_value_error(small_mixed, phi, w) >= 0.0


def _value_by_iteration(mrp):
    """V from ceil(40 / (1 - gamma)) sweeps of V <- R + gamma P V, starting at 0.

    P is stochastic, so each sweep shrinks the max-norm error by gamma, in all
    by gamma^sweeps <= e^-40: far below rounding. A stop on a small change
    comes too early for gamma near 1, and rounding can leave the iterates
    cycling in their last bits, so none is used.
    """
    V = np.zeros_like(mrp.R)
    for _ in range(int(np.ceil(40 / (1 - mrp.gamma)))):
        V = mrp.R + mrp.gamma * (mrp.P @ V)
    return V


def _enumerated_value_error(mrp, phi, w):
    """0.5 sum_c sum_s d(s) e(s, c) (e(s, c) - gamma sum_s' P(s, s') e(s', c)), e = phi w - V."""
    e = phi @ w - _value_by_iteration(mrp)
    total = 0.0
    for c in range(mrp.h):
        for s in range(mrp.n):
            expected_next = sum(mrp.P[s, s_next] * e[s_next, c] for s_next in range(mrp.n))
            total += mrp.d[s] * e[s, c] * (e[s, c] - mrp.gamma * expected_next)
    return 0.5 * total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(CHAIN_KINDS), n=st.integers(1, 6), k=st.integers(1, 3),
       h=st.integers(1, 3), gamma=st.sampled_from((0.0, 0.5, 0.9, 0.99)),
       seed=st.integers(0, 2**16))
def test_weighted_value_error_matches_enumerated_sum(kind, n, k, h, gamma, seed):
    # an oracle from the definition, with V from value iteration rather than the cached solve
    mrp = build_chain(kind, h, n=n, gamma=gamma, seed=seed)
    rng = make_rng(seed)
    phi = rng.standard_normal((n, min(k, n)))
    w = rng.standard_normal((min(k, n), h))
    want = _enumerated_value_error(mrp, phi, w)
    got = met.weighted_value_error(mrp, phi, w)
    assert got >= 0.0
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


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
    assert gradient_check(small_symmetric, phi, w) < 1e-6


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
        mrp = make_mdp(False, 2, n=30, seed=seed)
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
    for k in (2, 3):
        top = vecs[:, -k:]
        assert abs(met.normalized_trace_objective(small_symmetric, top) - 1.0) < 1e-10
        # and no orthonormal probe can beat the ceiling
        for seed in range(20):
            probe = orthonormal_init(8, k, seed=seed)
            assert met.normalized_trace_objective(small_symmetric, probe) <= 1.0 + 1e-10


def test_covariance_drift_scaling_oracle():
    phi0 = make_rng(5).standard_normal((6, 2))
    # (2 phi)^T (2 phi) - phi^T phi = 3 phi^T phi
    expected = 3 * np.abs(phi0.T @ phi0).max()
    assert_allclose(met.covariance_drift(2 * phi0, phi0), expected, rtol=1e-12)


def test_covariance_drift_rotation_invariant_for_orthonormal():
    phi0 = orthonormal_init(10, 3, seed=6)
    q, _ = np.linalg.qr(make_rng(7).standard_normal((3, 3)))
    assert met.covariance_drift(phi0 @ q, phi0) < 1e-12


@pytest.mark.parametrize("phi,phi0", [
    (np.ones((3, 4, 2)), np.ones((4, 3))),  # a stack against the wrong width
    (np.ones((5, 2)), np.ones((4, 2))),  # one more state
])
def test_covariance_drift_rejects_mismatched_shapes(phi, phi0):
    with pytest.raises(ValueError, match="shape mismatch"):
        met.covariance_drift(phi, phi0)


def test_critical_point_residual_zero_on_eigenvector_subsets():
    base = make_mdp(True, 1, n=10, gamma=0.9, seed=9)
    mrp = base.with_rewards(np.eye(10))
    _, vecs = np.linalg.eigh(mrp.P)
    for cols in ([9, 5], [9, 8], [0, 9], [3, 7]):
        phi = vecs[:, cols]
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


def _snapshot_stacks(mrp, T, k, seed):
    """(T, n, k) and (T, k, h) stacks laid out like a trajectory log's views of its states."""
    rng = make_rng(seed)
    n, h = mrp.n, mrp.h
    Y = rng.standard_normal((k * h + n * k, T))  # one column per log time
    return Y[k * h:].T.reshape(T, n, k), Y[:k * h].T.reshape(T, k, h)


@pytest.mark.parametrize("h", [1, 3])
def test_stacked_metrics_equal_their_2d_calls_slice_by_slice(h):
    from tdrepdyn.dynamics import expected_semi_gradients

    mrp = make_mdp(False, h, n=9, seed=11)
    phi0 = orthonormal_init(9, 2, seed=12)
    phis, ws = _snapshot_stacks(mrp, 7, 2, seed=13)
    stacked = {
        "E": lambda p, w: met.weighted_value_error(mrp, p, w),
        "f": lambda p, w: met.trace_objective(mrp, p),
        "f_norm": lambda p, w: met.normalized_trace_objective(mrp, p),
        "cov_drift": lambda p, w: met.covariance_drift(p, phi0),
        "crit_residual": lambda p, w: met.critical_point_residual(mrp, p),
        "grad_w": lambda p, w: expected_semi_gradients(mrp, p, w)[0],
        "grad_phi": lambda p, w: expected_semi_gradients(mrp, p, w)[1],
        "true_grad_w": lambda p, w: met.weighted_error_gradients(mrp, p, w)[0],
        "true_grad_phi": lambda p, w: met.weighted_error_gradients(mrp, p, w)[1],
    }
    for name, metric in stacked.items():
        got = metric(phis, ws)
        want = [metric(p, w) for p, w in zip(phis, ws)]
        assert np.array_equal(got, np.array(want)), name
        if got.ndim == 1:  # a scalar metric: a 2-D call gives an np.float64
            assert all(type(v) is np.float64 for v in want), name
        # any number of leading axes
        assert np.array_equal(metric(phis[:6].reshape(2, 3, 9, 2), ws[:6].reshape(2, 3, 2, h)),
                              got[:6].reshape(2, 3, *got.shape[1:])), name


def test_critical_point_residual_raises_for_an_ill_conditioned_snapshot(monkeypatch):
    mrp = make_mdp(False, 2, n=8, seed=14)
    phis, _ = _snapshot_stacks(mrp, 4, 2, seed=15)
    phis = phis.copy()
    phis[2, :, 1] = phis[2, :, 0]  # phi^T A phi is singular for this snapshot only
    with pytest.raises(met.IllConditionedError) as info:
        met.critical_point_residual(mrp, phis)
    assert info.value.matrix_name == "phi^T A phi"
    good = phis[[0, 1, 3]]
    assert np.isfinite(met.critical_point_residual(mrp, good)).all()

    # a solve the guard accepts but that is off by 1e-9 relative misses the
    # residual bound 1e-10 max(1, max|b|), in both metrics that solve
    real = met._solve_guarded_stack

    def off_by_1e9_relative(G, rhs, name):
        x, rejected = real(G, rhs, name)
        return x * (1 + 1e-9), rejected

    monkeypatch.setattr(met, "_solve_guarded_stack", off_by_1e9_relative)
    with pytest.raises(met.FixedPointResidualError):
        met.critical_point_residual(mrp, good)
    with pytest.raises(met.FixedPointResidualError):
        met.invariant_subspace_residual(mrp.P, good[0])


def test_stacked_solve_raises_the_first_rejected_slice(monkeypatch):
    first, second = met.IllConditionedError("G", 1e13), met.IllConditionedError("G", 1e14)

    def rejecting(G, rhs, name):
        return np.linalg.solve(G, rhs), {5: second, 3: first}

    monkeypatch.setattr(met, "_solve_guarded_stack", rejecting)
    with pytest.raises(met.IllConditionedError) as info:
        met._solve_or_raise(np.tile(np.eye(2), (6, 1, 1)), np.ones((6, 2, 1)), "G")
    assert info.value is first


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
