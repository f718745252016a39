import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from tdrepdyn import dynamics as dyn
from tdrepdyn import experiments as exp
from tdrepdyn import metrics as met
from tdrepdyn.mdp import make_mdp, make_rng
from tdrepdyn.metrics import COND_LIMIT, IllConditionedError

from chains import CHAIN_KINDS, build_chain


# ------------------------------------------------------------------- configs


def test_dynamics_spec_validation():
    with pytest.raises(ValueError):
        dyn.DynamicsSpec("momentum")
    with pytest.raises(ValueError):
        dyn.DynamicsSpec(dyn.END_TO_END, eta_w=-1.0)
    with pytest.raises(ValueError):
        dyn.DynamicsSpec(dyn.LINEAR_TD, eta_w=1.0, eta_phi=0.5)
    assert dyn.linear_td(2.0).eta_phi == 0.0
    assert dyn.two_time_scale(0.5).kind == dyn.TWO_TIME_SCALE


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        dyn.IntegratorConfig(t_end=0.0)
    with pytest.raises(ValueError):
        dyn.IntegratorConfig(rtol=-1e-8)
    with pytest.raises(ValueError):
        dyn.IntegratorConfig(log_points=1)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "5"])
def test_integrator_config_rejects_non_integer_log_points(bad):
    # 2.5 passed and then failed in np.linspace with an uncaught TypeError
    with pytest.raises(TypeError, match="log_points must be an integer"):
        dyn.IntegratorConfig(log_points=bad)
    assert dyn.IntegratorConfig(log_points=np.int64(5)).log_points == 5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rate", ["eta_w", "eta_phi"])
def test_dynamics_spec_rejects_non_finite_rates(rate, bad):
    with pytest.raises(ValueError, match="finite"):
        dyn.DynamicsSpec(dyn.END_TO_END, **{rate: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["t_end", "rtol", "atol"])
def test_integrator_config_rejects_non_finite_horizon_and_tolerances(name, bad):
    with pytest.raises(ValueError, match="finite"):
        dyn.IntegratorConfig(**{name: bad})


# ------------------------------------------------------------------ algebra


def test_fixed_point_matches_normal_equations(small_mixed):
    phi = make_rng(0).standard_normal((8, 3))
    w = dyn.td_fixed_point(small_mixed, phi)
    A = small_mixed.A
    rhs = phi.T @ np.diag(small_mixed.d) @ small_mixed.R
    assert_allclose(phi.T @ A @ phi @ w, rhs, atol=1e-12)


def test_fixed_point_rejects_ill_conditioned_basis(small_mixed):
    phi = np.ones((8, 2))
    phi[:, 1] += 1e-14
    with pytest.raises(IllConditionedError):
        dyn.td_fixed_point(small_mixed, phi)


def _reference_fixed_point(mrp, phi):
    """The fixed-point solve as np.linalg states it: rebuilt A, cond guard, solve."""
    A = mrp.d[:, None] * (np.eye(mrp.n) - mrp.gamma * mrp.P)
    G = phi.T @ A @ phi
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedError("phi^T A phi", float(cond))
    return np.linalg.solve(G, phi.T @ (mrp.d[:, None] * mrp.R))


def test_fixed_point_is_bit_identical_to_reference_formula():
    rng = make_rng(42)
    for i in range(50):
        k = (1, 2, 3, 4, 5)[i % 5]
        n = int(rng.integers(k, 31))
        h = int(rng.integers(1, 9))
        mrp = make_mdp(False, h, n=n, seed=i)
        phi = rng.standard_normal((n, k))
        assert np.array_equal(dyn.td_fixed_point(mrp, phi), _reference_fixed_point(mrp, phi))
    # a (T, n, k) stack: each snapshot's weights are its own call's, bit for bit,
    # and the first snapshot that fails raises its own call's error
    phis = rng.standard_normal((7, n, k))
    ws = dyn.td_fixed_point(mrp, phis)
    assert ws.shape == (7, k, h)
    assert ws.tobytes() == np.array([dyn.td_fixed_point(mrp, p) for p in phis]).tobytes()
    phis[2, 0, 0], phis[5, :, 0] = np.nan, 0.0  # cond NaN, then a singular snapshot
    with pytest.raises(IllConditionedError) as first:
        dyn.td_fixed_point(mrp, phis[2])
    with pytest.raises(IllConditionedError) as info:
        dyn.td_fixed_point(mrp, phis)
    assert np.isnan(info.value.cond) and str(info.value) == str(first.value)


def _guarded(G, b):
    """Every slice's solution of G x = b, and the condition guard's rejections."""
    x = met._solve(G, b)
    return x, met._guard(G, x, "G")


@pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
def test_cond_guard_decides_like_numpy_at_the_limit(factor):
    rng = make_rng(7)
    rhs = np.ones((2, 1))
    mats = [np.diag([1.0, 1.0 / (factor * COND_LIMIT)])]
    for _ in range(10):
        Q1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        Q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        mats.append(Q1 @ mats[0] @ Q2)
    _, rejected = _guarded(np.array(mats), np.array([rhs] * len(mats)))
    assert sorted(rejected) == [
        i for i, G in enumerate(mats) if not np.linalg.cond(G) <= COND_LIMIT
    ]
    assert (0 in rejected) == (factor > 1)


def test_singular_and_non_finite_systems_raise_ill_conditioned(small_mixed):
    u = dyn.orthonormal_init(8, 2, seed=3)[:, 0]
    for phi in (np.column_stack([u, u]), np.column_stack([u, np.zeros(8)])):
        with pytest.raises(IllConditionedError):
            _reference_fixed_point(small_mixed, phi)
        with pytest.raises(IllConditionedError):
            dyn.td_fixed_point(small_mixed, phi)
    for bad in (np.nan, np.inf):
        with pytest.raises(IllConditionedError):
            met._solve_or_raise(np.array([[bad, 0.0], [0.0, 1.0]]), np.ones((2, 1)), "G")
    # in a stack, the bad slices are reported and the good one is still solved
    stack = np.array([[[np.nan, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 4.0]], [[1.0, 0.0], [0.0, 0.0]]])
    x, rejected = _guarded(stack, np.ones((3, 2, 1)))
    assert sorted(rejected) == [0, 2] and np.array_equal(x[1], [[0.5], [0.25]])
    assert np.isnan(rejected[0].cond) and rejected[2].cond == np.inf


_GUARD_SLICES = ("well", "near_limit", "band", "singular", "nan", "inf")


def _guard_slice(rng, k, kind):
    """One k x k system of a kind the condition guard must tell apart, scaled at random.

    Rotated slices take random orthogonal factors; the near-limit and singular
    ones take signed permutations, so that their singular values are exact.
    """
    def orthogonal():
        return np.linalg.qr(rng.standard_normal((k, k)))[0]

    def signed_permutation():
        return np.eye(k)[rng.permutation(k)] * rng.choice([-1.0, 1.0], k)

    if kind in ("near_limit", "singular"):
        s = 10.0 ** rng.uniform(-11, 0, k)
        s[0] = 1.0
        if k > 1:
            s[-1] = 0.0 if kind == "singular" else 1 / (COND_LIMIT * (1 + rng.choice([-1e-9, 1e-9])))
        elif kind == "singular":
            s[0] = 0.0
        G = signed_permutation() @ np.diag(s) @ signed_permutation()
    else:
        digits = rng.uniform(11, 12) if kind == "band" else rng.uniform(0, 3)  # log10 cond
        s = 10.0 ** -rng.uniform(0, digits, k)
        s[0] = 1.0
        if k > 1:
            s[-1] = 10.0 ** -digits
        G = (orthogonal() * s) @ orthogonal().T
    G = G * 10.0 ** rng.uniform(-100, 100)
    if kind in ("nan", "inf"):
        G[tuple(rng.integers(k, size=2))] = np.nan if kind == "nan" else rng.choice([-np.inf, np.inf])
    return G


def _numpy_cond(G):
    # np.linalg.cond raises on a NaN entry and returns NaN (with LAPACK noise) for an inf
    return np.linalg.cond(G) if np.isfinite(G).all() else np.nan


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=st.integers(1, 6), kinds=st.lists(st.sampled_from(_GUARD_SLICES), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@example(k=2, kinds=["well"] * 6, seed=0)  # every slice certified: one solve, no SVD
@example(k=3, kinds=list(_GUARD_SLICES) + ["well"], seed=1)
def test_cond_guard_rejects_exactly_what_numpy_cond_rejects(k, kinds, seed):
    rng = make_rng(seed)
    G = np.array([_guard_slice(rng, k, kind) for kind in kinds])
    b = rng.standard_normal((len(kinds), k, 2))
    x, rejected = _guarded(G, b)
    assert set(rejected) == {i for i in range(len(G)) if not _numpy_cond(G[i]) <= COND_LIMIT}
    for i, kind in enumerate(kinds):
        if i in rejected:
            assert np.isnan(x[i]).all()
            if kind in ("nan", "inf"):
                assert np.isnan(rejected[i].cond)
            elif kind == "singular":
                assert rejected[i].cond == np.inf
        else:
            assert x[i].tobytes() == np.linalg.solve(G[i], b[i]).tobytes()
    assert {i for i, kind in enumerate(kinds) if kind in ("singular", "nan", "inf")} <= set(rejected)


class _NumpyWithout:
    """numpy as ``metrics`` sees it, except that the named ``np.linalg`` functions fail the test."""

    def __init__(self, *names):
        def fail(name):
            def call(*args, **kwargs):
                raise AssertionError(f"the condition guard ran np.linalg.{name}")
            return call

        self.linalg = SimpleNamespace(**{**vars(np.linalg), **{name: fail(name) for name in names}})

    def __getattr__(self, name):
        return getattr(np, name)


def test_certified_solves_skip_the_svd(monkeypatch):
    # a certificate that never certified would pass every other guard test, and so
    # would a guard that went back to the np.linalg.det and solve wrappers
    rng = make_rng(3)
    G = np.array([_guard_slice(rng, 2, "well") for _ in range(12)])
    b = rng.standard_normal((12, 2, 8))
    mrp = make_mdp(False, 8, n=30, seed=0)  # one fig3 two-time-scale row
    phi0 = exp.initial_representation(0, 30, 2)
    config = dyn.IntegratorConfig(t_end=10.0, log_points=11)
    want_x, _ = _guarded(G, b)
    want_log = dyn.integrate(mrp, dyn.two_time_scale(), phi0, config=config)

    monkeypatch.setattr(met, "np", _NumpyWithout("svd", "solve", "det"))
    x, rejected = _guarded(G, b)
    assert not rejected and x.tobytes() == want_x.tobytes()
    log = dyn.integrate(mrp, dyn.two_time_scale(), phi0, config=config)
    assert log.stats == want_log.stats
    for name in dyn.METRIC_COLUMNS:
        assert log.metrics[name].tobytes() == want_log.metrics[name].tobytes(), name


def test_guard_svd_path_solves_without_the_numpy_wrappers(monkeypatch):
    rng = make_rng(4)
    kinds = ("well", "band", "singular", "near_limit", "well")
    G = np.array([_guard_slice(rng, 3, kind) for kind in kinds])
    b = rng.standard_normal((len(kinds), 3, 2))
    want_x, want_rejected = _guarded(G, b)
    assert 2 in want_rejected and 0 not in want_rejected  # the SVD ran and accepted some slices

    monkeypatch.setattr(met, "np", _NumpyWithout("solve", "det"))
    x, rejected = _guarded(G, b)
    assert x.tobytes() == want_x.tobytes()
    assert {i: e.cond for i, e in rejected.items()} == {i: e.cond for i, e in want_rejected.items()}
    for i in set(range(len(G))) - set(rejected):
        assert x[i].tobytes() == np.linalg.solve(G[i], b[i]).tobytes()


# A 3 x 3 slice of subnormals: its SVD gives cond 2, but LU underflows to a zero
# pivot, where np.linalg.solve raises LinAlgError("Singular matrix").
_SUBNORMAL_SINGULAR_LU = np.array(
    [[5e-324, -0.0, -5e-324], [5e-324, -5e-324, -5e-324], [-5e-324, 0.0, 0.0]]
)


def test_singular_lu_of_an_svd_accepted_slice_is_rejected():
    assert np.linalg.cond(_SUBNORMAL_SINGULAR_LU) <= COND_LIMIT  # the SVD accepts it
    rng = make_rng(5)
    G = np.array([_guard_slice(rng, 3, "well"), _SUBNORMAL_SINGULAR_LU, _guard_slice(rng, 3, "well")])
    b = rng.standard_normal((3, 3, 2))
    x, rejected = _guarded(G, b)
    assert list(rejected) == [1] and isinstance(rejected[1], met.SolutionOverflowError)
    assert np.isnan(x[1]).all()
    for i in (0, 2):
        assert x[i].tobytes() == np.linalg.solve(G[i], b[i]).tobytes()
    with pytest.raises(met.SolutionOverflowError, match="cond = 2"):
        met._solve_or_raise(_SUBNORMAL_SINGULAR_LU, np.ones((3, 1)), "G")


def test_certified_solve_overflow_is_its_own_error():
    # a certified slice's inf solution went on to the residual, which warned and
    # reported it as a FixedPointResidualError with residual nan
    G, b = np.array([[[0.5, 0.1], [-0.1, 0.5]]]), np.full((1, 2, 1), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = met._solve(G, b)
        rejected = met._judge(G, x, b, "G")
        assert list(rejected) == [0] and type(rejected[0]) is met.SolutionOverflowError
        assert np.isnan(x).all()
        with pytest.raises(met.SolutionOverflowError, match=r"G overflowed \(cond = 1\.000e\+00"):
            met._solve_or_raise(G[0], b[0], "G")


def test_nan_fixed_point_solution_misses_its_residual_bound(monkeypatch):
    real = met._guard

    def nan_in_slice_1(G, x, name):
        rejected = real(G, x, name)
        x[1] = np.nan
        return rejected

    monkeypatch.setattr(met, "_guard", nan_in_slice_1)
    mrp = make_mdp(False, 2, n=8, seed=1)
    phi = np.stack([dyn.orthonormal_init(8, 2, seed=s) for s in range(3)])
    phi_t = phi.swapaxes(1, 2)
    G, b = phi_t @ mrp.A @ phi, phi_t @ mrp.dR
    failures = met._judge(G, met._solve(G, b), b, "phi^T A phi")
    assert list(failures) == [1] and type(failures[1]) is dyn.FixedPointResidualError
    with pytest.raises(dyn.FixedPointResidualError):
        dyn.td_fixed_point(mrp, phi)


def test_fixed_point_residual_bound_scales_with_rewards():
    # the absolute 1e-10 bound rejected this solve, reported as cond 1.47
    mrp = make_mdp(False, 4, n=30, seed=0)
    phi = dyn.orthonormal_init(30, 2, seed=0)
    w = dyn.td_fixed_point(mrp.with_rewards(1e8 * mrp.R), phi)
    assert_allclose(w, 1e8 * dyn.td_fixed_point(mrp, phi), rtol=1e-10)


def test_fixed_point_residual_failure_has_its_own_type(small_mixed, monkeypatch):
    # the solve both the fixed point and the two-time-scale field make before judgement
    def off_by_a_bit(G, rhs):
        return np.linalg.solve(G, rhs) + 1e-6

    monkeypatch.setattr(met, "_solve", off_by_a_bit)
    phi0 = dyn.orthonormal_init(8, 2, seed=12)
    with pytest.raises(dyn.FixedPointResidualError) as info:
        dyn.td_fixed_point(small_mixed, phi0)
    assert not isinstance(info.value, IllConditionedError)
    assert isinstance(info.value, np.linalg.LinAlgError)
    with pytest.raises(dyn.IntegrationError, match=r"phi\^T A phi residual"):
        dyn.integrate(small_mixed, dyn.two_time_scale(), phi0,
                      config=dyn.IntegratorConfig(t_end=1.0, log_points=2))


def test_two_time_scale_inverse_misses_the_fixed_point_residual_bound(monkeypatch):
    # the field judges its inverses against the one identity it broadcasts; a miss must
    # read as the one a judgement of the same solves against a tiled identity reports
    real = met._solve
    seen = []

    def off_by_1e9_relative(G, rhs):
        seen.append(G.copy())
        return real(G, rhs) * (1 + 1e-9)

    monkeypatch.setattr(met, "_solve", off_by_1e9_relative)
    rows = [
        dyn.Problem(make_mdp(False, h, n=8, seed=h), dyn.two_time_scale(), dyn.orthonormal_init(8, 2, seed=h))
        for h in (1, 3, 8)
    ]
    field = dyn._StackedField.build(dyn.TWO_TIME_SCALE, rows)
    field(np.stack([dyn._initial_state(row) for row in rows]))
    judged = field.judge()
    assert {call for call, _ in judged.values()} == {0}
    failures = {row: exc for row, (_, exc) in judged.items()}
    eye = np.tile(np.eye(2), (len(rows), 1, 1))
    want = met._judge(seen[0], met._solve(seen[0], eye), eye, "phi^T A phi")
    assert list(failures) == list(want) == [0, 1, 2]
    for i, exc in failures.items():
        assert type(exc) is dyn.FixedPointResidualError and str(exc) == str(want[i])
        assert str(exc).endswith("exceeds 1.000e-10")


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_broadcast_inverse_is_numpy_inv_of_each_slice(k):
    # the field solves every row's G^-1 against one k x k identity that the solve
    # gufunc broadcasts over the stack's loop dimension, numpy 1.24 included
    rows = [
        dyn.Problem(make_mdp(False, h, n=8, seed=h), dyn.two_time_scale(), dyn.orthonormal_init(8, k, seed=h))
        for h in (1, 2, 3, 4, 5)
    ]
    y = np.stack([dyn._initial_state(row) for row in rows])
    y[3] = 0.0  # G = 0, singular
    y[4, 0] = np.nan
    field = dyn._StackedField.build(dyn.TWO_TIME_SCALE, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field(y)
        [(G, G_inv)] = field.solves
        assert set(field.judge()) == {3, 4}
    for i in range(3):
        assert G_inv[i].tobytes() == np.linalg.inv(G[i]).tobytes()
    assert np.isnan(G_inv[3:]).all()


def test_semi_gradients_match_hand_formula(small_mixed):
    rng = make_rng(1)
    phi = rng.standard_normal((8, 2))
    w = rng.standard_normal((2, 1))
    resid = small_mixed.R - (np.eye(8) - 0.9 * small_mixed.P) @ phi @ w
    weighted = np.diag(small_mixed.d) @ resid
    grad_w, grad_phi = dyn.expected_semi_gradients(small_mixed, phi, w)
    assert_allclose(grad_w, -phi.T @ weighted, atol=1e-14)
    assert_allclose(grad_phi, -weighted @ w.T, atol=1e-14)


def _enumerated_semi_gradients(mrp, phi, w):
    """Minus the expected single-transition TD update, summed transition by transition.

    A transition s -> s' has weight d(s) P(s, s') and TD error
    delta = R(s) + gamma phi(s') w - phi(s) w; it moves w by phi(s)^T delta
    and the row phi(s) by delta w^T.
    """
    grad_w, grad_phi = np.zeros_like(w), np.zeros_like(phi)
    for s in range(mrp.n):
        for s_next in range(mrp.n):
            weight = mrp.d[s] * mrp.P[s, s_next]
            delta = mrp.R[s] + mrp.gamma * phi[s_next] @ w - phi[s] @ w
            grad_w -= weight * np.outer(phi[s], delta)
            grad_phi[s] -= weight * (w @ delta)
    return grad_w, grad_phi


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kind=st.sampled_from(CHAIN_KINDS), n=st.integers(1, 6), k=st.integers(1, 3),
       h=st.integers(1, 3), gamma=st.sampled_from((0.0, 0.5, 0.9, 0.99)),
       seed=st.integers(0, 2**16))
def test_semi_gradients_match_enumerated_td_updates(kind, n, k, h, gamma, seed):
    # an oracle from the definition of TD, not from the matrix form the kernel shares
    mrp = build_chain(kind, h, n=n, gamma=gamma, seed=seed)
    rng = make_rng(seed)
    phi = rng.standard_normal((n, min(k, n)))
    w = rng.standard_normal((min(k, n), h))
    for got, want in zip(dyn.expected_semi_gradients(mrp, phi, w),
                         _enumerated_semi_gradients(mrp, phi, w), strict=True):
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


def _gradient_flow_residuals(kind):
    """Per chain of ``kind`` (20 seeds, n = 10, k = 3, h = 2), at a random (phi, w):
    ``gradient_check`` and the relative gap between <grad E, drift> and the
    dissipation -(|dw|^2 / eta_w + |dphi|^2 / eta_phi) that a gradient flow has.
    """
    eta_w, eta_phi = 2.0, 0.5
    rng = make_rng(2024)
    for seed in range(20):
        mrp = build_chain(kind, 2, n=10, gamma=0.9, seed=seed)
        phi, w = rng.standard_normal((10, 3)), rng.standard_normal((3, 2))
        grad_w, grad_phi = met.weighted_error_gradients(mrp, phi, w)
        semi_w, semi_phi = dyn.expected_semi_gradients(mrp, phi, w)
        dw, dphi = -eta_w * semi_w, -eta_phi * semi_phi
        rate = np.sum(grad_w * dw) + np.sum(grad_phi * dphi)
        dissipation = np.sum(dw * dw) / eta_w + np.sum(dphi * dphi) / eta_phi
        yield dyn.gradient_check(mrp, phi, w), abs(rate + dissipation) / dissipation


def test_reversible_chains_with_non_uniform_d_are_gradient_flows():
    # the theorem asks for reversibility, not a uniform d: birth-death chains have a spread d
    for check, mismatch in _gradient_flow_residuals("birth_death"):
        assert check < 1e-5
        assert mismatch < 1e-12


def test_non_reversible_chains_are_not_gradient_flows():
    # negative control: the two checks above can fail
    for check, mismatch in _gradient_flow_residuals("positive"):
        assert check > 1e-2
        assert mismatch > 1e-4


def test_semi_gradients_shape_checks(small_mixed):
    with pytest.raises(ValueError):
        dyn.expected_semi_gradients(small_mixed, np.ones((5, 2)), np.ones((2, 1)))
    with pytest.raises(ValueError):
        dyn.expected_semi_gradients(small_mixed, np.ones((8, 2)), np.ones((3, 1)))


def _drift(mrp, spec, phi, w=None):
    """(dw, dphi) of ``spec`` at (phi, w) from the public API.

    The two-time-scale flow pins w at its fixed point.
    """
    if spec.kind == dyn.TWO_TIME_SCALE:
        w = dyn.td_fixed_point(mrp, phi)
    grad_w, grad_phi = dyn.expected_semi_gradients(mrp, phi, w)
    return -spec.eta_w * grad_w, -spec.eta_phi * grad_phi


# ----------------------------------------------------------------------- init


def test_orthonormal_init_properties():
    phi = dyn.orthonormal_init(20, 5, seed=3)
    assert_allclose(phi.T @ phi, np.eye(5), atol=1e-13)
    assert np.array_equal(phi, dyn.orthonormal_init(20, 5, seed=3))
    assert not np.array_equal(phi, dyn.orthonormal_init(20, 5, seed=4))


def test_orthonormal_init_rejects_bad_k():
    with pytest.raises(ValueError):
        dyn.orthonormal_init(4, 5, seed=0)
    with pytest.raises(ValueError):
        dyn.orthonormal_init(4, 0, seed=0)


@pytest.mark.parametrize("make,error,message", [
    (lambda mrp: dyn.validate_representation(np.ones(8)), ValueError, "2-d matrix, got ndim=1"),
    (lambda mrp: dyn.validate_representation(np.eye(2, 3)), ValueError, r"need k <= n, got shape \(2, 3\)"),
    # NaN once reached the SVD (LinAlgError), and inf was integrated
    (lambda mrp: dyn.validate_representation(np.diag([1.0, np.nan])), ValueError, "non-finite entries"),
    (lambda mrp: dyn.integrate(mrp, dyn.two_time_scale(1.0), np.full((8, 2), np.inf)),
     ValueError, "representation has non-finite entries"),
    (lambda mrp: dyn.integrate(mrp, dyn.linear_td(), dyn.orthonormal_init(6, 2, seed=0)),
     ValueError, "phi has 6 rows, expected 8"),
    # two equal columns leave nothing after the projection
    (lambda mrp: dyn._gram_schmidt(np.ones((4, 2))), np.linalg.LinAlgError, "near-zero pivot at column 1"),
], ids=["phi_ndim", "phi_wider_than_tall", "phi_nan", "phi_inf", "phi_rows", "gram_schmidt_pivot"])
def test_representation_checks_name_the_defect(make, error, message, small_mixed):
    with pytest.raises(error, match=message):
        make(small_mixed)


# ------------------------------------------------------------------ stepping


def test_small_step_euler_tracks_ode(small_mixed):
    # crude consistency: many Euler steps land near the adaptive solution
    phi0 = dyn.orthonormal_init(8, 2, seed=6)
    spec = dyn.end_to_end(1.0, 1.0)
    phi, w = phi0, np.zeros((2, 1))
    for _ in range(2000):
        dw, dphi = _drift(small_mixed, spec, phi, w)
        phi, w = phi + 0.005 * dphi, w + 0.005 * dw
    log = dyn.integrate(
        small_mixed, spec, phi0,
        config=dyn.IntegratorConfig(t_end=10.0, log_points=2), store_states=True
    )
    assert np.abs(phi - log.phis[-1]).max() < 1e-2
    assert np.abs(w - log.ws[-1]).max() < 1e-2


# ---------------------------------------------------------------- integration


def test_linear_td_matches_matrix_exponential(small_mixed):
    phi = dyn.orthonormal_init(8, 3, seed=7)
    w0 = make_rng(8).standard_normal((3, 1))
    t_end = 40.0
    G = phi.T @ small_mixed.A @ phi
    w_star = dyn.td_fixed_point(small_mixed, phi)
    exact = w_star + scipy.linalg.expm(-t_end * G) @ (w0 - w_star)
    errors = []
    for rtol in (1e-5, 1e-11):
        log = dyn.integrate(
            small_mixed, dyn.linear_td(), phi, w0=w0,
            config=dyn.IntegratorConfig(t_end=t_end, rtol=rtol, atol=rtol * 1e-2, log_points=2),
            store_states=True,
        )
        errors.append(np.abs(log.ws[-1] - exact).max())
    # the error shrinks with the tolerance
    assert errors[1] < 1e-9 < errors[0]


def test_end_to_end_descends_on_reversible(small_symmetric):
    phi0 = dyn.orthonormal_init(8, 2, seed=9)
    log = dyn.integrate(
        small_symmetric, dyn.end_to_end(), phi0,
        config=dyn.IntegratorConfig(t_end=50.0, rtol=1e-10, atol=1e-12, log_points=101),
    )
    E = log.metrics["E"]
    assert E[-1] < E[0]
    assert (np.diff(E) <= 1e-11).all()


def test_two_time_scale_keeps_covariance(small_mixed):
    phi0 = dyn.orthonormal_init(8, 2, seed=10)
    log = dyn.integrate(
        small_mixed, dyn.two_time_scale(), phi0,
        config=dyn.IntegratorConfig(t_end=100.0, rtol=1e-10, atol=1e-12, log_points=51),
        store_states=True,
    )
    assert log.metrics["cov_drift"].max() < 1e-8
    orthogonality = log.phis.swapaxes(1, 2) @ small_mixed.A @ (log.phis @ log.ws - small_mixed.V)
    assert np.abs(orthogonality).max() < 1e-10


def test_integrate_validates_inputs(small_mixed):
    phi0 = dyn.orthonormal_init(8, 2, seed=11)
    with pytest.raises(ValueError):
        dyn.integrate(small_mixed, dyn.linear_td(), phi0, w0=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        dyn.integrate(small_mixed, dyn.linear_td(), phi0, w0=np.array([[np.nan], [0.0]]))
    with pytest.raises(ValueError):
        dyn.integrate(small_mixed, dyn.linear_td(), phi0, metric_set=("E", "vibes"))
    with pytest.raises(ValueError):
        dyn.integrate(small_mixed, dyn.linear_td(), np.ones((8, 2)))  # rank 1


def test_integrate_wraps_fixed_point_breakdown(small_mixed):
    u = dyn.orthonormal_init(8, 2, seed=12)
    phi0 = np.column_stack([u[:, 0], u[:, 0] + 1e-7 * u[:, 1]])  # passes rank gate
    with pytest.raises(dyn.IntegrationError):
        dyn.integrate(small_mixed, dyn.two_time_scale(), phi0,
                      config=dyn.IntegratorConfig(t_end=1.0, log_points=2))


# -------------------------------------------------------- batched integrator


def _rk45_reference(mrp, spec, phi0, config):
    """The integrator this package used before: SciPy's solve_ivp(RK45) over the public API's drifts."""
    from scipy.integrate import solve_ivp

    n, k = phi0.shape
    split = k * mrp.h
    if spec.kind == dyn.LINEAR_TD:
        y0 = np.zeros(split)

        def fun(t, y):
            return _drift(mrp, spec, phi0, y.reshape(k, mrp.h))[0].ravel()

    elif spec.kind == dyn.END_TO_END:
        y0 = np.concatenate([np.zeros(split), phi0.ravel()])

        def fun(t, y):
            phi, w = y[split:].reshape(n, k), y[:split].reshape(k, mrp.h)
            dw, dphi = _drift(mrp, spec, phi, w)
            return np.concatenate([dw.ravel(), dphi.ravel()])

    else:
        y0 = phi0.ravel()

        def fun(t, y):
            return _drift(mrp, spec, y.reshape(n, k))[1].ravel()

    times = np.linspace(0.0, config.t_end, config.log_points)
    return solve_ivp(fun, (0.0, config.t_end), y0, method="RK45", t_eval=times,
                     rtol=config.rtol, atol=config.atol, dense_output=True)


def test_rk45_tableau_is_scipys():
    from scipy.integrate._ivp.rk import RK45

    for name in "ABCEP":
        assert np.array_equal(getattr(dyn, f"_RK_{name}"), getattr(RK45, name)), name


@pytest.mark.parametrize(
    "spec", [dyn.linear_td(2.0), dyn.end_to_end(10.0, 1.0), dyn.two_time_scale(0.5)],
    ids=lambda spec: spec.kind,
)
def test_integrator_agrees_with_scipy_rk45(spec):
    mrp = make_mdp(False, 3, n=12, seed=4)
    phi0 = dyn.orthonormal_init(12, 2, seed=5)
    config = dyn.IntegratorConfig(t_end=20.0, rtol=1e-8, atol=1e-10, log_points=41)
    log = dyn.integrate(mrp, spec, phi0, config=config, store_states=True)
    sol = _rk45_reference(mrp, spec, phi0, config)
    if spec.kind == dyn.LINEAR_TD:
        got, want = log.ws, sol.y.T.reshape(-1, 2, mrp.h)
    elif spec.kind == dyn.END_TO_END:
        got = np.concatenate([log.ws.reshape(41, -1), log.phis.reshape(41, -1)], axis=1)
        want = sol.y.T
    else:
        got, want = log.phis, sol.y.T.reshape(-1, 12, 2)
    assert np.abs(got - want).max() <= 1e-12
    steps = len(sol.sol.ts) - 1
    assert log.stats == dyn.SolverStats(sol.nfev, steps, (sol.nfev - 2) // 6 - steps)


def test_batch_member_is_bitwise_its_solo_run():
    config = dyn.IntegratorConfig(t_end=5.0, rtol=1e-8, atol=1e-10, log_points=11)
    spec = dyn.two_time_scale()

    def problem(h, phi0):
        return dyn.Problem(make_mdp(False, h, n=8, seed=h), spec, phi0)

    target = problem(4, dyn.orthonormal_init(8, 2, seed=2))
    u = dyn.orthonormal_init(8, 2, seed=12)
    doomed = problem(3, np.column_stack([u[:, 0], u[:, 0] + 1e-7 * u[:, 1]]))  # cond > 1e12
    peers = [problem(h, dyn.orthonormal_init(8, 2, seed=h)) for h in (2, 8, 5)]
    batch = dyn.integrate_batch([peers[0], doomed, target, *peers[1:]], config, store_states=True)
    solo = dyn.integrate(*target, config=config, store_states=True)
    got = batch[2]
    assert got.stats == solo.stats
    for name in dyn.METRIC_COLUMNS:
        assert np.array_equal(got.metrics[name], solo.metrics[name]), name
    assert np.array_equal(got.phis, solo.phis) and np.array_equal(got.ws, solo.ws)
    with pytest.raises(dyn.IntegrationError) as info:
        dyn.integrate(*doomed, config=config)
    assert isinstance(batch[1], dyn.IntegrationError) and str(batch[1]) == str(info.value)
    assert all(isinstance(log, dyn.TrajectoryLog) for log in batch[:1] + batch[2:])


_SPECS = {
    dyn.LINEAR_TD: lambda eta: dyn.linear_td(eta_w=eta),
    dyn.END_TO_END: lambda eta: dyn.end_to_end(eta_w=eta, eta_phi=1 / eta),
    dyn.TWO_TIME_SCALE: lambda eta: dyn.two_time_scale(eta_phi=eta),
}
_ROWS = st.tuples(
    st.sampled_from(dyn.KINDS),
    st.integers(1, 10),  # h
    st.sampled_from((5, 8)),  # n
    st.integers(1, 3),  # k
    st.sampled_from((0.5, 1.0, 2.0)),  # learning rate
    st.integers(0, 99),  # seed of the chain and of phi0
    st.none() | st.integers(0, 99),  # seed of a random w0, or None for w0 = 0
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=st.lists(_ROWS, min_size=1, max_size=6),
       doomed=st.none() | st.tuples(st.integers(0, 6), st.integers(1, 10)))
# w0 = 0 gives the first row the floor initial step 1e-6, and the second row's
# initial step is bounded by 100 times its own first guess, not the batch's
@example(rows=[(dyn.LINEAR_TD, 3, 8, 2, 1.0, 7, None), (dyn.LINEAR_TD, 3, 8, 2, 1.0, 7, 7)], doomed=None)
def test_batch_rows_are_bitwise_their_solo_runs(rows, doomed):
    config = dyn.IntegratorConfig(t_end=0.5, rtol=1e-6, atol=1e-8, log_points=5)
    problems = [
        dyn.Problem(make_mdp(False, h, n=n, seed=seed), _SPECS[kind](eta),
                    dyn.orthonormal_init(n, k, seed=seed),
                    None if w0_seed is None else make_rng(w0_seed).standard_normal((k, h)))
        for kind, h, n, k, eta, seed, w0_seed in rows
    ]
    if doomed is not None:  # a two-time-scale peer whose first fixed-point solve is rejected
        at, h = doomed
        u = dyn.orthonormal_init(8, 2, seed=h)
        phi0 = np.column_stack([u[:, 0], u[:, 0] + 1e-7 * u[:, 1]])
        problems.insert(at, dyn.Problem(make_mdp(False, h, n=8, seed=h), dyn.two_time_scale(), phi0))
    batch = dyn.integrate_batch(problems, config, store_states=True)
    for problem, got in zip(problems, batch, strict=True):
        try:
            solo = dyn.integrate(*problem, config=config, store_states=True)
        except (dyn.IntegrationError, np.linalg.LinAlgError) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert got.stats == solo.stats
        for name in dyn.METRIC_COLUMNS:
            assert np.array_equal(got.metrics[name], solo.metrics[name]), name
        assert np.array_equal(got.phis, solo.phis) and np.array_equal(got.ws, solo.ws)


def _public_drift(row: dyn.Problem) -> np.ndarray:
    """The drift of one batch row, flattened, from the public API."""
    mrp, spec, phi, w = row
    if spec.kind == dyn.LINEAR_TD:
        return _drift(mrp, spec, phi, w)[0].ravel()
    if spec.kind == dyn.END_TO_END:
        dw, dphi = _drift(mrp, spec, phi, w)
        return np.concatenate([dw.ravel(), dphi.ravel()])
    return _drift(mrp, spec, phi)[1].ravel()


@pytest.mark.parametrize("h", [1, 3, 8, 9, 256])
@pytest.mark.parametrize("kind", dyn.KINDS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), etas=st.lists(st.sampled_from((0.5, 1.0, 2.0)), min_size=3, max_size=3))
def test_stacked_field_rows_are_bitwise_the_public_drifts(kind, h, seed, etas):
    rng = make_rng(seed)
    rows = [
        dyn.Problem(make_mdp(False, h, n=8, seed=seed + i), _SPECS[kind](eta),
                    rng.standard_normal((8, 2)), rng.standard_normal((2, h)))
        for i, eta in enumerate(etas)
    ]
    field = dyn._StackedField.build(kind, rows)
    f = field(np.stack([dyn._initial_state(row) for row in rows]))
    failures = field.judge()
    assert not failures
    for row, got in zip(rows, f, strict=True):
        want = _public_drift(row)
        if kind == dyn.TWO_TIME_SCALE:
            # the field forms the drift through C = dR dR^T, not through w, so it
            # rounds apart; test_batch_rows_are_bitwise_their_solo_runs pins its bits
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        else:
            assert got.tobytes() == want.tobytes()


def test_rejected_metric_solve_is_the_rows_result(monkeypatch):
    # the critical-point residual of the first row's log hits one rejected snapshot
    real = met._guard
    injected = IllConditionedError("phi^T A phi", np.inf)
    calls = []

    def reject_once(G, x, name):
        rejected = real(G, x, name)
        calls.append(len(G))
        if len(calls) == 1:
            rejected[4] = injected
        return rejected

    mrp = make_mdp(False, 2, n=8, seed=1)
    mrp.V, mrp.resolvent  # the process's own guarded solves, cached before the patch
    monkeypatch.setattr(met, "_guard", reject_once)
    problems = [dyn.Problem(mrp, dyn.end_to_end(), dyn.orthonormal_init(8, 2, seed=s)) for s in (1, 2)]
    config = dyn.IntegratorConfig(t_end=2.0, log_points=9)
    first, second = dyn.integrate_batch(problems, config)
    assert first is injected
    assert isinstance(second, dyn.TrajectoryLog)
    assert calls == [9, 9]  # one stacked solve per trajectory log


# The second drift call of the fourth main-loop attempt (stage c = 3/10): the
# initial step makes two calls and each attempt six.
_MIDDLE_STAGE_CALL = 2 + 6 * 3 + 2


_MIDDLE_STAGE_REJECTIONS = {  # how the call is rejected: the error it causes and its text
    "injected": (dyn.FixedPointResidualError, "phi^T A phi residual 1.000e-09 exceeds 1.000e-10"),
    "singular": (IllConditionedError, "matrix phi^T A phi is singular or ill-conditioned (cond = inf, limit 1e+12)"),
    "cond_1e14": (IllConditionedError,
                  "matrix phi^T A phi is singular or ill-conditioned (cond = 1.000e+14, limit 1e+12)"),
}


@pytest.mark.parametrize("case", list(_MIDDLE_STAGE_REJECTIONS))
def test_row_rejected_at_a_middle_stage_fails_there_alone(case, monkeypatch):
    # the loop judges an attempt's solves together, after its last stage: the row
    # still fails at the t and with the text of its first rejected call, quietly,
    # while its later stages run on what that call returned
    cause, text = _MIDDLE_STAGE_REJECTIONS[case]
    rows = [
        dyn.Problem(make_mdp(False, h, n=30, seed=s), dyn.two_time_scale(), exp.initial_representation(s, 30, 2))
        for s, h in ((0, 1), (1, 4), (2, 8))
    ]
    config = dyn.IntegratorConfig(t_end=2.0, log_points=5)
    solo = [dyn.integrate(*rows[i], config=config) for i in (0, 2)]
    real, calls = met._solve, []

    def tampered(G, rhs):
        calls.append(len(G))
        if len(calls) == _MIDDLE_STAGE_CALL and case == "singular":
            G[1] = [[1.0, 0.0], [0.0, 0.0]]
        elif len(calls) == _MIDDLE_STAGE_CALL and case == "cond_1e14":
            G[1] = np.diag([1.0, 1e-14])
        x = real(G, rhs)
        if len(calls) == _MIDDLE_STAGE_CALL and case == "injected":
            x[1] *= 1 + 1e-9
        return x

    monkeypatch.setattr(met, "_solve", tampered)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first, failed, last = dyn.integrate_batch(rows, config)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert calls[_MIDDLE_STAGE_CALL - 1] == 3  # the field's call, with every row still in the batch
    assert type(failed) is dyn.IntegrationError and type(failed.__cause__) is cause
    assert str(failed) == f"fixed-point solve broke down at t=0.127958: {text}"
    for got, want in zip((first, last), solo, strict=True):
        assert got.stats == want.stats
        for name in dyn.METRIC_COLUMNS:
            assert got.metrics[name].tobytes() == want.metrics[name].tobytes(), name


class _ToyField:
    """y' = -rate y per row, or y' = y^2 for a ``blowup`` row; a ``doomed`` row
    reports a breakdown once its first component falls below 1/2."""

    def __init__(self, rates, doomed, blowup):
        self.rates, self.doomed, self.blowup = rates, doomed, blowup
        self.calls, self.failures = 0, {}

    def take(self, keep):
        return _ToyField(self.rates[keep], self.doomed[keep], self.blowup[keep])

    def __call__(self, y):
        for i in np.flatnonzero(self.doomed & (y[:, 0] < 0.5)):
            self.failures.setdefault(int(i), (self.calls, np.linalg.LinAlgError("toy breakdown")))
        self.calls += 1
        return np.where(self.blowup[:, None], y * y, -self.rates[:, None] * y)

    def judge(self):
        failures, self.calls, self.failures = self.failures, 0, {}
        return failures


def test_rows_leave_the_batch_as_they_fail_or_finish():
    from scipy.integrate import solve_ivp

    times = np.linspace(0.0, 3.0, 7)
    config = dyn.IntegratorConfig(t_end=3.0, rtol=1e-8, atol=1e-10)
    rates = np.array([1.0, 2.0, 1.0, 0.5])
    doomed = np.array([False, True, False, False])
    blowup = np.array([False, False, True, False])
    y0 = np.ones((4, 2))
    batch = dyn._dopri45(_ToyField(rates, doomed, blowup), y0, times, config)
    for i in (0, 3):
        (Y, stats), = dyn._dopri45(
            _ToyField(rates[i:i + 1], doomed[i:i + 1], blowup[i:i + 1]), y0[i:i + 1], times, config
        )
        assert np.array_equal(batch[i][0], Y) and batch[i][1] == stats
        assert_allclose(Y[0], np.exp(-rates[i] * times), rtol=1e-6)
    assert str(batch[1]).startswith("fixed-point solve broke down at t=0.3")
    assert str(batch[1]).endswith("toy breakdown")
    # y' = y^2 from 1 blows up at t = 1: the row reports SciPy's last accepted t and state
    sol = solve_ivp(lambda t, y: y * y, (0, 3), [1.0, 1.0], rtol=1e-8, atol=1e-10)
    assert str(batch[2]) == (
        f"integration failed near t={sol.t[-1]:.6g} ({sol.message}); "
        f"state norm {np.linalg.norm(sol.y[:, -1]):.6g}"
    )


_NAN_FIELD_RUN = """
import numpy as np
from tdrepdyn import dynamics as dyn

class NaNField:  # a drift that is NaN from t = 0, so every step size is NaN
    def __call__(self, y):
        return np.full_like(y, np.nan)

    def judge(self):
        return {}

    def take(self, keep):
        return self

times = np.linspace(0.0, 1.0, 3)
(result,) = dyn._dopri45(NaNField(), np.ones((1, 2)), times, dyn.IntegratorConfig(t_end=1.0))
print(type(result).__name__, result)
"""


def test_nan_step_fails_instead_of_spinning():
    src = str(Path(dyn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NAN_FIELD_RUN], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("IntegrationError integration failed near t=")
    assert "Required step size is less than spacing between numbers." in proc.stdout


def _end_to_end_row(eta):
    """An end-to-end row on a 30-state chain; its steps to t = 1 grow with eta."""
    mrp = make_mdp(False, 1, n=30, seed=0)
    return dyn.Problem(mrp, dyn.end_to_end(eta, eta), exp.initial_representation(0, 30, 2))


def test_step_budget_ends_only_the_row_that_spends_it(monkeypatch):
    # nothing bounded a row's work: eta = 1e6 was still stepping at t = 0.46 after 37 s
    config = dyn.IntegratorConfig(t_end=1.0)
    stiff, mild = _end_to_end_row(1e3), _end_to_end_row(1.0)
    assert dyn.integrate(*stiff, config=config).stats == dyn.SolverStats(3206, 474, 60)
    solo = dyn.integrate(*mild, config=config)
    assert solo.stats.accepted + solo.stats.rejected < 100
    monkeypatch.setattr(dyn, "MAX_STEPS", 100)
    failed, log = dyn.integrate_batch([stiff, mild], config)
    assert isinstance(failed, dyn.IntegrationError)
    assert re.fullmatch(r"step budget of 100 steps spent at t=0\.0\d+", str(failed))
    assert log.stats == solo.stats
    for name in dyn.METRIC_COLUMNS:
        assert np.array_equal(log.metrics[name], solo.metrics[name]), name


def test_overflowing_drift_spends_the_step_budget(monkeypatch):
    # eta = 1e308 overflowed the initial-step estimate, a RuntimeWarning that this
    # suite's filter turns into an error; unfiltered, it stepped near 1e-307 without end
    monkeypatch.setattr(dyn, "MAX_STEPS", 1000)
    with pytest.raises(dyn.IntegrationError, match=r"step budget of 1000 steps spent at t=\S+e-30\d"):
        dyn.integrate(*_end_to_end_row(1e308), config=dyn.IntegratorConfig(t_end=1.0))


def test_zero_drift_takes_scipys_initial_step():
    # linear TD from w0 = 0 with R = 0 has an exactly-zero drift, the initial step's
    # branch where both derivative norms vanish
    mrp = make_mdp(False, 1, n=12, seed=4).with_rewards(np.zeros((12, 1)))
    spec, phi0 = dyn.linear_td(2.0), dyn.orthonormal_init(12, 2, seed=5)
    config = dyn.IntegratorConfig(t_end=20.0, rtol=1e-8, atol=1e-10, log_points=41)
    log = dyn.integrate(mrp, spec, phi0, config=config, store_states=True)
    sol = _rk45_reference(mrp, spec, phi0, config)
    assert not log.ws.any() and not sol.y.any()
    steps = len(sol.sol.ts) - 1
    assert log.stats == dyn.SolverStats(sol.nfev, steps, (sol.nfev - 2) // 6 - steps)


def test_rejected_logged_fixed_point_is_the_rows_result(monkeypatch):
    # the field inverts the batch's stacked phi^T A phi, and _log_trajectory solves
    # one row's logged snapshots for their fixed points with that row's key matrix
    real = dyn.td_fixed_point
    injected = np.linalg.LinAlgError("rejected snapshot")
    problems = [dyn.Problem(make_mdp(False, 2, n=8, seed=s), dyn.two_time_scale(),
                            dyn.orthonormal_init(8, 2, seed=s)) for s in (1, 2)]
    doomed = problems[0].mrp

    def reject_a_logged_snapshot(mrp, phi):
        w = real(mrp, phi)
        if mrp is doomed:
            raise injected
        return w

    config = dyn.IntegratorConfig(t_end=2.0, log_points=9)
    solo = dyn.integrate(*problems[1], config=config)
    monkeypatch.setattr(dyn, "td_fixed_point", reject_a_logged_snapshot)
    first, second = dyn.integrate_batch(problems, config)
    assert first is injected
    assert second.stats == solo.stats
    for name in dyn.METRIC_COLUMNS:
        assert np.array_equal(second.metrics[name], solo.metrics[name]), name


def test_two_time_scale_log_solves_the_fixed_point_only_where_it_is_read(monkeypatch):
    # fig2, fig3 and the invariant rows log no metric that reads the weights
    def rejected(mrp, phi):
        raise np.linalg.LinAlgError("rejected fixed point")

    mrp, phi0 = make_mdp(False, 2, n=8, seed=1), dyn.orthonormal_init(8, 2, seed=1)
    config = dyn.IntegratorConfig(t_end=2.0, log_points=9)
    want = dyn.integrate(mrp, dyn.two_time_scale(), phi0, config=config)
    monkeypatch.setattr(dyn, "td_fixed_point", rejected)
    unread = ("f", "f_norm", "cov_drift", "crit_residual")
    log = dyn.integrate(mrp, dyn.two_time_scale(), phi0, config=config, metric_set=unread)
    for name in unread:
        assert log.metrics[name].tobytes() == want.metrics[name].tobytes(), name
    for metric_set, store_states in ((("E",), False), (("grad_norm_phi",), False), (("f_norm",), True)):
        with pytest.raises(np.linalg.LinAlgError, match="rejected fixed point"):
            dyn.integrate(mrp, dyn.two_time_scale(), phi0, config=config, metric_set=metric_set,
                          store_states=store_states)


# --------------------------------------------------------------------- logs


def test_trajectory_log_csv_canonical_columns(small_mixed):
    phi0 = dyn.orthonormal_init(8, 2, seed=13)
    cfg = dyn.IntegratorConfig(t_end=1.0, log_points=3)
    full = dyn.integrate(small_mixed, dyn.end_to_end(), phi0, config=cfg)
    lines = full.to_csv().splitlines()
    assert lines[0] == "t,E,f,f_norm,cov_drift,grad_norm_w,grad_norm_phi,crit_residual"
    assert len(lines) == 4
    partial = dyn.integrate(
        small_mixed, dyn.end_to_end(), phi0, config=cfg, metric_set=("cov_drift", "E")
    )
    assert partial.to_csv().splitlines()[0] == "t,E,cov_drift"


def test_trajectory_log_roundtrips_floats(tmp_path, small_mixed):
    phi0 = dyn.orthonormal_init(8, 2, seed=14)
    log = dyn.integrate(
        small_mixed, dyn.end_to_end(), phi0,
        config=dyn.IntegratorConfig(t_end=1.0, log_points=5),
    )
    path = tmp_path / "log.csv"
    log.to_csv(path)
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert_allclose(back["E"], log.metrics["E"], rtol=0)  # repr() is lossless


def test_trajectory_log_validation():
    with pytest.raises(ValueError):
        dyn.TrajectoryLog(times=np.array([0.0, 0.0, 1.0]), metrics={})
    with pytest.raises(ValueError):
        dyn.TrajectoryLog(times=np.array([0.0, 1.0]), metrics={"E": np.zeros(3)})
    # NaN fails every comparison, so [0, nan, 1] has no step <= 0 and was accepted
    for times in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0], [np.nan]):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            dyn.TrajectoryLog(times=times, metrics={"E": np.zeros(len(times))})
    # to_csv wrote three fields under a two-field header for each of these
    with pytest.raises(ValueError, match=r"times must be 1-d, got shape \(2, 2\)"):
        dyn.TrajectoryLog(times=[[0.0, 1.0], [2.0, 3.0]], metrics={"E": np.zeros(2)})
    with pytest.raises(ValueError, match=r"metric 'E' has shape \(2, 2\), not \(2,\)"):
        dyn.TrajectoryLog(times=[0.0, 1.0], metrics={"E": np.zeros((2, 2))})


def test_states_json_sidecar(tmp_path, small_mixed):
    phi0 = dyn.orthonormal_init(8, 2, seed=15)
    cfg = dyn.IntegratorConfig(t_end=1.0, log_points=3)
    bare = dyn.integrate(small_mixed, dyn.end_to_end(), phi0, config=cfg)
    with pytest.raises(ValueError):
        bare.states_to_json()
    log = dyn.integrate(small_mixed, dyn.end_to_end(), phi0, config=cfg, store_states=True)
    path = tmp_path / "states.json"
    log.states_to_json(path)
    doc = json.loads(path.read_text())
    assert len(doc["times"]) == 3
    assert np.asarray(doc["phi"][0]).shape == (8, 2)
    assert_allclose(np.asarray(doc["phi"][0]), phi0, atol=1e-12)


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e300, max_value=np.finfo(float).max),
    st.floats(min_value=-np.finfo(float).max, max_value=-1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(-(2**60), 2**60).map(float),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
                    elements=_JSON_FLOATS))
@example(a=np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, 1e16, 123.0]))
@example(a=np.zeros((3, 0, 2)))
def test_json_array_is_json_dumps_of_tolist(a):
    assert dyn._json_array(a) == json.dumps(a.tolist())


def test_states_json_is_json_dumps_of_the_snapshots():
    mrp = make_mdp(False, 3, n=12, seed=5)
    phi0 = dyn.orthonormal_init(12, 3, seed=5)
    cfg = dyn.IntegratorConfig(t_end=20.0, log_points=501)
    log = dyn.integrate(mrp, dyn.end_to_end(), phi0, config=cfg, store_states=True)
    doc = {
        "times": log.times.tolist(),
        "phi": [phi.tolist() for phi in log.phis],
        "w": [w.tolist() for w in log.ws],
    }
    assert log.states_to_json() == json.dumps(doc)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
