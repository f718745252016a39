import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tdrepdyn import mdp as mdp_mod
from tdrepdyn.mdp import (
    ConvergenceError,
    MarkovRewardProcess,
    RewardSpec,
    is_reversible,
    key_matrix,
    make_random_mdp,
    make_symmetric_mdp,
    reversibility_residual,
    sample_doubly_stochastic,
    sample_permutation,
    sample_random_rewards,
    value_function,
)


# ---------------------------------------------------------------- generators


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_doubly_stochastic_row_and_col_sums(n):
    P = sample_doubly_stochastic(n, seed=0)
    assert_allclose(P.sum(axis=1), np.ones(n), atol=1e-10)
    assert_allclose(P.sum(axis=0), np.ones(n), atol=1e-10)
    assert (P > 0).all()


def test_doubly_stochastic_2x2_is_symmetric():
    # a 2x2 doubly stochastic matrix is [[a, 1-a], [1-a, a]]
    P = sample_doubly_stochastic(2, seed=7)
    assert abs(P[0, 0] - P[1, 1]) < 1e-12
    assert abs(P[0, 1] - P[1, 0]) < 1e-12


def test_doubly_stochastic_deterministic_and_seed_sensitive():
    a = sample_doubly_stochastic(6, seed=1)
    b = sample_doubly_stochastic(6, seed=1)
    c = sample_doubly_stochastic(6, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_doubly_stochastic_nonconvergence_reports_residual():
    with pytest.raises(ConvergenceError) as info:
        sample_doubly_stochastic(20, seed=0, tol=1e-12, max_iter=2)
    assert info.value.iterations == 2
    assert info.value.residual > 0


@pytest.mark.parametrize("n", [1, 3, 5])
def test_permutation_matrix_property(n):
    P = sample_permutation(n, seed=4)
    assert_allclose(P.sum(axis=0), np.ones(n))
    assert_allclose(P.sum(axis=1), np.ones(n))
    assert set(np.unique(P)) <= {0.0, 1.0}


def test_permutations_vary_across_seeds():
    draws = {sample_permutation(5, seed=s).tobytes() for s in range(10)}
    assert len(draws) > 1  # 5! = 120 possibilities, ten draws collide rarely


def test_make_random_mdp_alpha_endpoints():
    m0 = make_random_mdp(n=6, h=1, gamma=0.9, alpha=0.0, seed=5)
    ds = sample_doubly_stochastic(6, seed=np.random.SeedSequence(5).spawn(3)[0])
    assert_allclose(m0.P, ds)


def test_make_random_mdp_uniform_stationary_and_nonreversible():
    m = make_random_mdp(n=30, h=1, gamma=0.9, alpha=0.95, seed=0)
    assert_allclose(m.d, np.full(30, 1 / 30))  # doubly stochastic => uniform
    assert reversibility_residual(m) > 1e-3
    assert not is_reversible(m)


def test_make_symmetric_mdp_reversible_real_spectrum():
    m = make_symmetric_mdp(n=30, h=1, gamma=0.9, seed=0)
    assert np.array_equal(m.P, m.P.T)
    assert is_reversible(m, tol=1e-10)
    eigs = np.linalg.eigvalsh(m.P)
    assert abs(eigs.max() - 1.0) < 1e-10  # stochastic: top eigenvalue 1


def test_generated_mdps_are_deterministic():
    a = make_random_mdp(n=12, h=3, gamma=0.9, alpha=0.95, seed=11)
    b = make_random_mdp(n=12, h=3, gamma=0.9, alpha=0.95, seed=11)
    assert np.array_equal(a.P, b.P) and np.array_equal(a.R, b.R)


def test_reward_spec_validation():
    with pytest.raises(ValueError):
        RewardSpec(h=0)
    with pytest.raises(ValueError):
        RewardSpec(h=1, sigma=-1.0)
    with pytest.raises(ValueError):
        RewardSpec(h=1, distribution="cauchy")


@pytest.mark.parametrize("distribution", ["normal", "uniform", "rademacher"])
def test_random_rewards_variance_scaling(distribution):
    # per-entry variance sigma^2 / h
    spec = RewardSpec(h=400, sigma=2.0, distribution=distribution)
    R = sample_random_rewards(50, spec, seed=8)
    assert R.shape == (50, 400)
    observed = R.var()
    assert abs(observed - 4.0 / 400) < 0.1 * (4.0 / 400)


# ---------------------------------------------------------------- validation


def test_mrp_rejects_bad_rows():
    P = np.array([[0.7, 0.2], [0.5, 0.5]])  # first row sums to 0.9
    with pytest.raises(ValueError):
        MarkovRewardProcess(P=P, R=np.zeros((2, 1)), gamma=0.9, d=np.array([0.5, 0.5]))


def test_mrp_rejects_gamma_one():
    P = np.full((2, 2), 0.5)
    with pytest.raises(ValueError):
        MarkovRewardProcess(P=P, R=np.zeros((2, 1)), gamma=1.0, d=np.array([0.5, 0.5]))


def test_mrp_rejects_nonstationary_d():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValueError):
        MarkovRewardProcess(P=P, R=np.zeros((2, 1)), gamma=0.9, d=np.array([0.5, 0.5]))


@pytest.mark.parametrize("name", ["P", "R", "d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mrp_rejects_non_finite_entries(name, bad):
    # every other check is a comparison that NaN passes silently
    arrays = {"P": np.full((2, 2), 0.5), "R": np.zeros((2, 1)), "d": np.array([0.5, 0.5])}
    arrays[name][0] = bad
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        MarkovRewardProcess(gamma=0.9, **arrays)


def test_mrp_arrays_frozen(small_mixed):
    with pytest.raises(ValueError):
        small_mixed.P[0, 0] = 2.0


# ------------------------------------------------------------------- queries


def test_value_function_worked_example(two_state):
    assert_allclose(value_function(two_state), [[5.5], [4.5]], atol=1e-10)


def test_value_function_residual(small_mixed):
    V = value_function(small_mixed)
    resid = V - small_mixed.gamma * small_mixed.P @ V - small_mixed.R
    assert np.abs(resid).max() <= 1e-10


def test_key_matrix_positive_definite(small_mixed):
    A = key_matrix(small_mixed)
    assert_allclose(A, np.diag(small_mixed.d) @ (np.eye(8) - 0.9 * small_mixed.P))
    assert np.linalg.eigvalsh(0.5 * (A + A.T))[0] > 0


def test_value_function_residual_bound_scales_with_rewards():
    # the absolute 1e-10 bound rejected this solve (residual 2.3e-10)
    m = make_random_mdp(n=30, h=1, seed=0)
    big = m.with_rewards(1e5 * m.R)
    assert_allclose(value_function(big), 1e5 * value_function(m), rtol=1e-12)


def test_derived_matrices_are_cached_and_read_only(small_mixed):
    for get in (key_matrix, value_function, lambda m: m.system, lambda m: m.dR):
        arr = get(small_mixed)
        assert get(small_mixed) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert np.array_equal(small_mixed.dR, small_mixed.d[:, None] * small_mixed.R)


def test_with_rewards_gets_a_fresh_value_function(small_mixed):
    V = value_function(small_mixed)
    other = small_mixed.with_rewards(2.0 * small_mixed.R)
    assert value_function(other) is not V
    assert_allclose(value_function(other), 2.0 * V, rtol=1e-12)
    assert np.array_equal(key_matrix(other), key_matrix(small_mixed))


def test_processes_compare_and_hash_by_identity():
    # value equality over ndarray fields raised (ambiguous truth value, unhashable)
    a, b = make_random_mdp(n=4, seed=0), make_random_mdp(n=4, seed=0)
    assert a == a and a != b
    curves = {a: "first", b: "second"}
    assert curves[a] == "first" and curves[b] == "second"


def test_pickled_process_stays_frozen(small_mixed):
    A = key_matrix(small_mixed)
    copy = pickle.loads(pickle.dumps(small_mixed))
    assert np.array_equal(key_matrix(copy), A)
    for arr in (copy.P, copy.R, copy.d, key_matrix(copy)):
        assert not arr.flags.writeable


# --------------------------------------------------------------- persistence


def test_json_round_trip(tmp_path, small_symmetric):
    path = tmp_path / "m.json"
    mdp_mod.save_mdp(small_symmetric, path, seed=3, generator="symmetric")
    loaded = mdp_mod.load_mdp(path)
    assert np.array_equal(loaded.P, small_symmetric.P)
    assert np.array_equal(loaded.R, small_symmetric.R)
    assert loaded.gamma == small_symmetric.gamma
    doc = json.loads(path.read_text())
    assert doc["generator"] == "symmetric" and doc["seed"] == 3
    assert doc["n"] == 8 and doc["h"] == 2


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    symmetric=st.booleans(),
    n=st.integers(1, 12),
    h=st.integers(1, 4),
    gamma=st.floats(0.0, 0.999),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_json_round_trip_is_bit_exact(symmetric, n, h, gamma, alpha, seed):
    if symmetric:
        mrp = make_symmetric_mdp(n=n, h=h, gamma=gamma, seed=seed)
    else:
        mrp = make_random_mdp(n=n, h=h, gamma=gamma, alpha=alpha, seed=seed)
    back = mdp_mod.mdp_from_json(json.loads(json.dumps(mdp_mod.mdp_to_json(mrp, seed=seed))))
    for name in ("P", "R", "d"):
        got, want = getattr(back, name), getattr(mrp, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert back.gamma == mrp.gamma and type(back.gamma) is float


def test_mdp_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        mdp_mod.mdp_from_json({"n": 2, "gamma": 0.9})


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
