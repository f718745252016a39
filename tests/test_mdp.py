import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from tdrepdyn import mdp as mdp_mod
from tdrepdyn import metrics as met
from tdrepdyn.dynamics import orthonormal_init
from tdrepdyn.experiments import initial_representation
from tdrepdyn.mdp import (
    ConvergenceError,
    SINKHORN_TOL,
    MarkovRewardProcess,
    _sample_doubly_stochastic,
    _sample_permutation,
    make_mdp,
    reversibility_residual,
)
from tdrepdyn.metrics import IllConditionedError, SolutionOverflowError


# ---------------------------------------------------------------- generators


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_doubly_stochastic_row_and_col_sums(n):
    P = _sample_doubly_stochastic(n, seed=0)
    assert_allclose(P.sum(axis=1), np.ones(n), atol=1e-10)
    assert_allclose(P.sum(axis=0), np.ones(n), atol=1e-10)
    assert (P > 0).all()


def test_mixed_chains_are_doubly_stochastic():
    # the Sinkhorn core's column sums are within SINKHORN_TOL of 1; mixing adds rounding
    bound = SINKHORN_TOL + 16 * np.finfo(float).eps
    for alpha in np.linspace(0.0, 1.0, 11):
        for seed in range(20):
            P = make_mdp(False, n=12, alpha=alpha, seed=seed).P
            assert np.abs(P.sum(axis=1) - 1).max() <= bound
            assert np.abs(P.sum(axis=0) - 1).max() <= bound


def test_doubly_stochastic_2x2_is_symmetric():
    # a 2x2 doubly stochastic matrix is [[a, 1-a], [1-a, a]]
    P = _sample_doubly_stochastic(2, seed=7)
    assert abs(P[0, 0] - P[1, 1]) < 1e-12
    assert abs(P[0, 1] - P[1, 0]) < 1e-12


def test_doubly_stochastic_deterministic_and_seed_sensitive():
    a = _sample_doubly_stochastic(6, seed=1)
    b = _sample_doubly_stochastic(6, seed=1)
    c = _sample_doubly_stochastic(6, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_doubly_stochastic_nonconvergence_reports_residual(monkeypatch):
    monkeypatch.setattr(mdp_mod, "SINKHORN_MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as info:
        _sample_doubly_stochastic(20, seed=0)
    assert info.value.iterations == 2
    assert info.value.residual > 0


@pytest.mark.parametrize("n", [1, 3, 5])
def test_permutation_matrix_property(n):
    P = _sample_permutation(n, seed=4)
    assert_allclose(P.sum(axis=0), np.ones(n))
    assert_allclose(P.sum(axis=1), np.ones(n))
    assert set(np.unique(P)) <= {0.0, 1.0}


def test_permutations_vary_across_seeds():
    draws = {_sample_permutation(5, seed=s).tobytes() for s in range(10)}
    assert len(draws) > 1  # 5! = 120 possibilities, ten draws collide rarely


def test_make_random_mdp_alpha_endpoints():
    m0 = make_mdp(False, 1, n=6, gamma=0.9, alpha=0.0, seed=5)
    ds = _sample_doubly_stochastic(6, seed=np.random.SeedSequence(5).spawn(3)[0])
    assert_allclose(m0.P, ds)


def test_make_random_mdp_uniform_stationary_and_nonreversible():
    m = make_mdp(False, 1, n=30, gamma=0.9, alpha=0.95, seed=0)
    assert_allclose(m.d, np.full(30, 1 / 30))  # doubly stochastic => uniform
    assert reversibility_residual(m) > 1e-3


def test_make_symmetric_mdp_reversible_real_spectrum():
    m = make_mdp(True, 1, n=30, gamma=0.9, seed=0)
    assert np.array_equal(m.P, m.P.T)
    assert reversibility_residual(m) <= 1e-10
    eigs = np.linalg.eigvalsh(m.P)
    assert abs(eigs.max() - 1.0) < 1e-10  # stochastic: top eigenvalue 1


def test_generated_mdps_are_deterministic():
    a = make_mdp(False, 3, n=12, gamma=0.9, alpha=0.95, seed=11)
    b = make_mdp(False, 3, n=12, gamma=0.9, alpha=0.95, seed=11)
    assert np.array_equal(a.P, b.P) and np.array_equal(a.R, b.R)


@pytest.mark.parametrize("make", [
    lambda seed: make_mdp(False, n=6, seed=seed),
    lambda seed: mdp_mod.make_mdp(True, 1, n=6, gamma=0.9, alpha=0.0, seed=seed),
])
def test_generators_reject_a_seed_sequence(make):
    # spawning advanced the caller's SeedSequence, so each call drew another chain
    seed = np.random.SeedSequence(3)
    with pytest.raises(TypeError):
        make(seed)


@pytest.mark.parametrize("name,value,error,message", [
    # h = -1 died in numpy ("negative dimensions are not allowed"), seed = -1 in SeedSequence
    ("h", -1, ValueError, "h must be >= 1, got -1"),
    ("seed", -1, ValueError, "seed must be >= 0, got -1"),
    ("n", 0, ValueError, "n must be >= 1, got 0"),
    ("gamma", 1.0, ValueError, r"gamma must be in \[0, 1\), got 1.0"),
    ("alpha", float("nan"), ValueError, r"alpha must be in \[0, 1\], got nan"),
    ("n", 6.0, TypeError, "n must be an integer"),
    ("gamma", "0.9", TypeError, "gamma must be a real number"),
])
def test_make_mdp_names_a_bad_argument_before_any_draw(name, value, error, message, monkeypatch):
    def no_draw(seed):
        raise AssertionError("a draw came before the check")

    monkeypatch.setattr(mdp_mod, "seed_streams", no_draw)
    args = {"n": 6, "h": 1, "gamma": 0.9, "alpha": 0.5, "seed": 0, name: value}
    with pytest.raises(error, match=message):
        mdp_mod.make_mdp(False, args.pop("h"), **args)


def test_seed_streams_are_the_generators_and_the_init_streams():
    streams = mdp_mod.seed_streams(7)
    m = make_mdp(False, 2, n=6, alpha=0.0, seed=7)
    assert_allclose(m.P, _sample_doubly_stochastic(6, streams[0]))
    assert np.array_equal(m.R, mdp_mod.make_rng(streams[2]).standard_normal((6, 2)))
    phi0 = initial_representation(7, 6, 2)
    assert np.array_equal(phi0, orthonormal_init(6, 2, streams[3]))


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


def test_mrp_rejects_a_process_without_states():
    # it died in a zero-size reduction, with numpy's "zero-size array to reduction
    # operation maximum which has no identity"
    with pytest.raises(ValueError, match="P has no states"):
        MarkovRewardProcess(P=np.zeros((0, 0)), R=np.zeros((0, 1)), gamma=0.9, d=np.zeros(0))


@pytest.mark.parametrize("name", ["P", "R", "d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mrp_rejects_non_finite_entries(name, bad):
    # every other check is a comparison that NaN passes silently
    arrays = {"P": np.full((2, 2), 0.5), "R": np.zeros((2, 1)), "d": np.array([0.5, 0.5])}
    arrays[name][0] = bad
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        MarkovRewardProcess(gamma=0.9, **arrays)


def _two_states(**edit):
    return {"P": np.full((2, 2), 0.5), "R": np.zeros((2, 1)), "gamma": 0.9, "d": np.array([0.5, 0.5]),
            **edit}


@pytest.mark.parametrize("make,message", [
    (lambda: MarkovRewardProcess(**_two_states(P=np.full((2, 3), 1 / 3))), "P must be square"),
    (lambda: MarkovRewardProcess(**_two_states(R=np.zeros((3, 1)))), "R must have 2 rows"),
    (lambda: MarkovRewardProcess(**_two_states(R=np.zeros(3))), "R must have 2 rows"),
    (lambda: MarkovRewardProcess(**_two_states(d=np.full(3, 1 / 3))), "d must have length 2"),
], ids=["P_not_square", "R_rows", "R_vector_length", "d_length"])
def test_shape_checks_name_the_mismatch(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_reward_vector_is_one_column():
    mrp = MarkovRewardProcess(**_two_states(R=np.array([1.0, 0.0])))
    assert mrp.R.shape == (2, 1) and mrp.h == 1
    assert_allclose(mrp.V[:, 0], [5.5, 4.5])


_CORRUPTIONS = ("none", "non_finite_P", "non_finite_R", "non_finite_d", "negative_P", "row_sum",
                "negative_d", "d_sum", "non_stationary", "gamma", "zero_columns", "extra_axis_R")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    symmetric=st.booleans(),
    n=st.integers(1, 8),
    h=st.integers(1, 3),
    gamma=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
    corruption=st.sampled_from(_CORRUPTIONS),
    index=st.integers(0, 63),
    size=st.floats(1e-4, 1e-2),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    bad_gamma=st.one_of(st.floats(max_value=-1e-300), st.floats(min_value=1.0),
                        st.just(np.nan)),
)
# an h = 0 process was accepted, and integrating it died in a zero-size reduction
@example(symmetric=False, n=3, h=1, gamma=0.9, seed=0, corruption="zero_columns", index=0,
         size=1e-3, bad=np.nan, bad_gamma=1.0)
# a reward array with a third axis was accepted, and its first solve failed
@example(symmetric=False, n=4, h=2, gamma=0.9, seed=0, corruption="extra_axis_R", index=0,
         size=1e-3, bad=np.nan, bad_gamma=1.0)
def test_mrp_boundary_rejects_every_invalid_input_and_accepts_valid_ones(
    symmetric, n, h, gamma, seed, corruption, index, size, bad, bad_gamma
):
    if symmetric:
        valid = make_mdp(True, h, n=n, gamma=gamma, seed=seed)
    else:
        valid = make_mdp(False, h, n=n, gamma=gamma, seed=seed)
    P, R, d = valid.P.copy(), valid.R.copy(), valid.d.copy()
    i, j = divmod(index, 8)
    i, j = i % n, j % n
    if corruption == "none":
        mrp = MarkovRewardProcess(P=P, R=R, gamma=gamma, d=d)
        assert np.array_equal(mrp.P, P) and np.array_equal(mrp.R, R) and mrp.gamma == gamma
        return
    if corruption == "non_finite_P":
        P[i, j] = bad
    elif corruption == "non_finite_R":
        R[i, j % h] = bad
    elif corruption == "non_finite_d":
        d[i] = bad
    elif corruption == "negative_P":
        P[i, j] = -size
    elif corruption == "row_sum":
        P[i] *= 1.0 + size
    elif corruption == "negative_d":
        d[i] = -size
    elif corruption == "d_sum":
        d *= 1.0 + size
    elif corruption == "non_stationary":
        if n == 1:
            return  # the one distribution on one state is stationary
        # moves mass between two states: still a distribution, but P's unique
        # stationary distribution is uniform
        d[i] += size
        d[(i + 1) % n] -= size
    elif corruption == "gamma":
        gamma = bad_gamma
    elif corruption == "extra_axis_R":
        R = R[..., None]
    else:
        R = np.zeros((n, 0))
    with pytest.raises(ValueError):
        MarkovRewardProcess(P=P, R=R, gamma=gamma, d=d)


def test_mrp_arrays_frozen(small_mixed):
    with pytest.raises(ValueError):
        small_mixed.P[0, 0] = 2.0


# ------------------------------------------------------------------- queries


def test_value_function_worked_example(two_state):
    assert_allclose(two_state.V, [[5.5], [4.5]], atol=1e-10)


def test_value_function_residual(small_mixed):
    for mrp in (small_mixed, *(make_mdp(False, 3, n=20, seed=seed) for seed in range(20))):
        V = mrp.V
        resid = V - mrp.gamma * mrp.P @ V - mrp.R
        assert np.abs(resid).max() <= 1e-10


def test_key_matrix_positive_definite(small_mixed):
    A = small_mixed.A
    assert_allclose(A, np.diag(small_mixed.d) @ (np.eye(8) - 0.9 * small_mixed.P))
    assert np.linalg.eigvalsh(0.5 * (A + A.T))[0] > 0


def test_value_function_residual_bound_scales_with_rewards():
    # the absolute 1e-10 bound rejected this solve (residual 2.3e-10)
    m = make_mdp(False, 1, n=30, seed=0)
    big = m.with_rewards(1e5 * m.R)
    assert_allclose(big.V, 1e5 * m.V, rtol=1e-12)


def test_value_function_rejects_an_overflowed_solve():
    # the hand-written residual check passed a NaN residual and kept an infinite V
    big = make_mdp(False, 1, n=30).with_rewards(np.full((30, 1), 1e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        big.V


def test_value_function_overflow_is_its_own_error():
    # it read as "cond = inf", and the inf solution made the residual warn
    big = make_mdp(False, 1, n=30).with_rewards(np.full((30, 1), 1e308))
    assert np.linalg.cond(big.system) < 20
    with pytest.raises(SolutionOverflowError, match=r"I - gamma P overflowed \(cond = 1\.845e\+01"):
        big.V
    G, b = big.system[None], big.R[None]
    x = met._solve(G, b)
    rejected = met._judge(G, x, b, "I - gamma P")
    assert list(rejected) == [0] and np.isnan(x).all()


def test_rejected_value_function_and_resolvent_are_kept(monkeypatch):
    # cached_property keeps no exception, so each read of a rejected V solved again
    real, calls = met._guard, []

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(met, "_guard", counted)
    for mrp, name, error in (
        (make_mdp(False, 1, n=30).with_rewards(np.full((30, 1), 1e308)), "V", SolutionOverflowError),
        (make_mdp(False, 1, n=30, gamma=1 - 1e-12), "resolvent", IllConditionedError),
    ):
        calls.clear()
        for _ in range(3):
            with pytest.raises(error):
                getattr(mrp, name)
        assert calls == ["I - gamma P"]


def test_resolvent_names_an_ill_conditioned_system():
    # the resolvent was solved with no check at all
    with pytest.raises(IllConditionedError, match="I - gamma P"):
        make_mdp(False, 1, n=30, gamma=1 - 1e-12).resolvent


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("n, h, gamma", [(2, 1, 0.0), (9, 3, 0.5), (30, 8, 0.99)])
def test_value_function_and_resolvent_are_numpy_solves_bit_for_bit(symmetric, n, h, gamma):
    for seed in range(3):
        mrp = make_mdp(symmetric, h, n=n, gamma=gamma, seed=seed)
        assert np.array_equal(mrp.V, np.linalg.solve(mrp.system, mrp.R))
        assert np.array_equal(mrp.resolvent, np.linalg.solve(mrp.system, np.eye(n)))


def test_derived_matrices_are_cached_and_read_only(small_mixed):
    for get in (lambda m: m.A, lambda m: m.V, lambda m: m.system, lambda m: m.dR, lambda m: m.C):
        arr = get(small_mixed)
        assert get(small_mixed) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert np.array_equal(small_mixed.dR, small_mixed.d[:, None] * small_mixed.R)
    assert np.array_equal(small_mixed.C, small_mixed.dR @ small_mixed.dR.T)


def test_with_rewards_gets_a_fresh_value_function(small_mixed):
    V = small_mixed.V
    other = small_mixed.with_rewards(2.0 * small_mixed.R)
    assert other.V is not V
    assert_allclose(other.V, 2.0 * V, rtol=1e-12)
    assert np.array_equal(other.A, small_mixed.A)


def test_processes_compare_and_hash_by_identity():
    # value equality over ndarray fields raised (ambiguous truth value, unhashable)
    a, b = make_mdp(False, n=4, seed=0), make_mdp(False, n=4, seed=0)
    assert a == a and a != b
    curves = {a: "first", b: "second"}
    assert curves[a] == "first" and curves[b] == "second"


def test_pickled_process_stays_frozen(small_mixed):
    A = small_mixed.A
    copy = pickle.loads(pickle.dumps(small_mixed))
    assert np.array_equal(copy.A, A)
    for arr in (copy.P, copy.R, copy.d, copy.A):
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
        mrp = make_mdp(True, h, n=n, gamma=gamma, seed=seed)
    else:
        mrp = make_mdp(False, h, n=n, gamma=gamma, alpha=alpha, seed=seed)
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
